/**
 * @file
 * Simulation time base.
 *
 * All simulated time in snaple is expressed in integer picoseconds. A
 * picosecond base is fine enough to resolve single gate delays at 1.8 V
 * (~139 ps) and coarse enough that a 64-bit tick counter spans ~213 days
 * of simulated time, far beyond any experiment in the paper.
 */

#ifndef SNAPLE_SIM_TICKS_HH
#define SNAPLE_SIM_TICKS_HH

#include <cstdint>
#include <cstdlib>
#include <limits>

namespace snaple::sim {

/** Simulated time, in picoseconds. */
using Tick = std::uint64_t;

/** One picosecond. */
inline constexpr Tick kPicosecond = 1;
/** One nanosecond. */
inline constexpr Tick kNanosecond = 1000;
/** One microsecond. */
inline constexpr Tick kMicrosecond = 1000 * kNanosecond;
/** One millisecond. */
inline constexpr Tick kMillisecond = 1000 * kMicrosecond;
/** One second. */
inline constexpr Tick kSecond = 1000 * kMillisecond;

/** Sentinel for "run forever". */
inline constexpr Tick kMaxTick = std::numeric_limits<Tick>::max();

/**
 * True when @p v, a time in units of @p unit ticks, is non-negative,
 * finite and below 2^63 ticks (about 9.2e9 ms): the range on which the
 * conversions below and std::llround() are defined. Checked wherever a
 * time arrives from outside (scenario files, command-line options).
 */
constexpr bool
timeInRange(double v, Tick unit)
{
    return v >= 0 && v * static_cast<double>(unit) < 0x1p63;
}

/**
 * Parse @p text, a command-line time in units of @p unit ticks, into
 * @p out. False unless the whole text is a number timeInRange()
 * accepts.
 */
inline bool
parseTimeArg(const char *text, Tick unit, double &out)
{
    char *end = nullptr;
    out = std::strtod(text, &end);
    return end != text && *end == '\0' && timeInRange(out, unit);
}

/** Convert a floating-point nanosecond count to ticks (rounds to nearest). */
constexpr Tick
fromNs(double ns)
{
    return static_cast<Tick>(ns * static_cast<double>(kNanosecond) + 0.5);
}

/** Convert a floating-point microsecond count to ticks. */
constexpr Tick
fromUs(double us)
{
    return static_cast<Tick>(us * static_cast<double>(kMicrosecond) + 0.5);
}

/** Convert a floating-point millisecond count to ticks. */
constexpr Tick
fromMs(double ms)
{
    return static_cast<Tick>(ms * static_cast<double>(kMillisecond) + 0.5);
}

/** Convert a floating-point second count to ticks. */
constexpr Tick
fromSec(double s)
{
    return static_cast<Tick>(s * static_cast<double>(kSecond) + 0.5);
}

/** Convert ticks to nanoseconds. */
constexpr double
toNs(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(kNanosecond);
}

/** Convert ticks to microseconds. */
constexpr double
toUs(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(kMicrosecond);
}

/** Convert ticks to milliseconds. */
constexpr double
toMs(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(kMillisecond);
}

/** Convert ticks to seconds. */
constexpr double
toSec(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(kSecond);
}

} // namespace snaple::sim

#endif // SNAPLE_SIM_TICKS_HH
