/**
 * @file
 * Numeric command-line options shared by the tools and examples.
 *
 * Each parser accepts the whole text or nothing: no sign wrap-around
 * (`--jobs -1` is not 4294967295), no trailing garbage, no NaN. A
 * rejected value is a usage error (exit status 2) reported before
 * anything is built — times go through sim::parseTimeArg.
 */

#ifndef SNAPLE_SIM_ARGS_HH
#define SNAPLE_SIM_ARGS_HH

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace snaple::sim {

/** Largest --jobs any tool accepts: each worker lane is a thread. */
inline constexpr std::uint64_t kMaxJobs = 256;

/** What a time option (parsed by sim::parseTimeArg) needs. */
inline constexpr const char *kTimeArgNeeds =
    "a non-negative number of ms below 2^63 ps (about 9.2e9 ms)";

/**
 * Parse @p text, a decimal integer in [@p lo, @p hi], into @p out.
 * False unless the whole text is such a number.
 */
inline bool
parseCountArg(const char *text, std::uint64_t lo, std::uint64_t hi,
              std::uint64_t &out)
{
    const char *end = text + std::strlen(text);
    const auto [p, ec] = std::from_chars(text, end, out);
    return ec == std::errc{} && p == end && out >= lo && out <= hi;
}

/** Parse @p text, a positive finite supply voltage, into @p out. */
inline bool
parseVoltsArg(const char *text, double &out)
{
    char *end = nullptr;
    out = std::strtod(text, &end);
    return end != text && *end == '\0' && std::isfinite(out) && out > 0;
}

/** Report "OPTION needs NEEDS, got 'ARG'"; returns the usage-error
 *  exit status. */
inline int
badArg(const char *option, const char *needs, const char *arg)
{
    std::fprintf(stderr, "%s needs %s, got '%s'\n", option, needs, arg);
    return 2;
}

} // namespace snaple::sim

#endif // SNAPLE_SIM_ARGS_HH
