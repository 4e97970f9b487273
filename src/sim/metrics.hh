/**
 * @file
 * Node-scoped metrics registry: counters, gauges and deterministic
 * log2-bucketed histograms, sampled on a simulated-time cadence into
 * JSONL snapshots.
 *
 * The registry is the reporting layer every experiment goes through
 * (ROADMAP: paper-style tables come from snap-report over a metrics
 * file, not from ad-hoc printf blocks). Design constraints, in order:
 *
 *  - *Determinism*. A metrics file from a seeded run must be
 *    byte-identical across hosts and across `--jobs` counts in the
 *    parallel harness. Histograms therefore bucket by bit width (no
 *    floating-point bucket boundaries), percentile interpolation uses
 *    a fixed integer bucket walk, registries iterate in canonical
 *    name order (std::map), and doubles are printed with
 *    std::to_chars shortest round-trip form — never printf %g, whose
 *    output is locale- and libc-dependent.
 *
 *  - *No hot-path cost*. Model components keep their plain counter
 *    structs on the hot path where they have them; publish*() methods
 *    mirror them into the registry at sample time (Counter::set).
 *    Components off the hot path (coprocessors, radio) count directly
 *    in registry counters — one pointer indirection per event.
 *
 *  - *Mergeability*. The parallel harness folds per-node registries
 *    into an aggregate in node-id order at barrier ticks. Counters
 *    and histograms add; each gauge declares its merge policy (Sum
 *    for energies, Mean for ratios like duty cycle, Skip for modes).
 *
 * docs/METRICS.md documents the JSONL schema and cadence semantics.
 */

#ifndef SNAPLE_SIM_METRICS_HH
#define SNAPLE_SIM_METRICS_HH

#include <array>
#include <bit>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/ticks.hh"

namespace snaple::sim {

/** A monotone event count. */
class MetricCounter
{
  public:
    void inc(std::uint64_t n = 1) { v_ += n; }
    /** Mirror a hot-path struct counter at sample time. */
    void set(std::uint64_t v) { v_ = v; }
    std::uint64_t value() const { return v_; }
    void reset() { v_ = 0; }

  private:
    std::uint64_t v_ = 0;
};

/** How an aggregate combines one gauge across nodes. */
enum class GaugeMerge : std::uint8_t
{
    Sum,  ///< totals (energy, occupancy)
    Mean, ///< ratios (duty cycle)
    Skip, ///< per-node-only values (modes, voltages)
};

/** A point-in-time value, re-set at every sample. */
class MetricGauge
{
  public:
    void set(double v) { v_ = v; }
    double value() const { return mergedN_ > 1 ? v_ / mergedN_ : v_; }
    GaugeMerge merge() const { return merge_; }
    void reset()
    {
        v_ = 0.0;
        mergedN_ = 0;
    }

  private:
    friend class MetricsRegistry;
    double v_ = 0.0;
    GaugeMerge merge_ = GaugeMerge::Sum;
    /** Contributions folded in by mergeFrom (Mean normalization). */
    std::uint32_t mergedN_ = 0;
};

/**
 * Deterministic log2-bucketed histogram of non-negative integer
 * samples (latencies in ticks, sizes in words).
 *
 * Bucket b holds values whose bit width is b: bucket 0 is exactly
 * {0}, bucket b >= 1 spans [2^(b-1), 2^b - 1]. 65 buckets cover the
 * whole uint64 range. Bucketing is integer-only, so two runs that
 * record the same samples produce identical bucket vectors on any
 * host.
 */
class MetricHistogram
{
  public:
    static constexpr std::size_t kNumBuckets = 65;

    static constexpr std::size_t
    bucketOf(std::uint64_t v)
    {
        return static_cast<std::size_t>(std::bit_width(v));
    }

    /** Smallest value landing in bucket @p b. */
    static constexpr std::uint64_t
    bucketLo(std::size_t b)
    {
        return b <= 1 ? b : (std::uint64_t{1} << (b - 1));
    }

    /** Largest value landing in bucket @p b. */
    static constexpr std::uint64_t
    bucketHi(std::size_t b)
    {
        if (b == 0)
            return 0;
        if (b >= 64)
            return ~std::uint64_t{0};
        return (std::uint64_t{1} << b) - 1;
    }

    void
    record(std::uint64_t v)
    {
        ++buckets_[bucketOf(v)];
        ++count_;
        sum_ += v;
        if (count_ == 1) {
            min_ = max_ = v;
        } else {
            if (v < min_)
                min_ = v;
            if (v > max_)
                max_ = v;
        }
    }

    /** Fold another histogram in (aggregation across nodes). */
    void
    mergeFrom(const MetricHistogram &o)
    {
        if (o.count_ == 0)
            return;
        for (std::size_t b = 0; b < kNumBuckets; ++b)
            buckets_[b] += o.buckets_[b];
        if (count_ == 0) {
            min_ = o.min_;
            max_ = o.max_;
        } else {
            if (o.min_ < min_)
                min_ = o.min_;
            if (o.max_ > max_)
                max_ = o.max_;
        }
        count_ += o.count_;
        sum_ += o.sum_;
    }

    /**
     * Reconstruct from serialized fields (snap-report rebuilds
     * histograms from JSONL sample lines to compute percentiles with
     * exactly this estimator).
     */
    void
    restore(std::uint64_t count, std::uint64_t sum, std::uint64_t min,
            std::uint64_t max,
            const std::vector<std::pair<std::size_t, std::uint64_t>>
                &buckets)
    {
        reset();
        count_ = count;
        sum_ = sum;
        min_ = min;
        max_ = max;
        for (const auto &[b, n] : buckets)
            if (b < kNumBuckets)
                buckets_[b] = n;
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return max_; }
    std::uint64_t bucket(std::size_t b) const { return buckets_[b]; }

    double
    mean() const
    {
        return count_ ? double(sum_) / double(count_) : 0.0;
    }

    /**
     * Percentile estimate for @p p in [0, 100]: an integer bucket
     * walk to the bucket holding the target rank, then linear
     * interpolation across that bucket's value span, clamped to the
     * recorded min/max. Deterministic: same samples, same result,
     * monotone in p.
     */
    double percentile(double p) const;

    void
    reset()
    {
        buckets_.fill(0);
        count_ = sum_ = min_ = max_ = 0;
    }

  private:
    std::array<std::uint64_t, kNumBuckets> buckets_{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
};

/** One row of the per-PC flat profile (see SnapCore::profileRows). */
struct ProfileRow
{
    std::string_view handler; ///< event name or "boot"
    std::uint16_t pc = 0;
    std::uint64_t count = 0; ///< retirements at this pc
    Tick ticks = 0;          ///< simulated time attributed here
    double pj = 0.0;         ///< dynamic energy attributed here
};

/**
 * A named bag of instruments with stable references and canonical
 * (name-sorted) iteration order.
 */
class MetricsRegistry
{
  public:
    /** The counter named @p name, created on first use. */
    MetricCounter &counter(std::string_view name);

    /**
     * The gauge named @p name, created on first use with merge policy
     * @p merge (the policy sticks from the creating call).
     */
    MetricGauge &gauge(std::string_view name,
                       GaugeMerge merge = GaugeMerge::Sum);

    /** The histogram named @p name, created on first use. */
    MetricHistogram &histogram(std::string_view name);

    /**
     * Fold @p src into this registry: counters and histogram buckets
     * add, gauges follow their merge policy (instruments are created
     * here as needed, with matching kinds). Used by the parallel
     * harness to build the "all" aggregate; call resetValues() first
     * when rebuilding from scratch each sample.
     */
    void mergeFrom(const MetricsRegistry &src);

    /** Zero every instrument's value (names and kinds survive). */
    void resetValues();

    bool empty() const { return metrics_.empty(); }

    /** One JSONL sample line per instrument, in name order. */
    void writeJsonl(std::ostream &os, Tick t,
                    std::string_view node) const;

    /** The run-description meta line heading a node's JSONL stream. */
    static void writeMetaJsonl(std::ostream &os, std::string_view node,
                               double volts, Tick interval);

    /** One flat-profile JSONL line (end of run). */
    static void writeProfileJsonl(std::ostream &os,
                                  std::string_view node,
                                  const ProfileRow &row);

    /**
     * Full value dump of one instrument (snapshot support). Fields
     * irrelevant to the instrument's kind stay at their defaults, so
     * the serialized form is canonical.
     */
    struct SavedInstrument
    {
        std::string name;
        std::uint8_t kind = 0;  ///< 0 counter, 1 gauge, 2 histogram
        std::uint64_t counter = 0;
        double gaugeV = 0.0;
        std::uint8_t gaugeMerge = 0;
        std::uint32_t gaugeMergedN = 0;
        std::uint64_t histCount = 0;
        std::uint64_t histSum = 0;
        std::uint64_t histMin = 0;
        std::uint64_t histMax = 0;
        std::array<std::uint64_t, MetricHistogram::kNumBuckets>
            buckets{};
    };

    /** Every instrument's current value, in canonical name order. */
    std::vector<SavedInstrument> saveState() const;

    /**
     * Recreate instruments from @p saved (checkpoint restore). Existing
     * instruments keep their addresses — components cache references —
     * and take the saved values; instruments only present in @p saved
     * are created.
     */
    void restoreState(const std::vector<SavedInstrument> &saved);

  private:
    enum class Kind : std::uint8_t
    {
        Counter,
        Gauge,
        Histogram,
    };

    struct Instrument
    {
        Kind kind = Kind::Counter;
        MetricCounter counter;
        MetricGauge gauge;
        MetricHistogram hist;
    };

    Instrument &get(std::string_view name, Kind kind);

    // std::map: stable addresses across inserts (components cache
    // references) and canonical iteration order for the writers.
    std::map<std::string, Instrument, std::less<>> metrics_;
};

/**
 * Format @p v in shortest round-trip form (std::to_chars): the only
 * double-to-text path in metrics output, so files are byte-identical
 * wherever the same values were computed.
 */
std::string formatDouble(double v);

/**
 * Write @p s as a quoted JSON string, the one escaper behind every
 * stream and trace export: `"`, `\`, newline and tab get backslash
 * escapes, other control bytes `\u00XX`; UTF-8 passes through.
 */
void putJsonString(std::ostream &os, std::string_view s);

} // namespace snaple::sim

#endif // SNAPLE_SIM_METRICS_HH
