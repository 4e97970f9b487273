/**
 * @file
 * The traced driver (README.md, "Traced run").
 *
 * runTraced() does what scenario::runScenario() does, step for step,
 * but through net::ParallelNetwork's public API from the benchmark's
 * own code, so it can time each layer from outside: parsing, assembly,
 * network build, every runFor() segment, the battery barrier hook,
 * checkpoint capture and the stream finish. It records nothing inside
 * src/. Its rows must equal runScenario()'s for the same settings;
 * main.cc checks that on every traced run.
 */

#ifndef SNAPLE_BENCH_DRIVER_HH
#define SNAPLE_BENCH_DRIVER_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "scenario/runner.hh"

namespace snaple::bench {

/**
 * Host-time spans kept in memory (name, start, end, parent) and
 * written out once at the end as Chrome trace-event JSON.
 */
class SpanLog
{
  public:
    SpanLog();

    /** Open a span under the innermost open one; returns its id. */
    int open(const std::string &name);
    void close(int id);

    /** The spans as Chrome trace-event JSON (chrome://tracing,
     *  Perfetto); each event carries its parent's id in args. */
    void writeChromeJson(std::ostream &os) const;

    std::size_t size() const { return spans_.size(); }

  private:
    struct Span
    {
        std::string name;
        double startS = 0;
        double endS = 0;
        int parent = -1;
    };

    double originS_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span: opens on construction, closes on destruction. */
class SpanScope
{
  public:
    SpanScope(SpanLog *log, const std::string &name)
        : log_(log), id_(log ? log->open(name) : -1)
    {}
    ~SpanScope()
    {
        if (log_)
            log_->close(id_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanLog *log_;
    int id_;
};

/** How one traced run is configured. */
struct TracedOptions
{
    unsigned jobs = 1;
    bool tracing = true; ///< enableTracing(), as the runner always does
    /** Metrics and flow-span streams into counting sinks. */
    bool streams = false;
    /** Encode every snapshot to count its bytes (untimed, but it
     *  adds to the call's wall time). */
    bool snapshotBytes = false;
};

/** Raw per-layer figures of one traced run. */
struct Layers
{
    double parseS = 0;
    double assembleS = 0;
    double buildS = 0; ///< addNode()xN, wiring and start()
    double runS = 0;   ///< the sum of runFor() calls
    double runCpuS = 0; ///< CPU seconds spent inside runFor()
    double finishS = 0; ///< finishMetrics() + finishFlows()
    double captureS = 0; ///< checkpoint() calls
    double teardownS = 0; ///< destroying the network

    std::size_t programs = 0; ///< distinct assembled programs
    std::uint64_t kernelEvents = 0;
    std::uint64_t instructions = 0;
    std::uint64_t handlers = 0;
    std::uint64_t wakeups = 0;
    std::uint64_t timerExpired = 0;
    std::uint64_t msgCommands = 0;
    std::uint64_t msgQueries = 0;
    std::uint64_t traceEvents = 0;
    std::uint64_t wordsSent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t collisions = 0;
    std::uint64_t rxInRange = 0;
    std::uint64_t metricsBytes = 0;
    std::uint64_t flowSpans = 0;
    std::uint64_t captures = 0;
    std::uint64_t snapshotBytes = 0; ///< 0 unless opted in

    /** Host microseconds from one barrier hook's exit to the next
     *  one's entry (one window), and inside each hook. Empty unless
     *  the scenario meters a battery. */
    std::vector<double> barrierUs;
    std::vector<double> hookUs;
};

struct TracedRun
{
    scenario::RunResult result;
    Layers layers;
};

/**
 * Parse @p text and run it as runScenario() would with the given
 * options, timing each layer. @p programs maps program paths to
 * sources. Spans go to @p spans when it is non-null.
 */
TracedRun runTraced(const std::string &text,
                    const std::map<std::string, std::string> &programs,
                    const TracedOptions &opt, SpanLog *spans = nullptr);

} // namespace snaple::bench

#endif // SNAPLE_BENCH_DRIVER_HH
