/**
 * @file
 * snaple-bench: one workload, one seed, one result line.
 *
 *   snaple-bench --workload NAME --seed N --seconds S --trace 0|1
 *                [--spans FILE] [--emit-scn]
 *
 * --trace 0 runs the workload through scenario::runScenario() in a
 * closed loop for S seconds and reports the end-to-end metrics;
 * --trace 1 runs the traced driver (driver.hh) and its variants and
 * reports the per-layer metrics. Either way the last line of standard
 * output is one JSON object: {"correct", "attempted", "failed",
 * "metrics"}. README.md describes every workload and metric.
 * --emit-scn prints the generated scenario text instead, to replay a
 * workload through snap-run. Run it from the repository root: the node
 * programs are read from examples/scenarios/.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "counting_sink.hh"
#include "driver.hh"
#include "scenario/runner.hh"
#include "scenario/scenario.hh"
#include "sim/logging.hh"
#include "stats.hh"
#include "workloads.hh"

namespace snaple::bench {

namespace {

/** One reported metric, in the order it is printed. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::size_t samples;
};

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    std::string spans;
    bool emitScn = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "snaple-bench: " << why << "\n"
              << "usage: snaple-bench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--spans FILE] [--emit-scn]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--emit-scn") {
            a.emitScn = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + k);
        const std::string v = argv[++i];
        try {
            if (k == "--workload")
                a.workload = v;
            else if (k == "--seed")
                a.seed = std::stoull(v);
            else if (k == "--seconds")
                a.seconds = std::stod(v);
            else if (k == "--trace")
                a.trace = std::stoi(v);
            else if (k == "--spans")
                a.spans = v;
            else
                usage("unknown option " + k);
        } catch (const std::logic_error &) {
            usage("bad value for " + k + ": " + v);
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (!a.emitScn && (a.seconds <= 0 || (a.trace != 0 && a.trace != 1)))
        usage("--seconds > 0 and --trace 0|1 are required");
    return a;
}

/** A runScenario() call's result and what its streams recorded. */
struct Outcome
{
    scenario::RunResult res;
    std::uint64_t metricsBytes = 0;
    std::uint64_t flowSpans = 0;
    std::uint64_t captures = 0;

    bool
    sameAs(const Outcome &o) const
    {
        return res.rows() == o.res.rows() &&
               metricsBytes == o.metricsBytes &&
               flowSpans == o.flowSpans && captures == o.captures;
    }
};

/** Runs one workload's scenario through the public runner. */
class Runner
{
  public:
    Runner(const Workload &w,
           const std::map<std::string, std::string> &programs)
        : w_(w), programs_(programs)
    {}

    Outcome
    run(const scenario::Scenario &sc, unsigned jobs) const
    {
        CountingSink metrics, flows;
        Outcome out;
        scenario::RunOptions opt;
        opt.jobs = jobs;
        opt.loadSource = [this](const std::string &path) {
            return programs_.at(path);
        };
        if (w_.streams) {
            opt.metricsOut = &metrics;
            opt.flowsOut = &flows;
        }
        opt.onCheckpoint = [&out](const auto &, const auto &) {
            ++out.captures;
        };
        out.res = scenario::runScenario(sc, opt);
        out.metricsBytes = metrics.bytes();
        out.flowSpans = flows.lines();
        return out;
    }

  private:
    const Workload &w_;
    const std::map<std::string, std::string> &programs_;
};

/**
 * Every field of a result that is an integer count or flag: what must
 * not change when only tracing or the streams are switched (the trace
 * hashes and the last digits of energy may).
 */
std::string
integerFields(const scenario::RunResult &r)
{
    std::ostringstream os;
    os << r.air.wordsSent << ' ' << r.air.wordsDelivered << ' '
       << r.air.collisions << ' ' << r.air.dropsMode << ' '
       << r.air.dropsFifo << ' ' << r.dropsLink << ' ' << r.dropsDead
       << ' ' << r.rxInRange << ' ' << r.pendingFlights << ' '
       << r.pendingDeliveries;
    for (const scenario::NodeOutcome &o : r.outcomes)
        os << " | " << o.dead << ' ' << o.deathAt << ' ' << o.dbgWords;
    for (const scenario::CheckpointRow &c : r.checkpoints)
        os << " @ " << c.at;
    return os.str();
}

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    std::cout << "\n";
    for (const Metric &m : metrics)
        std::printf("  %-28s %16.6g %-6s (n=%zu)\n", m.name.c_str(),
                    m.value, m.unit.c_str(), m.samples);
    std::fflush(stdout);
    std::ostringstream js;
    js.precision(17);
    js << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    bool first = true;
    for (const Metric &m : metrics) {
        if (m.name == "failed_frac")
            continue; // carried by "failed"/"attempted" (README.md)
        js << (first ? "" : ", ") << "\"" << m.name
           << "\": {\"value\": " << m.value << ", \"unit\": \"" << m.unit
           << "\"}";
        first = false;
    }
    js << "}}";
    std::cout << js.str() << std::endl;
}

/** Simulated run length of every end-to-end set-up sample, ms. */
constexpr double kSetupRunMs = 0.01;
/** Set-up samples per process, at least: on field_grid one sample
 *  takes about 0.14 s, and fewer samples leave its median unsteady. */
constexpr std::size_t kSetupMin = 21;
constexpr std::size_t kMinRuns = 3;

/**
 * Lanes of the timed end-to-end runs. At more lanes the wall time on
 * a shared 4-vCPU host is bimodal from one minute to the next
 * (README.md, "Steadiness"), so the timed loop runs on one lane and
 * the traced run measures the workload's lanes.
 */
constexpr unsigned kEndToEndJobs = 1;

int
endToEnd(const Workload &w, const Args &a, const std::string &text,
         const std::map<std::string, std::string> &programs)
{
    const Runner runner(w, programs);
    const scenario::Scenario sc =
        scenario::parseScenario(text, "<generated>");

    // The reference: the same seed and stream settings on one lane.
    const Outcome ref = runner.run(sc, 1);
    const std::string missing =
        checkExercised(w, sc, ref.res, ref.flowSpans, ref.captures,
                       [&](const scenario::Scenario &s) {
                           return runner.run(s, 1).res;
                       });
    if (!missing.empty())
        std::cout << "not exercised: " << missing << "\n";

    // One untimed run at the workload's lane count: the rows must not
    // depend on it.
    std::size_t failed = 0;
    if (w.lanes > 1 && !runner.run(sc, w.lanes).sameAs(ref)) {
        ++failed;
        std::cout << "jobs=" << w.lanes << ": row differs from the "
                  << "jobs=1 reference\n";
    }

    // Set-up: from the text to a started network, timed from outside
    // as a parse plus a runScenario() call that simulates one window.
    const auto setupSample = [&] {
        const double t0 = wallNow();
        scenario::Scenario s = scenario::parseScenario(text, "<setup>");
        s.durationMs = kSetupRunMs;
        s.faults.clear();
        s.checkpoints.clear();
        runner.run(s, kEndToEndJobs);
        return wallNow() - t0;
    };

    // The timed loop takes one set-up sample before each run, so both
    // sets of samples span the same stretch of host time.
    std::vector<double> wall, rate, setup;
    const double nodeSimS = double(sc.nodes) * sc.durationMs / 1000;
    const double end = wallNow() + a.seconds;
    while (wall.size() < kMinRuns || setup.size() < kSetupMin ||
           wallNow() < end) {
        setup.push_back(setupSample());
        const double t0 = wallNow();
        const Outcome got = runner.run(sc, kEndToEndJobs);
        const double dt = wallNow() - t0;
        wall.push_back(dt);
        rate.push_back(nodeSimS / dt);
        if (!got.sameAs(ref)) {
            ++failed;
            std::cout << "run " << wall.size() << ": row differs from "
                         "the jobs=1 reference\n";
        }
    }

    const std::size_t n = wall.size();
    const std::size_t attempted = n + (w.lanes > 1 ? 1 : 0);
    std::cout << "workload " << w.name << " seed " << a.seed << " jobs "
              << kEndToEndJobs << ": " << ref.res.row() << "\n";
    // The highest percentile with at least ten runs beyond it, when
    // that lies above the median.
    if (n > 21) {
        std::vector<double> sorted = wall;
        std::sort(sorted.begin(), sorted.end());
        std::cout << "wall_s p" << 100 * (n - 10) / n << " over " << n
                  << " runs: " << sorted[n - 11] << " s\n";
    }
    printResult(missing.empty() && failed == 0, attempted, failed,
                {{"wall_s", median(wall), "s", n},
                 {"node_sim_s_per_s", median(rate), "1/s", n},
                 {"setup_s", median(setup), "s", setup.size()},
                 {"peak_rss_mb", peakRssMb(), "MiB", 1},
                 {"failed_frac", double(failed) / double(attempted),
                  "frac", attempted}});
    return 0;
}

/** The traced run's per-round figures. */
struct Round
{
    double untracedWallS = 0; ///< runScenario(), the overhead base
    double tracedWallS = 0;
    Layers main;
    double traceOffRunS = 0;
    double streamsOffRunS = 0;
    double jobs1RunS = 0;
};

int
traced(const Workload &w, const Args &a, const std::string &text,
       const std::map<std::string, std::string> &programs)
{
    const Runner runner(w, programs);
    const scenario::Scenario sc =
        scenario::parseScenario(text, "<generated>");
    TracedOptions mainOpt;
    mainOpt.jobs = w.lanes;
    mainOpt.streams = w.streams;

    SpanLog spanLog;
    std::vector<Round> rounds;
    std::string missing;
    std::size_t failed = 0, hashDiffNodes = 0;
    const auto fail = [&](const std::string &what) {
        ++failed;
        std::cout << "round " << rounds.size() << ": " << what << "\n";
    };
    const double end = wallNow() + a.seconds;
    while (rounds.size() < 2 || wallNow() < end) {
        Round r;
        // Spans for the first round only: one picture is enough, and
        // later rounds then pay nothing for them.
        SpanLog *spans = rounds.empty() ? &spanLog : nullptr;
        const auto runAs = [&](const char *name, const TracedOptions &o) {
            SpanScope s(spans, name);
            return runTraced(text, programs, o, spans);
        };

        double t0 = wallNow();
        const Outcome ref = runner.run(sc, w.lanes);
        r.untracedWallS = wallNow() - t0;
        if (rounds.empty())
            missing = checkExercised(
                w, sc, ref.res, ref.flowSpans, ref.captures,
                [&](const scenario::Scenario &s) {
                    return runner.run(s, 1).res;
                });

        t0 = wallNow();
        TracedOptions mainRound = mainOpt;
        mainRound.snapshotBytes = rounds.empty();
        const TracedRun main = runAs("traced", mainRound);
        r.tracedWallS = wallNow() - t0;
        r.main = main.layers;
        // Fidelity: the traced driver reproduces the runner's rows,
        // hashes included, and its stream counts.
        if (main.result.rows() != ref.res.rows() ||
            main.layers.metricsBytes != ref.metricsBytes ||
            main.layers.flowSpans != ref.flowSpans ||
            main.layers.captures != ref.captures)
            fail("traced rows differ from runScenario()");

        TracedOptions off = mainOpt;
        off.tracing = false;
        const TracedRun noTrace = runAs("variant.trace_off", off);
        r.traceOffRunS = noTrace.layers.runS;
        if (integerFields(noTrace.result) != integerFields(main.result))
            fail("tracing off changed a count");

        if (w.streams) {
            TracedOptions quiet = mainOpt;
            quiet.streams = false;
            const TracedRun noStreams =
                runAs("variant.streams_off", quiet);
            r.streamsOffRunS = noStreams.layers.runS;
            if (integerFields(noStreams.result) !=
                integerFields(main.result))
                fail("streams off changed a count");
            // Known non-neutrality (README.md): metrics sampling moves
            // trace hashes. Reported, not hidden.
            hashDiffNodes = 0;
            for (std::size_t i = 0; i < sc.nodes; ++i)
                hashDiffNodes += noStreams.result.outcomes[i].traceHash !=
                                 main.result.outcomes[i].traceHash;
        }

        if (w.lanes > 1) {
            TracedOptions one = mainOpt;
            one.jobs = 1;
            const TracedRun jobs1 = runAs("variant.jobs1", one);
            r.jobs1RunS = jobs1.layers.runS;
            if (jobs1.result.rows() != main.result.rows())
                fail("jobs=1 rows differ");
        } else {
            r.jobs1RunS = r.main.runS;
        }
        rounds.push_back(std::move(r));
    }

    const std::size_t n = rounds.size();
    const auto med = [&](auto field) {
        std::vector<double> v;
        for (const Round &r : rounds)
            v.push_back(field(r));
        return median(v);
    };
    const auto pooled = [&](auto member) {
        std::vector<double> v;
        for (const Round &r : rounds)
            v.insert(v.end(), (r.main.*member).begin(),
                     (r.main.*member).end());
        return median(v);
    };
    const Layers &L = rounds.front().main;
    const double runS = med([](const Round &r) { return r.main.runS; });
    const double offS = med([](const Round &r) { return r.traceOffRunS; });
    const double quietS =
        med([](const Round &r) { return r.streamsOffRunS; });
    const double jobs1S = med([](const Round &r) { return r.jobs1RunS; });
    const double tracedWall =
        med([](const Round &r) { return r.tracedWallS; });
    const double untracedWall =
        med([](const Round &r) { return r.untracedWallS; });
    const auto per = [](double s, std::uint64_t count, double scale) {
        return count ? s * scale / double(count) : 0.0;
    };

    std::cout << "workload " << w.name << " seed " << a.seed << " jobs "
              << w.lanes << " traced, " << n << " rounds\n";
    if (!missing.empty())
        std::cout << "not exercised: " << missing << "\n";
    std::cout << "lanes_speedup per round:";
    for (const Round &r : rounds)
        std::cout << " " << r.jobs1RunS / r.main.runS;
    std::cout << "\n";
    if (w.streams)
        std::cout << "known non-neutrality: metrics on/off changes the "
                     "trace hash of "
                  << hashDiffNodes << " of " << sc.nodes << " nodes\n";
    if (!a.spans.empty()) {
        std::ofstream out(a.spans);
        spanLog.writeChromeJson(out);
        std::cout << "spans: " << spanLog.size() << " written to "
                  << a.spans << "\n";
    }

    const auto cnt = [&](const char *name, std::uint64_t v) {
        return Metric{name, double(v), "count", 1};
    };
    printResult(
        missing.empty() && failed == 0, n, failed,
        {
            {"scenario.parse_s",
             med([](const Round &r) { return r.main.parseS; }), "s", n},
            {"asm.assemble_s",
             med([](const Round &r) { return r.main.assembleS; }), "s", n},
            cnt("asm.programs", L.programs),
            {"net.build_s",
             med([](const Round &r) { return r.main.buildS; }), "s", n},
            {"net.teardown_s",
             med([](const Round &r) { return r.main.teardownS; }), "s",
             n},
            {"net.run_s", runS, "s", n},
            cnt("sim.kernel_events", L.kernelEvents),
            {"sim.ns_per_event", per(runS, L.kernelEvents, 1e9), "ns", n},
            cnt("core.instructions", L.instructions),
            cnt("core.handlers", L.handlers),
            cnt("core.wakeups", L.wakeups),
            {"core.ns_per_instr", per(runS, L.instructions, 1e9), "ns", n},
            cnt("coproc.timer_expired", L.timerExpired),
            cnt("coproc.msg_commands", L.msgCommands),
            cnt("coproc.msg_queries", L.msgQueries),
            cnt("radio.words_sent", L.wordsSent),
            cnt("radio.delivered", L.delivered),
            cnt("radio.collisions", L.collisions),
            cnt("radio.rx_in_range", L.rxInRange),
            {"radio.us_per_flight", per(runS, L.wordsSent, 1e6), "us",
             n},
            {"net.lanes_speedup", runS > 0 ? jobs1S / runS : 0, "ratio",
             n},
            {"net.cpu_per_wall",
             med([](const Round &r) {
                 return r.main.runS > 0 ? r.main.runCpuS / r.main.runS
                                        : 0;
             }),
             "ratio", n},
            cnt("sim.trace_events", L.traceEvents),
            {"sim.trace_share", runS > 0 ? 1 - offS / runS : 0, "frac",
             n},
            {"sim.trace_ns_per_event",
             per(runS - offS, L.traceEvents, 1e9), "ns", n},
            {"net.barrier_us_p50", pooled(&Layers::barrierUs), "us", n},
            {"node.battery_hook_us", pooled(&Layers::hookUs), "us", n},
            {"obs.metrics_bytes", double(L.metricsBytes), "B", 1},
            cnt("obs.flow_spans", L.flowSpans),
            {"obs.finish_s",
             med([](const Round &r) { return r.main.finishS; }), "s", n},
            {"obs.stream_share",
             w.streams && runS > 0 ? 1 - quietS / runS : 0, "frac", n},
            cnt("snapshot.captures", L.captures),
            {"snapshot.capture_s",
             med([](const Round &r) { return r.main.captureS; }), "s", n},
            {"snapshot.bytes", double(L.snapshotBytes), "B", 1},
            cnt("sim.metrics_hash_diff_nodes", hashDiffNodes),
            {"bench.traced_wall_s", tracedWall, "s", n},
            {"bench.trace_overhead",
             untracedWall > 0 ? tracedWall / untracedWall - 1 : 0, "frac",
             n},
        });
    return 0;
}

} // namespace

} // namespace snaple::bench

int
main(int argc, char **argv)
{
    using namespace snaple::bench;
    const Args a = parseArgs(argc, argv);
    const Workload *w = findWorkload(a.workload);
    if (!w)
        usage("unknown workload " + a.workload);
    try {
        const std::string text = generateScenario(*w, a.seed);
        if (a.emitScn) {
            std::cout << text;
            return 0;
        }
        const auto programs = loadPrograms("examples/scenarios");
        return a.trace ? traced(*w, a, text, programs)
                       : endToEnd(*w, a, text, programs);
    } catch (const snaple::sim::FatalError &e) {
        std::cerr << "snaple-bench: " << e.what() << "\n";
        return 1;
    }
}
