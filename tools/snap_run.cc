/**
 * @file
 * snap-run: run a SNAP program on a simulated SNAP/LE machine.
 *
 * Usage: snap-run FILE.s [--volts V[,V...]] [--ms N] [--stats]
 *                        [--nodes N] [--jobs K] [--seed S]
 *                        [--fidelity fast|cycle] [--cal=FILE]
 *                        [--trace=FILE] [--trace-format=json|vcd]
 *                        [--metrics=FILE] [--metrics-interval=TICKS]
 *                        [--profile]
 *        snap-run --scenario=FILE.scn [--jobs K] [--row=FILE]
 *                        [--fidelity fast|cycle] [--cal=FILE]
 *                        [--metrics=FILE] [--flows=FILE]
 *                        [--save-at=MS]... [--save=FILE.snap]
 *                        [--restore=FILE.snap]
 *
 * `--trace=-`, `--metrics=-` and `--flows=-` stream to stdout instead
 * of a file (pipe straight into `snap-trace -` / `snap-report -`); the
 * report printed alongside then goes to stderr.
 *
 * Runs for N simulated milliseconds (default 100) or until `halt`,
 * prints the `dbgout` stream, and optionally a stats/energy report.
 * With --trace, records the structured event trace and writes it as
 * Chrome trace_event JSON (load in chrome://tracing or Perfetto) or
 * as a VCD waveform; the 64-bit trace hash is printed either way.
 * In the default single-machine mode, events can only come from the
 * timer coprocessor (no radio or sensors are attached).
 *
 * With --nodes > 1 the same program is loaded into N full radio nodes
 * on the sharded parallel network (net::ParallelNetwork), advanced by
 * --jobs worker lanes. Each node's LFSR is seeded from --seed and its
 * node id (sim::deriveSeed), so runs are reproducible and the per-node
 * trace hashes printed at the end are independent of the job count.
 * --volts takes a comma-separated list assigned round-robin over the
 * nodes (a heterogeneous-supply deployment in one run).
 *
 * Numeric options are checked whole before anything runs: --volts
 * entries must be positive finite numbers, --nodes an integer from 1
 * to 2^20 (scenario::kMaxNodes), --jobs an integer from 1 to 256,
 * --seed a decimal integer from 0 to 2^64-1, --metrics-interval one
 * from 1 to 2^63-1 ticks, and times non-negative and below 2^63 ps.
 * Anything else is a usage error (exit 2).
 *
 * With --metrics, periodic registry snapshots stream to FILE every
 * --metrics-interval ticks of simulated time (docs/METRICS.md has the
 * schema); --profile adds end-of-run per-PC flat-profile rows. Feed
 * the file to snap-report for paper-style tables.
 *
 * With --scenario, a declarative scenario file (docs/SCENARIOS.md)
 * supplies everything — topology, programs, seeds, duty cycles and a
 * fault schedule — and the canonical experiment rows (trace hash +
 * counters + energy) print to stdout, byte-identical for any --jobs;
 * --row also writes them to FILE. The metrics cadence comes from the
 * scenario's metrics_ms, not --metrics-interval.
 *
 * With --flows (scenario or --nodes mode), flow-span JSONL streams to
 * FILE: one record per transmission, causally linked across nodes
 * within the scenario's flow_window_ms (docs/TRACING.md). The stream
 * is byte-identical for any --jobs; snap-trace folds it into
 * dissemination trees and latency tables.
 *
 * --fidelity selects the execution tier (docs/SIMULATOR.md): `cycle`
 * is the CHP per-access model, `fast` the statistical predecoded
 * interpreter. In scenario mode the flag overrides every node's
 * `fidelity` stanza; without it the scenario decides per node.
 * --cal loads a per-instruction-class cost table (the format
 * `snap-report --calibrate` emits) in place of the analytic fast-tier
 * coefficients.
 *
 * Checkpointing (scenario mode only, docs/CHECKPOINT.md): each
 * --save-at=MS schedules a checkpoint; its `checkpoint=` row prints
 * with the others, and with a single --save-at, --save=FILE writes
 * the byte-stable snapshot there. --restore=FILE resumes a previous
 * snapshot instead of starting at t=0 — the scenario and host knobs
 * (fidelity, cal) must match the saving run — and the continuation's
 * rows are byte-identical to the uninterrupted run's.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "asm/snap_backend.hh"
#include "core/machine.hh"
#include "energy/class_cal.hh"
#include "net/parallel_network.hh"
#include "node/power.hh"
#include "radio/transceiver.hh"
#include "scenario/runner.hh"
#include "scenario/scenario.hh"
#include "sim/args.hh"
#include "sim/ticks.hh"
#include "sim/trace.hh"
#include "snapshot/snapshot.hh"

namespace {

using namespace snaple;

/**
 * Self-rearming cadence sampler for the single-machine path (the
 * parallel harness samples at its own window barriers instead). Lives
 * on the kernel it samples; captures only `this`, so the callback fits
 * the kernel's inline event storage.
 */
struct MetricsPump
{
    core::Machine &machine;
    std::ostream &out;
    sim::Tick interval;
    sim::Tick lastAt = sim::kMaxTick;

    void
    start(double volts)
    {
        sim::MetricsRegistry::writeMetaJsonl(out, "n0", volts, interval);
        machine.ctx().kernel.scheduleAfter(interval,
                                           [this] { tick(); });
    }

    void
    tick()
    {
        sample();
        machine.ctx().kernel.scheduleAfter(interval,
                                           [this] { tick(); });
    }

    void
    sample()
    {
        machine.sampleMetrics();
        const sim::Tick t = machine.ctx().kernel.now();
        machine.ctx().metrics.writeJsonl(out, t, "n0");
        lastAt = t;
    }

    /** Final sample (unless one just landed) plus profile rows. */
    void
    finish()
    {
        if (lastAt != machine.ctx().kernel.now())
            sample();
        for (const sim::ProfileRow &row : machine.core().profileRows())
            sim::MetricsRegistry::writeProfileJsonl(out, "n0", row);
        out.flush();
    }
};

/** Parse a comma-separated voltage list ("1.8,0.9,0.6"); false if
 *  any entry is not a positive finite number. */
bool
parseVolts(const char *arg, std::vector<double> &out)
{
    out.clear();
    std::string s(arg);
    std::size_t pos = 0;
    while (pos <= s.size()) {
        std::size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        double v = 0;
        if (!sim::parseVoltsArg(s.substr(pos, comma - pos).c_str(), v))
            return false;
        out.push_back(v);
        pos = comma + 1;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace snaple;

    const char *path = nullptr;
    std::vector<double> volts{0.6};
    double ms = 100.0;
    unsigned nodes = 1;
    unsigned jobs = 1;
    std::uint64_t seed = 1;
    bool stats = false;
    bool timeline = false;
    bool profile = false;
    std::string trace_path;
    std::string trace_format = "json";
    std::string metrics_path;
    std::string flows_path;
    std::string scenario_path;
    std::string row_path;
    std::vector<double> save_at;
    std::string save_path;
    std::string restore_path;
    std::string fidelity_arg;
    std::string cal_path;
    sim::Tick metrics_interval = 10 * sim::kMillisecond;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--volts") && i + 1 < argc) {
            if (!parseVolts(argv[++i], volts))
                return sim::badArg("--volts",
                                   "comma-separated positive voltages",
                                   argv[i]);
        }
        else if (!std::strcmp(argv[i], "--fidelity") && i + 1 < argc)
            fidelity_arg = argv[++i];
        else if (!std::strncmp(argv[i], "--cal=", 6))
            cal_path = argv[i] + 6;
        else if (!std::strcmp(argv[i], "--ms") && i + 1 < argc) {
            if (!sim::parseTimeArg(argv[++i], sim::kMillisecond, ms))
                return sim::badArg("--ms", sim::kTimeArgNeeds, argv[i]);
        }
        else if (!std::strcmp(argv[i], "--nodes") && i + 1 < argc) {
            std::uint64_t v = 0;
            if (!sim::parseCountArg(argv[++i], 1, scenario::kMaxNodes, v))
                return sim::badArg("--nodes",
                                   "an integer from 1 to 1048576",
                                   argv[i]);
            nodes = static_cast<unsigned>(v);
        }
        else if (!std::strcmp(argv[i], "--jobs") && i + 1 < argc) {
            std::uint64_t v = 0;
            if (!sim::parseCountArg(argv[++i], 1, sim::kMaxJobs, v))
                return sim::badArg("--jobs", "an integer from 1 to 256",
                                   argv[i]);
            jobs = static_cast<unsigned>(v);
        }
        else if (!std::strcmp(argv[i], "--seed") && i + 1 < argc) {
            if (!sim::parseCountArg(argv[++i], 0, UINT64_MAX, seed))
                return sim::badArg("--seed",
                                   "an integer from 0 to 2^64-1",
                                   argv[i]);
        }
        else if (!std::strcmp(argv[i], "--stats"))
            stats = true;
        else if (!std::strcmp(argv[i], "--timeline"))
            timeline = true;
        else if (!std::strcmp(argv[i], "--profile"))
            profile = true;
        else if (!std::strncmp(argv[i], "--trace=", 8))
            trace_path = argv[i] + 8;
        else if (!std::strncmp(argv[i], "--trace-format=", 15))
            trace_format = argv[i] + 15;
        else if (!std::strncmp(argv[i], "--metrics=", 10))
            metrics_path = argv[i] + 10;
        else if (!std::strncmp(argv[i], "--metrics-interval=", 19)) {
            if (!sim::parseCountArg(argv[i] + 19, 1, INT64_MAX,
                                    metrics_interval))
                return sim::badArg("--metrics-interval",
                                   "an integer from 1 to 2^63-1 ticks",
                                   argv[i] + 19);
        }
        else if (!std::strncmp(argv[i], "--flows=", 8))
            flows_path = argv[i] + 8;
        else if (!std::strncmp(argv[i], "--scenario=", 11))
            scenario_path = argv[i] + 11;
        else if (!std::strncmp(argv[i], "--row=", 6))
            row_path = argv[i] + 6;
        else if (!std::strncmp(argv[i], "--save-at=", 10)) {
            double at = 0;
            if (!sim::parseTimeArg(argv[i] + 10, sim::kMillisecond, at))
                return sim::badArg("--save-at", sim::kTimeArgNeeds,
                                   argv[i] + 10);
            save_at.push_back(at);
        }
        else if (!std::strncmp(argv[i], "--save=", 7))
            save_path = argv[i] + 7;
        else if (!std::strncmp(argv[i], "--restore=", 10))
            restore_path = argv[i] + 10;
        else if (argv[i][0] == '-') {
            std::fprintf(stderr, "unknown option %s\n", argv[i]);
            return 2;
        } else
            path = argv[i];
    }
    if (!path && scenario_path.empty()) {
        std::fprintf(stderr, "usage: snap-run FILE.s | "
                             "--scenario=FILE.scn [--row=FILE] "
                             "[--volts V[,V...]] "
                             "[--ms N] [--stats] [--timeline] "
                             "[--nodes N] [--jobs K] [--seed S] "
                             "[--fidelity fast|cycle] [--cal=FILE] "
                             "[--trace=FILE] "
                             "[--trace-format=json|vcd] "
                             "[--metrics=FILE] "
                             "[--metrics-interval=TICKS] "
                             "[--flows=FILE] "
                             "[--profile] [--save-at=MS]... "
                             "[--save=FILE.snap] "
                             "[--restore=FILE.snap]\n"
                             "  N in 1..1048576, K in 1..256, "
                             "V positive, S in 0..2^64-1, "
                             "TICKS in 1..2^63-1\n");
        return 2;
    }
    if (trace_format != "json" && trace_format != "vcd") {
        std::fprintf(stderr, "unknown trace format '%s' "
                             "(expected json or vcd)\n",
                     trace_format.c_str());
        return 2;
    }
    if (!fidelity_arg.empty() && fidelity_arg != "fast" &&
        fidelity_arg != "cycle") {
        std::fprintf(stderr, "unknown fidelity '%s' "
                             "(expected fast or cycle)\n",
                     fidelity_arg.c_str());
        return 2;
    }
    if ((!save_at.empty() || !save_path.empty() ||
         !restore_path.empty()) &&
        scenario_path.empty()) {
        std::fprintf(stderr, "--save-at/--save/--restore need "
                             "--scenario\n");
        return 2;
    }
    if (!save_path.empty() && save_at.size() != 1) {
        std::fprintf(stderr, "--save=FILE needs exactly one "
                             "--save-at=MS\n");
        return 2;
    }
    const bool fast_tier = fidelity_arg == "fast";
    energy::ClassCal cal = energy::ClassCal::analytic();
    if (!cal_path.empty()) {
        std::ifstream cal_in(cal_path);
        if (!cal_in) {
            std::fprintf(stderr, "cannot open %s\n", cal_path.c_str());
            return 1;
        }
        std::ostringstream text;
        text << cal_in.rdbuf();
        try {
            cal = energy::parseClassCal(text.str());
        } catch (const sim::FatalError &e) {
            std::fprintf(stderr, "%s: %s\n", cal_path.c_str(),
                         e.what());
            return 1;
        }
    }
    if (!flows_path.empty() && scenario_path.empty() && nodes <= 1) {
        std::fprintf(stderr,
                     "--flows needs --scenario or --nodes > 1\n");
        return 2;
    }
    if (!trace_path.empty() && (!scenario_path.empty() || nodes > 1)) {
        std::fprintf(stderr, "--trace needs a single-machine run\n");
        return 2;
    }
    // "-" streams to stdout instead of a file.
    std::ofstream metrics_file, flows_file, trace_file;
    std::ostream *metrics_out = nullptr, *flows_out = nullptr,
                 *trace_out = nullptr;
    for (auto [arg, file, out] :
         {std::tuple{&metrics_path, &metrics_file, &metrics_out},
          std::tuple{&flows_path, &flows_file, &flows_out},
          std::tuple{&trace_path, &trace_file, &trace_out}}) {
        if (arg->empty())
            continue;
        *out = &std::cout;
        if (*arg == "-")
            continue;
        file->open(*arg);
        if (!*file) {
            std::fprintf(stderr, "cannot write %s\n", arg->c_str());
            return 1;
        }
        *out = file;
    }

    // A `-` stream owns stdout; the report then goes to stderr so the
    // stream pipes clean into snap-trace/snap-report.
    const bool streamed = metrics_out == &std::cout ||
                          flows_out == &std::cout || trace_out == &std::cout;
    FILE *report = streamed ? stderr : stdout;

    if (!scenario_path.empty()) {
        try {
            const scenario::Scenario sc =
                scenario::loadScenario(scenario_path);
            scenario::RunOptions opt;
            opt.jobs = jobs;
            if (!fidelity_arg.empty())
                opt.fidelityFast = fast_tier;
            if (!cal_path.empty())
                opt.classCal = cal;
            opt.metricsOut = metrics_out;
            opt.flowsOut = flows_out;
            for (std::size_t k = 0; k < save_at.size(); ++k) {
                scenario::Checkpoint ck;
                ck.atMs = save_at[k];
                if (k == 0)
                    ck.path = save_path; // empty = row only
                opt.checkpoints.push_back(ck);
            }
            snapshot::NetworkSnapshot snap;
            if (!restore_path.empty()) {
                snap = snapshot::readSnapshotFile(restore_path);
                opt.restoreFrom = &snap;
            }
            const scenario::RunResult res =
                scenario::runScenario(sc, opt);
            const std::string rows = res.rows();
            std::fputs(rows.c_str(), report);
            if (!row_path.empty()) {
                std::ofstream out(row_path);
                if (!out) {
                    std::fprintf(stderr, "cannot write %s\n",
                                 row_path.c_str());
                    return 1;
                }
                out << rows;
            }
        } catch (const sim::FatalError &e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 1;
        }
        return 0;
    }

    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n", path);
        return 1;
    }
    std::ostringstream src;
    src << in.rdbuf();

    if (nodes > 1) {
        net::ParallelNetwork net(1 * sim::kMicrosecond, jobs);
        std::uint64_t net_instructions = 0;
        double net_elapsed = 0.0;
        try {
            assembler::Program prog =
                assembler::assembleSnap(src.str(), path);
            node::NodeConfig ncfg;
            ncfg.core.stopOnHalt = false;
            ncfg.baseSeed = seed;
            ncfg.fidelity = fast_tier ? node::FidelityMode::Fast
                                      : node::FidelityMode::Cycle;
            ncfg.core.classCal = cal;
            for (unsigned i = 0; i < nodes; ++i) {
                // Round-robin over the voltage list: one file can hold
                // every operating point of a heterogeneous deployment.
                ncfg.core.volts = volts[i % volts.size()];
                ncfg.name = "n" + std::to_string(i);
                node::SnapNode &n = net.addNode(ncfg, prog);
                if (profile)
                    n.core().enableProfile(true);
            }
            net.enableTracing(/*record=*/false);
            if (metrics_out)
                net.enableMetrics(*metrics_out, metrics_interval);
            if (flows_out)
                net.enableFlows(*flows_out);
            net.start();
            auto t0 = std::chrono::steady_clock::now();
            net.runFor(sim::fromMs(ms));
            net_elapsed = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
            if (metrics_out)
                net.finishMetrics();
            if (flows_out)
                net.finishFlows();
            for (std::size_t i = 0; i < net.size(); ++i) {
                // Bring every ledger up to the final barrier: idle
                // listening and leakage accrue lazily, so a node
                // parked in Rx would otherwise report none of its
                // dominant energy cost.
                if (radio::Transceiver *t = net.node(i).transceiver())
                    t->accrueListenEnergy();
                net.node(i).ctx().accrueLeakage();
                net_instructions +=
                    net.node(i).core().stats().instructions;
            }
        } catch (const sim::FatalError &e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 1;
        }
        for (std::size_t i = 0; i < net.size(); ++i) {
            for (std::uint16_t v : net.node(i).core().debugOut())
                std::fprintf(report, "%s dbgout: %u (0x%04x)\n",
                             net.node(i).name().c_str(), v, v);
        }
        for (std::size_t i = 0; i < net.size(); ++i)
            std::fprintf(report, "%s: trace hash 0x%016llx, seed 0x%04x\n",
                         net.node(i).name().c_str(),
                         static_cast<unsigned long long>(
                             net.nodeTraceHash(i)),
                         static_cast<unsigned>(
                             net.node(i).derivedSeed() & 0xffff));
        if (stats) {
            const auto &air = net.stats();
            std::fprintf(report, "--\n");
            std::fprintf(report, "air          : %llu sent, %llu delivered, "
                         "%llu collided, drops %llu mode / %llu fifo\n",
                         static_cast<unsigned long long>(air.wordsSent),
                         static_cast<unsigned long long>(
                             air.wordsDelivered),
                         static_cast<unsigned long long>(
                             air.collisions),
                         static_cast<unsigned long long>(air.dropsMode),
                         static_cast<unsigned long long>(
                             air.dropsFifo));
            double total_pj = 0.0;
            for (std::size_t i = 0; i < net.size(); ++i)
                total_pj += net.node(i).ctx().ledger.totalPj();
            std::fprintf(report, "energy       : %.2f uJ total across %u "
                         "nodes\n",
                         total_pj / 1e6, nodes);
            std::fprintf(report, "events       : %llu across %u shards, "
                         "%u lane%s, window %.1f us\n",
                         static_cast<unsigned long long>(
                             net.eventsDispatched()),
                         nodes, jobs, jobs == 1 ? "" : "s",
                         sim::toUs(net.window()));
            if (net_elapsed > 0.0)
                std::fprintf(report, "host speed   : %.0f instr/sec (%.2f s "
                             "host)\n",
                             double(net_instructions) / net_elapsed,
                             net_elapsed);
        }
        return 0;
    }

    core::CoreConfig cfg;
    cfg.volts = volts.front();
    cfg.classCal = cal;
    sim::Kernel kernel;
    sim::TraceSink tracer;
    if (trace_out)
        kernel.setTracer(&tracer);
    core::Machine machine(kernel, cfg);
    machine.core().recordTimeline(timeline);
    if (profile)
        machine.core().enableProfile(true);
    MetricsPump pump{machine, metrics_out ? *metrics_out : std::cout,
                     metrics_interval};
    double elapsed = 0.0;
    try {
        machine.load(assembler::assembleSnap(src.str(), path));
        if (!metrics_path.empty())
            pump.start(cfg.volts);
        machine.start(fast_tier ? core::FidelityMode::Fast
                                : core::FidelityMode::Cycle);
        auto t0 = std::chrono::steady_clock::now();
        kernel.run(kernel.now() + sim::fromMs(ms));
        elapsed = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
        if (!metrics_path.empty())
            pump.finish();
    } catch (const sim::FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }

    for (std::uint16_t v : machine.core().debugOut())
        std::fprintf(report, "dbgout: %u (0x%04x)\n", v, v);

    if (trace_out) {
        if (trace_format == "vcd")
            tracer.writeVcd(*trace_out);
        else
            tracer.writeChromeJson(*trace_out);
        trace_out->flush();
        std::fprintf(report, "trace: %llu events, hash 0x%016llx -> %s\n",
                     static_cast<unsigned long long>(
                         tracer.eventCount()),
                     static_cast<unsigned long long>(tracer.hash()),
                     trace_path.c_str());
    }

    if (stats) {
        const auto &st = machine.core().stats();
        machine.ctx().accrueLeakage();
        const auto &l = machine.ctx().ledger;
        std::fprintf(report, "--\n");
        std::fprintf(report, "state        : %s\n",
                     machine.core().halted()
                         ? "halted"
                         : (machine.core().asleep() ? "asleep"
                                                    : "running"));
        std::fprintf(report, "instructions : %llu\n",
                     static_cast<unsigned long long>(st.instructions));
        std::fprintf(report, "handlers     : %llu (sleep/wake %llu/%llu)\n",
                     static_cast<unsigned long long>(st.handlers),
                     static_cast<unsigned long long>(st.sleeps),
                     static_cast<unsigned long long>(st.wakeups));
        std::fprintf(report, "active time  : %.2f us\n",
                     sim::toUs(st.activeTime));
        if (elapsed > 0.0)
            std::fprintf(report,
                         "host speed   : %.0f instr/sec (%.2f s host)\n",
                         double(st.instructions) / elapsed, elapsed);
        if (st.instructions) {
            std::fprintf(report, "energy       : %.1f nJ dynamic "
                         "(%.1f pJ/ins), %.1f nJ leakage\n",
                         l.processorPj() / 1e3,
                         l.processorPj() / double(st.instructions),
                         l.pj(energy::Cat::Leakage) / 1e3);
        }
        std::fprintf(report, "avg power    : %.1f nW dynamic + %.1f nW leak\n",
                     node::averagePowerNw(l.processorPj(),
                                          kernel.now()),
                     node::averagePowerNw(l.pj(energy::Cat::Leakage),
                                          kernel.now()));
        static const char *kEventNames[] = {
            "Timer0", "Timer1", "Timer2",   "RadioRx",
            "SensorIrq", "SensorData", "RadioTxRdy"};
        for (std::size_t e = 0; e < isa::kNumEvents; ++e) {
            const auto &h = st.perEvent[e];
            if (h.activations == 0)
                continue;
            std::fprintf(report, "handler %-10s: %llu activations, "
                         "%.1f ins each\n",
                         kEventNames[e],
                         static_cast<unsigned long long>(h.activations),
                         h.instructionsPerActivation());
        }
    }
    if (timeline) {
        std::fprintf(report, "-- activity timeline (wake .. sleep) --\n");
        for (const auto &span : machine.core().timeline()) {
            std::string what =
                span.firstEvent == 0xff
                    ? std::string("boot")
                    : "event " + std::to_string(span.firstEvent);
            std::fprintf(report, "%10.3f us .. %10.3f us  (%6.2f us awake)  "
                         "%s\n",
                         sim::toUs(span.wake), sim::toUs(span.sleep),
                         sim::toUs(span.sleep - span.wake),
                         what.c_str());
        }
    }
    return 0;
}
