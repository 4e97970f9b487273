/**
 * @file
 * snap-report: fold a snap-run metrics file into paper-style tables.
 *
 * Usage: snap-report FILE.jsonl [--folded] [--validate] [--calibrate]
 *                               [--energest]
 *
 * Reads the JSONL metrics stream written by `snap-run --metrics=FILE`
 * (schema in docs/METRICS.md) — FILE may be `-` for stdin — through
 * the shared stream reader (obs/jsonl.hh) and prints:
 *
 *  - a per-node run summary (instructions, handlers, duty cycle),
 *  - dynamic energy by ledger category by supply voltage, the shape of
 *    the paper's section 4.4 energy table (nodes sharing a voltage are
 *    summed; run snap-run with --volts 1.8,0.9,0.6 to get all three
 *    operating points from one file),
 *  - the committed instruction mix by ISA class,
 *  - handler dispatch-latency percentiles (enqueue-to-dispatch wait)
 *    from the merged "all" histograms, rebuilt bucket-for-bucket so
 *    the percentile estimator is the simulator's own,
 *  - air/radio channel totals.
 *
 * --folded instead emits the end-of-run per-PC profile (snap-run
 * --profile) as collapsed stacks — `node;handler;0x<pc> <ticks>` — the
 * format speedscope and flamegraph.pl ingest directly.
 *
 * --validate parses every line strictly and exits nonzero on the
 * first malformed one (CI smoke uses this).
 *
 * --energest prints the component duty ledger (docs/METRICS.md,
 * "Energest duty gauges"): per-component duty-cycle percentage and
 * attributed energy, summed over the nodes at each supply voltage —
 * the energest-style table Contiki prints, rebuilt from the
 * energest.* gauges the simulator streams.
 *
 * --calibrate fits a fast-tier cost table (energy::ClassCal, the
 * format `snap-run --cal=FILE` loads) from the cycle tier's measured
 * per-class retire counters: for every ISA class with samples, the
 * mean retire-to-retire latency becomes the class's gate-delay
 * coefficient (ticks / gateDelay(node volts), so tables fitted at
 * different supplies agree) and the mean charged energy, de-scaled by
 * (V/1.8)^2 back to nominal, becomes its pJ total, distributed over
 * ledger categories in the analytic model's proportions. Classes the
 * run never executed keep their analytic coefficients. The table
 * prints to stdout; feed a cycle-fidelity metrics file, since fast-
 * tier runs would just echo the coefficients they were charged with.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "energy/class_cal.hh"
#include "energy/voltage.hh"
#include "isa/isa.hh"
#include "obs/jsonl.hh"
#include "sim/logging.hh"
#include "sim/metrics.hh"
#include "sim/ticks.hh"

namespace {

using namespace snaple;

/**
 * One parsed sample line. Histograms restore into the simulator's own
 * type, so percentiles come from its deterministic estimator.
 */
struct Sample
{
    std::string type; ///< "counter" | "gauge" | "hist"
    double v = 0.0;
    sim::MetricHistogram hist;
};

struct NodeData
{
    double volts = 0.0;
    bool hasMeta = false;
    std::map<std::string, Sample> last; ///< name -> latest sample
};

struct ProfileLine
{
    std::string node, handler;
    std::uint64_t pc = 0, count = 0, ticks = 0;
    double pj = 0.0;
};

struct Report
{
    std::map<std::string, NodeData> nodes;
    std::vector<ProfileLine> profiles;
    std::uint64_t sampleLines = 0;
    std::uint64_t lastT = 0;

    /** Fold one record in; a FatalError (file:line, key) if malformed. */
    void
    add(const obs::JsonlRecord &rec)
    {
        const std::string &kind = rec.str("kind");
        if (kind == "meta") {
            NodeData &nd = nodes[rec.str("node")];
            nd.volts = rec.f64("volts");
            nd.hasMeta = true;
        } else if (kind == "sample") {
            Sample s;
            s.type = rec.str("type");
            const std::uint64_t t = rec.u64("t");
            if (s.type == "counter" || s.type == "gauge") {
                s.v = rec.f64("v");
            } else if (s.type == "hist") {
                s.hist.restore(rec.u64("count"), rec.u64("sum"),
                               rec.u64("min"), rec.u64("max"),
                               rec.buckets("buckets",
                                           sim::MetricHistogram::kNumBuckets));
            } else {
                rec.fail("type", "unknown sample type " + s.type);
            }
            nodes[rec.str("node")].last[rec.str("name")] = std::move(s);
            ++sampleLines;
            lastT = std::max(lastT, t);
        } else if (kind == "profile") {
            ProfileLine p;
            p.node = rec.str("node");
            p.handler = rec.str("handler");
            p.pc = rec.u64("pc");
            p.count = rec.u64("count");
            p.ticks = rec.u64("ticks");
            p.pj = rec.f64("pj");
            profiles.push_back(std::move(p));
        } else {
            rec.fail("kind", "unknown kind " + kind);
        }
    }

    double
    value(const std::string &node, const std::string &name) const
    {
        auto n = nodes.find(node);
        if (n == nodes.end())
            return 0.0;
        auto s = n->second.last.find(name);
        return s == n->second.last.end() ? 0.0 : s->second.v;
    }
};

/** A node row is a real node iff it carried a meta line. */
bool
isRealNode(const std::pair<const std::string, NodeData> &kv)
{
    return kv.second.hasMeta;
}

void
printSummary(const Report &r)
{
    std::printf("run: %llu sample lines, %zu node(s), last sample at "
                "%.3f ms\n\n",
                static_cast<unsigned long long>(r.sampleLines),
                static_cast<std::size_t>(std::count_if(
                    r.nodes.begin(), r.nodes.end(), isRealNode)),
                double(r.lastT) / 1e9);
    std::printf("%-6s %7s %14s %10s %10s %10s\n", "node", "volts",
                "instructions", "handlers", "sleeps", "duty");
    for (const auto &[name, nd] : r.nodes) {
        if (!nd.hasMeta)
            continue;
        std::printf("%-6s %7.2f %14.0f %10.0f %10.0f %9.4f%%\n",
                    name.c_str(), nd.volts,
                    r.value(name, "core.instructions"),
                    r.value(name, "core.handlers"),
                    r.value(name, "core.sleeps"),
                    100.0 * r.value(name, "core.duty_cycle"));
    }
    std::printf("\n");
}

void
printEnergyByVoltage(const Report &r)
{
    // Columns: distinct supply voltages, descending (1.8, 0.9, 0.6).
    std::set<double, std::greater<double>> voltSet;
    for (const auto &kv : r.nodes)
        if (kv.second.hasMeta)
            voltSet.insert(kv.second.volts);
    if (voltSet.empty())
        return;
    std::vector<double> volts(voltSet.begin(), voltSet.end());

    // Rows: every energy.<cat>_pj gauge seen on any real node.
    std::set<std::string> cats;
    for (const auto &[name, nd] : r.nodes) {
        if (!nd.hasMeta)
            continue;
        for (const auto &[metric, s] : nd.last)
            if (metric.rfind("energy.", 0) == 0)
                cats.insert(metric);
    }
    if (cats.empty())
        return;

    std::printf("dynamic + leakage energy by category (nJ, summed "
                "over nodes at each supply)\n");
    std::printf("%-12s", "category");
    for (double v : volts)
        std::printf(" %11.2f V", v);
    std::printf("\n");
    std::vector<double> totals(volts.size(), 0.0);
    for (const std::string &cat : cats) {
        // "energy.datapath_pj" -> "datapath"
        std::string label = cat.substr(7, cat.size() - 7 - 3);
        std::printf("%-12s", label.c_str());
        for (std::size_t c = 0; c < volts.size(); ++c) {
            double pj = 0.0;
            for (const auto &[name, nd] : r.nodes)
                if (nd.hasMeta && nd.volts == volts[c])
                    pj += r.value(name, cat);
            totals[c] += pj;
            std::printf(" %13.2f", pj / 1e3);
        }
        std::printf("\n");
    }
    std::printf("%-12s", "total");
    for (double t : totals)
        std::printf(" %13.2f", t / 1e3);
    std::printf("\n\n");
}

/**
 * The energest duty table: per-component duty % (accrued ticks over
 * the run's final sample instant, averaged over the nodes at each
 * supply) and attributed energy. Exit status 1 when the file carries
 * no energest gauges at all.
 */
int
printEnergest(const Report &r)
{
    std::set<double, std::greater<double>> voltSet;
    std::map<double, std::size_t> nodesAt;
    for (const auto &kv : r.nodes)
        if (kv.second.hasMeta) {
            voltSet.insert(kv.second.volts);
            ++nodesAt[kv.second.volts];
        }
    if (voltSet.empty() || r.lastT == 0) {
        std::fprintf(stderr, "no node meta lines or samples — not a "
                             "snap-run metrics file?\n");
        return 1;
    }
    std::vector<double> volts(voltSet.begin(), voltSet.end());

    static const char *kComps[] = {"cpu_active", "cpu_sleep",
                                   "radio_tx",   "radio_listen",
                                   "radio_off",  "timer",
                                   "sensor",     "msg"};
    bool any = false;
    for (const char *comp : kComps)
        for (const auto &[name, nd] : r.nodes)
            if (nd.hasMeta &&
                nd.last.count("energest." + std::string(comp) +
                              "_ticks"))
                any = true;
    if (!any) {
        std::fprintf(stderr,
                     "no energest.* gauges — run a build with the "
                     "duty ledger (docs/METRICS.md) first\n");
        return 1;
    }

    std::printf("energest component duty and attributed energy "
                "(per supply; duty averaged, nJ summed over nodes)\n");
    std::printf("%-14s", "component");
    for (double v : volts)
        std::printf("   %4.2fV duty %9s", v, "nJ");
    std::printf("\n");
    for (const char *comp : kComps) {
        const std::string ticksName =
            "energest." + std::string(comp) + "_ticks";
        const std::string pjName =
            "energest." + std::string(comp) + "_pj";
        std::printf("%-14s", comp);
        for (double v : volts) {
            double ticks = 0.0, pj = 0.0;
            bool hasPj = false;
            for (const auto &[name, nd] : r.nodes) {
                if (!nd.hasMeta || nd.volts != v)
                    continue;
                ticks += r.value(name, ticksName);
                if (nd.last.count(pjName)) {
                    hasPj = true;
                    pj += r.value(name, pjName);
                }
            }
            const double duty =
                ticks / (double(nodesAt.at(v)) * double(r.lastT));
            std::printf("   %9.4f%%", 100.0 * duty);
            // The core's active/sleep split has no attributed pJ
            // gauge (the ledger's category table covers it).
            if (hasPj)
                std::printf(" %9.2f", pj / 1e3);
            else
                std::printf(" %9s", "-");
        }
        std::printf("\n");
    }
    std::printf("\n");
    return 0;
}

void
printInstructionMix(const Report &r)
{
    // The "all" aggregate holds the summed per-class counters.
    auto all = r.nodes.find("all");
    const NodeData *src = all != r.nodes.end() ? &all->second : nullptr;
    if (!src) {
        // Single-machine files have exactly one node and no aggregate.
        for (const auto &kv : r.nodes)
            if (kv.second.hasMeta)
                src = &kv.second;
    }
    if (!src)
        return;
    double total = 0.0;
    std::vector<std::pair<std::string, double>> classes;
    for (const auto &[metric, s] : src->last)
        if (metric.rfind("core.class.", 0) == 0 && s.v > 0) {
            classes.emplace_back(metric.substr(11), s.v);
            total += s.v;
        }
    if (classes.empty() || total == 0.0)
        return;
    std::sort(classes.begin(), classes.end(),
              [](const auto &a, const auto &b) {
                  return a.second != b.second ? a.second > b.second
                                              : a.first < b.first;
              });
    std::printf("instruction mix (all nodes)\n");
    for (const auto &[cls, n] : classes)
        std::printf("%-14s %12.0f  %5.1f%%\n", cls.c_str(), n,
                    100.0 * n / total);
    std::printf("\n");
}

void
printLatency(const Report &r)
{
    auto all = r.nodes.find("all");
    const NodeData *src = all != r.nodes.end() ? &all->second : nullptr;
    if (!src)
        for (const auto &kv : r.nodes)
            if (kv.second.hasMeta)
                src = &kv.second;
    if (!src)
        return;
    bool any = false;
    for (const auto &[metric, s] : src->last) {
        if (metric.rfind("core.evq_wait_ticks", 0) != 0 ||
            s.type != "hist" || s.hist.count() == 0)
            continue;
        if (!any) {
            std::printf("handler dispatch latency, enqueue to "
                        "dispatch (us)\n");
            std::printf("%-28s %9s %8s %8s %8s %8s\n", "event",
                        "samples", "p50", "p90", "p99", "max");
            any = true;
        }
        const sim::MetricHistogram &h = s.hist;
        std::string label = metric == "core.evq_wait_ticks"
                                ? "(all events)"
                                : metric.substr(20);
        std::printf("%-28s %9llu %8.2f %8.2f %8.2f %8.2f\n",
                    label.c_str(),
                    static_cast<unsigned long long>(h.count()),
                    h.percentile(50) / 1e6, h.percentile(90) / 1e6,
                    h.percentile(99) / 1e6, double(h.max()) / 1e6);
    }
    if (any)
        std::printf("\n");
}

void
printAir(const Report &r)
{
    auto net = r.nodes.find("net");
    if (net == r.nodes.end())
        return;
    std::printf("air: %.0f words sent, %.0f delivered, %.0f collided\n",
                r.value("net", "air.words_sent"),
                r.value("net", "air.words_delivered"),
                r.value("net", "air.collisions"));
}

/**
 * Fit a ClassCal from the per-class retire counters (file comment has
 * the conversion). Returns the exit status: 1 when the file carries no
 * per-class samples at all (wrong kind of metrics file).
 */
int
printCalibration(const Report &r)
{
    const energy::VoltageModel vm;
    energy::ClassCal cal = energy::ClassCal::analytic();
    bool any = false;
    for (std::size_t c = 0; c < isa::kNumClasses; ++c) {
        const std::string base =
            std::string("core.class.") +
            isa::classSlug(static_cast<isa::InstrClass>(c));
        // Sum over real nodes (not the "all" aggregate, which carries
        // no meta line and hence no voltage to de-scale with).
        double count = 0.0, gdSum = 0.0, pjSum = 0.0;
        for (const auto &[name, nd] : r.nodes) {
            if (!nd.hasMeta)
                continue;
            const double n = r.value(name, base);
            if (n <= 0.0)
                continue;
            count += n;
            gdSum += r.value(name, base + ".ticks") /
                     double(vm.gateDelay(nd.volts));
            pjSum += r.value(name, base + ".pj") /
                     vm.energyFactor(nd.volts);
        }
        if (count <= 0.0)
            continue;
        any = true;
        energy::ClassCost &cc = cal.cost[c];
        const double analyticPj = cc.pjTotal();
        const double measuredPj = pjSum / count;
        if (analyticPj > 0.0) {
            // Keep the analytic split across ledger categories; the
            // measurement pins only the per-class total.
            const double scale = measuredPj / analyticPj;
            for (double &pj : cc.pj)
                pj *= scale;
        } else {
            cc.pj.fill(0.0);
            cc.pj[std::size_t(energy::Cat::Misc)] = measuredPj;
        }
        cc.gd = gdSum / count;
    }
    if (!any) {
        std::fprintf(stderr,
                     "no core.class.* samples — run snap-run with "
                     "--metrics= at cycle fidelity first\n");
        return 1;
    }
    std::fputs(energy::serializeClassCal(cal).c_str(), stdout);
    return 0;
}

void
printFolded(const Report &r)
{
    // Collapsed-stack form: one line per (node, handler, pc), weight =
    // attributed ticks. speedscope and flamegraph.pl read this as-is.
    for (const ProfileLine &p : r.profiles)
        std::printf("%s;%s;0x%04llx %llu\n", p.node.c_str(),
                    p.handler.c_str(),
                    static_cast<unsigned long long>(p.pc),
                    static_cast<unsigned long long>(p.ticks));
}

} // namespace

int
main(int argc, char **argv)
{
    const char *path = nullptr;
    bool folded = false;
    bool validate = false;
    bool calibrate = false;
    bool energest = false;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--folded"))
            folded = true;
        else if (!std::strcmp(argv[i], "--validate"))
            validate = true;
        else if (!std::strcmp(argv[i], "--calibrate"))
            calibrate = true;
        else if (!std::strcmp(argv[i], "--energest"))
            energest = true;
        else if (argv[i][0] == '-' && argv[i][1] != '\0') {
            std::fprintf(stderr, "unknown option %s\n", argv[i]);
            return 2;
        } else
            path = argv[i];
    }
    if (!path) {
        std::fprintf(stderr, "usage: snap-report FILE.jsonl "
                             "[--folded] [--validate] [--calibrate] "
                             "[--energest]\n"
                             "FILE may be - for stdin\n");
        return 2;
    }
    Report report;
    std::uint64_t lines = 0;
    try {
        lines = obs::readJsonl(
            path, [&](const obs::JsonlRecord &rec) { report.add(rec); });
    } catch (const sim::FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
    if (report.sampleLines == 0) {
        std::fprintf(stderr, "%s: no sample lines\n", path);
        return 1;
    }
    if (validate) {
        std::printf("%s: %llu lines ok (%llu samples, %zu profile "
                    "rows)\n",
                    path, static_cast<unsigned long long>(lines),
                    static_cast<unsigned long long>(
                        report.sampleLines),
                    report.profiles.size());
        return 0;
    }
    if (calibrate)
        return printCalibration(report);
    if (energest)
        return printEnergest(report);
    if (folded) {
        printFolded(report);
        return 0;
    }
    printSummary(report);
    printEnergyByVoltage(report);
    printInstructionMix(report);
    printLatency(report);
    printAir(report);
    return 0;
}
