#include "scenario/runner.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <map>
#include <memory>
#include <sstream>

#include "asm/snap_backend.hh"
#include "net/parallel_network.hh"
#include "node/node.hh"
#include "sensor/sensor.hh"
#include "sim/fnv.hh"
#include "sim/logging.hh"
#include "sim/metrics.hh"
#include "sim/rng.hh"
#include "snapshot/snapshot.hh"

namespace snaple::scenario {

namespace {

/** Sensor seed stream tag ("SENS" | node id), distinct from the
 *  guest LFSR streams keyed directly on node ids. */
constexpr std::uint64_t kSensorStream = 0x53454e5300000000ull;

sim::Tick
msToTicks(double ms)
{
    return static_cast<sim::Tick>(
        std::llround(ms * double(sim::kMillisecond)));
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    sim::fatalIf(!in, "cannot open program file ", path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** `.equ` prolog + source, cached per (path, params) combination. */
class ProgramCache
{
  public:
    ProgramCache(const Scenario &sc, const RunOptions &opt)
        : sc_(sc), opt_(opt)
    {}

    const assembler::Program &
    get(const NodeSettings &ns)
    {
        std::ostringstream key;
        key << *ns.program;
        for (const auto &[k, v] : ns.params)
            key << '\0' << k << '=' << v;
        const auto it = programs_.find(key.str());
        if (it != programs_.end())
            return it->second;

        std::ostringstream src;
        for (const auto &[k, v] : ns.params)
            src << ".equ " << k << ", " << v << "\n";
        src << source(*ns.program);
        return programs_
            .emplace(key.str(),
                     assembler::assembleSnap(src.str(), *ns.program))
            .first->second;
    }

  private:
    const std::string &
    source(const std::string &path)
    {
        const auto it = sources_.find(path);
        if (it != sources_.end())
            return it->second;
        std::string text;
        if (opt_.loadSource)
            text = opt_.loadSource(path);
        else if (!path.empty() && path[0] == '/')
            text = readFile(path);
        else if (sc_.baseDir.empty())
            text = readFile(path);
        else
            text = readFile(sc_.baseDir + "/" + path);
        return sources_.emplace(path, std::move(text)).first->second;
    }

    const Scenario &sc_;
    const RunOptions &opt_;
    std::map<std::string, std::string> sources_;
    std::map<std::string, assembler::Program> programs_;
};

/** FNV-1a over @p v's eight little-endian bytes, continuing from @p h. */
std::uint64_t
fnvFold(std::uint64_t h, std::uint64_t v)
{
    unsigned char le[8];
    for (unsigned i = 0; i < 8; ++i)
        le[i] = static_cast<unsigned char>(v >> (8 * i));
    return sim::fnv1a64(le, sizeof le, h);
}

std::string
hex16(std::uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << std::setw(16) << std::setfill('0') << v;
    return os.str();
}

} // namespace

std::string
RunResult::row() const
{
    std::size_t deaths = 0, dbg = 0;
    double energyPj = 0;
    for (const NodeOutcome &o : outcomes) {
        deaths += o.dead ? 1 : 0;
        dbg += o.dbgWords;
        energyPj += o.energyPj;
    }
    std::ostringstream os;
    os << "scenario=" << scenario << " nodes=" << nodes
       << " topology=" << topology << " seed=" << seed
       << " duration_ms=" << sim::formatDouble(durationMs)
       << " trace=" << hex16(combinedTraceHash)
       << " sent=" << air.wordsSent
       << " delivered=" << air.wordsDelivered
       << " collisions=" << air.collisions
       << " drops_link=" << dropsLink << " drops_dead=" << dropsDead
       << " drops_mode=" << air.dropsMode
       << " drops_fifo=" << air.dropsFifo
       << " rx_in_range=" << rxInRange
       << " pending=" << pendingFlights
       << " pending_rx=" << pendingDeliveries << " deaths=" << deaths
       << " dbg=" << dbg
       << " energy_uj=" << sim::formatDouble(energyPj / 1e6);
    return os.str();
}

std::string
RunResult::rows() const
{
    std::ostringstream os;
    os << row() << "\n";
    for (const NodeOutcome &o : outcomes)
        os << "node=" << o.name << " trace=" << hex16(o.traceHash)
           << " dead=" << (o.dead ? 1 : 0) << " death_ms="
           << sim::formatDouble(double(o.deathAt) /
                                double(sim::kMillisecond))
           << " dbg=" << o.dbgWords << " energy_uj="
           << sim::formatDouble(o.energyPj / 1e6) << "\n";
    for (const CheckpointRow &c : checkpoints)
        os << "checkpoint=" << sim::formatDouble(c.requestedMs)
           << " at_ms="
           << sim::formatDouble(double(c.at) /
                                double(sim::kMillisecond))
           << " trace=" << hex16(c.trace) << "\n";
    return os.str();
}

RunResult
runScenario(const Scenario &sc, const RunOptions &opt)
{
    ProgramCache programs(sc, opt);

    const sim::Tick propagation = static_cast<sim::Tick>(
        std::llround(sc.propagationUs * double(sim::kMicrosecond)));
    net::ParallelNetwork net(propagation, opt.jobs);

    std::vector<std::unique_ptr<sensor::TemperatureSensor>> sensors(
        sc.nodes);
    std::vector<double> capacityPj(sc.nodes, 0.0);
    for (std::size_t i = 0; i < sc.nodes; ++i) {
        const NodeSettings ns = sc.resolved(i);
        node::NodeConfig cfg;
        cfg.name = "n" + std::to_string(i);
        cfg.baseSeed = sc.seed;
        if (ns.volts)
            cfg.core.volts = *ns.volts;
        const bool fast = opt.fidelityFast
                              ? *opt.fidelityFast
                              : ns.fidelityFast.value_or(false);
        cfg.fidelity = fast ? node::FidelityMode::Fast
                            : node::FidelityMode::Cycle;
        if (opt.classCal)
            cfg.core.classCal = *opt.classCal;
        node::SnapNode &node = net.addNode(cfg, programs.get(ns));
        if (ns.sensor && *ns.sensor) {
            sensor::TemperatureSensor::Config scfg;
            scfg.seed = sim::deriveSeed(sc.seed, kSensorStream | i);
            sensors[i] =
                std::make_unique<sensor::TemperatureSensor>(scfg);
            node.attachSensor(0, *sensors[i]);
        }
        if (ns.batteryUj && *ns.batteryUj > 0)
            capacityPj[i] = *ns.batteryUj * 1e6; // uJ -> pJ
    }

    if (sc.field) {
        // Spatial mode: connectivity comes from positions and path
        // loss; topology is "full" by validation, so no link filter.
        net.setField(*sc.field);
        for (std::size_t i = 0; i < sc.nodes; ++i) {
            const std::pair<double, double> p =
                *sc.resolved(i).position;
            net.setNodePosition(i, p.first, p.second);
        }
    } else if (sc.topology == "line") {
        net.setLineTopology();
    } else if (sc.topology == "ring") {
        const std::size_t n = sc.nodes;
        net.setLinkFilter([n](std::size_t s, std::size_t d) {
            const std::size_t diff = s > d ? s - d : d - s;
            return diff == 1 || diff == n - 1;
        });
    }

    net.enableTracing(false);
    if (sc.windowUs > 0)
        net.setWindow(static_cast<sim::Tick>(
            std::llround(sc.windowUs * double(sim::kMicrosecond))));
    const sim::Tick metricsTick = msToTicks(sc.metricsMs);
    const bool metrics = opt.metricsOut && metricsTick > 0;
    if (metrics)
        net.enableMetrics(*opt.metricsOut, metricsTick);
    // The causality window is tracker state — snapshot content — so
    // it is applied whether or not a span stream is attached; a run
    // with --flows and one without produce identical snapshots.
    net.setFlowWindow(msToTicks(sc.flowWindowMs));
    if (opt.flowsOut)
        net.enableFlows(*opt.flowsOut);

    // Battery depletion: at every barrier, bring each metered node's
    // ledger up to date (idle listening + leakage accrue lazily) and
    // kill it the first time the capacity is spent. Barrier instants
    // are jobs-invariant, so depletion kills are too. Only installed
    // when some node is actually metered: a barrier hook pins the
    // full window grid (no radio-quiet fast-forward), which unmetered
    // runs shouldn't pay for.
    const bool metered = std::any_of(
        capacityPj.begin(), capacityPj.end(),
        [](double c) { return c > 0; });
    if (metered)
        net.setBarrierHook([&](sim::Tick) {
            for (std::size_t i = 0; i < sc.nodes; ++i) {
                if (capacityPj[i] <= 0 || net.nodeDead(i))
                    continue;
                node::SnapNode &node = net.node(i);
                if (radio::Transceiver *t = node.transceiver())
                    t->accrueListenEnergy();
                node.ctx().accrueLeakage();
                if (node.ctx().ledger.totalPj() >= capacityPj[i])
                    net.killNode(i);
            }
        });

    // Resume from a snapshot (sensors first — their RNG streams are
    // host-side state the network snapshot carries for the runner) or
    // start fresh at t=0.
    sim::Tick startTick = 0;
    if (opt.restoreFrom) {
        const snapshot::NetworkSnapshot &snap = *opt.restoreFrom;
        for (std::size_t i = 0; i < sc.nodes; ++i)
            if (sensors[i] && i < snap.userRng.size() &&
                snap.userRng[i] != 0)
                sensors[i]->setRngState(snap.userRng[i]);
        net.restore(snap);
        startTick = snap.snapTick;
    } else {
        net.start();
    }

    RunResult res;
    res.scenario = sc.name;
    res.nodes = sc.nodes;
    res.topology = sc.topology;
    res.seed = sc.seed;
    res.durationMs = sc.durationMs;
    res.outcomes.resize(sc.nodes);

    // Quantize faults and checkpoints to the barrier grid; both are
    // applied between runFor() segments with every shard paused at
    // that tick, faults first at a shared barrier (a checkpoint sees
    // its barrier's faults, and a restored run replays only the
    // schedule tail past the snapshot). Checkpoints that land on an
    // ineligible barrier slide to the next one (docs/CHECKPOINT.md).
    const sim::Tick w = net.window();
    const sim::Tick duration = msToTicks(sc.durationMs);
    std::map<sim::Tick, std::vector<Fault>> faultsAt;
    for (const Fault &f : sc.faults) {
        const sim::Tick raw = msToTicks(f.atMs);
        const sim::Tick at = (raw + w - 1) / w * w;
        if (at > duration)
            continue;
        if (opt.restoreFrom && at <= startTick)
            continue;
        faultsAt[at].push_back(f);
    }
    std::map<sim::Tick, std::vector<Checkpoint>> cksAt;
    const auto scheduleCheckpoint = [&](const Checkpoint &ck) {
        sim::fatalIf(ck.atMs > sc.durationMs, "checkpoint at_ms ",
                     sim::formatDouble(ck.atMs),
                     " is past the run end (",
                     sim::formatDouble(sc.durationMs), " ms)");
        const sim::Tick raw = msToTicks(ck.atMs);
        const sim::Tick at =
            std::min(duration, raw == 0 ? w : (raw + w - 1) / w * w);
        if (!opt.restoreFrom || at > startTick)
            cksAt[at].push_back(ck);
    };
    for (const Checkpoint &ck : sc.checkpoints)
        scheduleCheckpoint(ck);
    for (const Checkpoint &ck : opt.checkpoints)
        scheduleCheckpoint(ck);

    sim::Tick now = startTick;
    while (now < duration || !faultsAt.empty() || !cksAt.empty()) {
        sim::Tick next = duration;
        if (!faultsAt.empty())
            next = std::min(next, faultsAt.begin()->first);
        if (!cksAt.empty())
            next = std::min(next, cksAt.begin()->first);
        if (next > now) {
            net.runFor(next - now);
            now = next;
        }
        if (!faultsAt.empty() && faultsAt.begin()->first <= now) {
            for (const Fault &f : faultsAt.begin()->second) {
                switch (f.kind) {
                  case Fault::Kind::Kill:
                    net.killNode(f.a);
                    break;
                  case Fault::Kind::LinkDown:
                    net.setLinkUp(f.a, f.b, false);
                    break;
                  case Fault::Kind::LinkUp:
                    net.setLinkUp(f.a, f.b, true);
                    break;
                }
            }
            faultsAt.erase(faultsAt.begin());
        }
        if (!cksAt.empty() && cksAt.begin()->first <= now) {
            std::vector<Checkpoint> due =
                std::move(cksAt.begin()->second);
            cksAt.erase(cksAt.begin());
            if (!net.checkpointEligible()) {
                sim::fatalIf(
                    now >= duration,
                    "checkpoint still ineligible at the end of the "
                    "run; extend the duration past the next barrier");
                std::vector<Checkpoint> &dst =
                    cksAt[std::min(now + w, duration)];
                dst.insert(dst.begin(), due.begin(), due.end());
            } else {
                snapshot::NetworkSnapshot snap = net.checkpoint();
                for (std::size_t i = 0; i < sc.nodes; ++i)
                    if (sensors[i])
                        snap.userRng[i] = sensors[i]->rngState();
                std::uint64_t trace = sim::kFnvOffset;
                for (const snapshot::NodeState &n : snap.nodes)
                    trace = fnvFold(trace, n.traceHash);
                for (const Checkpoint &ck : due) {
                    res.checkpoints.push_back(
                        CheckpointRow{ck.atMs, now, trace, ck.path});
                    if (!ck.path.empty())
                        snapshot::writeSnapshotFile(snap, ck.path);
                    if (opt.onCheckpoint)
                        opt.onCheckpoint(snap, ck);
                }
            }
        }
    }
    if (metrics)
        net.finishMetrics();
    if (opt.flowsOut)
        net.finishFlows();

    std::uint64_t combined = sim::kFnvOffset;
    for (std::size_t i = 0; i < sc.nodes; ++i) {
        node::SnapNode &node = net.node(i);
        NodeOutcome &o = res.outcomes[i];
        o.name = node.name();
        o.dead = net.nodeDead(i);
        o.deathAt = net.nodeDeathAt(i);
        // Bring the ledger up to the node's final instant (its death
        // barrier when dead — the frozen kernel pins now() there).
        if (radio::Transceiver *t = node.transceiver())
            t->accrueListenEnergy();
        node.ctx().accrueLeakage();
        o.energyPj = node.ctx().ledger.totalPj();
        o.dbgWords = node.core().debugOut().size();
        o.traceHash = net.nodeTraceHash(i);
        combined = fnvFold(combined, o.traceHash);
    }
    res.combinedTraceHash = combined;
    res.air = net.stats();
    res.dropsLink = net.airDropsLink();
    res.dropsDead = net.airDropsDead();
    res.rxInRange = net.airRxInRange();
    res.pendingFlights = net.airPendingFlights();
    res.pendingDeliveries = net.airPendingDeliveries();
    return res;
}

} // namespace snaple::scenario
