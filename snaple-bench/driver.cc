#include "driver.hh"

#include <algorithm>
#include <cmath>
#include <memory>
#include <ostream>
#include <sstream>

#include "asm/snap_backend.hh"
#include "counting_sink.hh"
#include "net/parallel_network.hh"
#include "node/node.hh"
#include "sensor/sensor.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "snapshot/snapshot.hh"
#include "stats.hh"

namespace snaple::bench {

namespace {

using scenario::Checkpoint;
using scenario::Fault;
using scenario::NodeSettings;
using scenario::Scenario;

/** The runner's sensor seed stream tag ("SENS" | node id). */
constexpr std::uint64_t kSensorStream = 0x53454e5300000000ull;

sim::Tick
msToTicks(double ms)
{
    return static_cast<sim::Tick>(
        std::llround(ms * double(sim::kMillisecond)));
}

std::uint64_t
fnv1a(std::uint64_t h, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
    }
    return h;
}

/** Times the enclosed statements into @p acc and a span. */
class Timed
{
  public:
    Timed(double &acc, SpanLog *spans, const std::string &name)
        : acc_(acc), span_(spans, name), t0_(wallNow())
    {}
    ~Timed() { acc_ += wallNow() - t0_; }

  private:
    double &acc_;
    SpanScope span_;
    double t0_;
};

} // namespace

SpanLog::SpanLog() : originS_(wallNow()) {}

int
SpanLog::open(const std::string &name)
{
    const int id = int(spans_.size());
    spans_.push_back(
        Span{name, wallNow(), 0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(id);
    return id;
}

void
SpanLog::close(int id)
{
    spans_.at(std::size_t(id)).endS = wallNow();
    // Spans nest, so the one closing is the innermost.
    if (!stack_.empty() && stack_.back() == id)
        stack_.pop_back();
}

void
SpanLog::writeChromeJson(std::ostream &os) const
{
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
           << sim::formatDouble((s.startS - originS_) * 1e6)
           << ",\"dur\":"
           << sim::formatDouble((s.endS - s.startS) * 1e6)
           << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
           << "}}";
    }
    os << "\n]}\n";
}

TracedRun
runTraced(const std::string &text,
          const std::map<std::string, std::string> &programs,
          const TracedOptions &opt, SpanLog *spans)
{
    TracedRun out;
    Layers &L = out.layers;
    SpanScope whole(spans, "runTraced");

    Scenario sc;
    {
        Timed t(L.parseS, spans, "scenario.parse");
        sc = scenario::parseScenario(text, "<generated>");
    }

    // Assemble each distinct (program, params) pair once, with the
    // params injected as an `.equ` prolog, as the runner does.
    std::map<std::string, assembler::Program> assembled;
    std::vector<const assembler::Program *> progOf(sc.nodes);
    {
        Timed t(L.assembleS, spans, "asm.assemble");
        for (std::size_t i = 0; i < sc.nodes; ++i) {
            const NodeSettings ns = sc.resolved(i);
            std::ostringstream key;
            key << *ns.program;
            for (const auto &[k, v] : ns.params)
                key << '\0' << k << '=' << v;
            auto it = assembled.find(key.str());
            if (it == assembled.end()) {
                std::ostringstream src;
                for (const auto &[k, v] : ns.params)
                    src << ".equ " << k << ", " << v << "\n";
                src << programs.at(*ns.program);
                it = assembled
                         .emplace(key.str(),
                                  assembler::assembleSnap(src.str(),
                                                          *ns.program))
                         .first;
            }
            progOf[i] = &it->second;
        }
    }
    L.programs = assembled.size();

    CountingSink metricsSink, flowSink;
    const sim::Tick propagation = static_cast<sim::Tick>(
        std::llround(sc.propagationUs * double(sim::kMicrosecond)));
    // Owned through a pointer so its teardown can be timed.
    auto netOwner =
        std::make_unique<net::ParallelNetwork>(propagation, opt.jobs);
    net::ParallelNetwork &net = *netOwner;
    std::vector<std::unique_ptr<sensor::TemperatureSensor>> sensors(
        sc.nodes);
    std::vector<double> capacityPj(sc.nodes, 0.0);
    const sim::Tick metricsTick = msToTicks(sc.metricsMs);
    const bool metrics = opt.streams && metricsTick > 0;
    {
        Timed t(L.buildS, spans, "net.build");
        {
            SpanScope s(spans, "net.addNode");
            for (std::size_t i = 0; i < sc.nodes; ++i) {
                const NodeSettings ns = sc.resolved(i);
                node::NodeConfig cfg;
                cfg.name = "n" + std::to_string(i);
                cfg.baseSeed = sc.seed;
                if (ns.volts)
                    cfg.core.volts = *ns.volts;
                cfg.fidelity = ns.fidelityFast.value_or(false)
                                   ? node::FidelityMode::Fast
                                   : node::FidelityMode::Cycle;
                node::SnapNode &node = net.addNode(cfg, *progOf[i]);
                if (ns.sensor && *ns.sensor) {
                    sensor::TemperatureSensor::Config scfg;
                    scfg.seed =
                        sim::deriveSeed(sc.seed, kSensorStream | i);
                    sensors[i] =
                        std::make_unique<sensor::TemperatureSensor>(
                            scfg);
                    node.attachSensor(0, *sensors[i]);
                }
                if (ns.batteryUj && *ns.batteryUj > 0)
                    capacityPj[i] = *ns.batteryUj * 1e6;
            }
        }
        if (sc.field) {
            net.setField(*sc.field);
            for (std::size_t i = 0; i < sc.nodes; ++i) {
                const auto p = *sc.resolved(i).position;
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
        if (opt.tracing)
            net.enableTracing(false);
        if (sc.windowUs > 0)
            net.setWindow(static_cast<sim::Tick>(
                std::llround(sc.windowUs * double(sim::kMicrosecond))));
        if (metrics)
            net.enableMetrics(metricsSink, metricsTick);
        net.setFlowWindow(msToTicks(sc.flowWindowMs));
        if (opt.streams)
            net.enableFlows(flowSink);

        // The battery hook, installed only where the runner installs
        // one: a hook pins the full barrier grid.
        const bool metered =
            std::any_of(capacityPj.begin(), capacityPj.end(),
                        [](double c) { return c > 0; });
        if (metered) {
            // Reserved up front so no reallocation lands in a timing.
            L.barrierUs.reserve(1 << 16);
            L.hookUs.reserve(1 << 16);
            net.setBarrierHook([&, lastExit = 0.0](sim::Tick) mutable {
                const double enter = wallNow();
                if (lastExit > 0)
                    L.barrierUs.push_back((enter - lastExit) * 1e6);
                for (std::size_t i = 0; i < sc.nodes; ++i) {
                    if (capacityPj[i] <= 0 || net.nodeDead(i))
                        continue;
                    node::SnapNode &node = net.node(i);
                    if (radio::Transceiver *tr = node.transceiver())
                        tr->accrueListenEnergy();
                    node.ctx().accrueLeakage();
                    if (node.ctx().ledger.totalPj() >= capacityPj[i])
                        net.killNode(i);
                }
                lastExit = wallNow();
                L.hookUs.push_back((lastExit - enter) * 1e6);
            });
        }
        SpanScope s(spans, "net.start");
        net.start();
    }

    scenario::RunResult &res = out.result;
    res.scenario = sc.name;
    res.nodes = sc.nodes;
    res.topology = sc.topology;
    res.seed = sc.seed;
    res.durationMs = sc.durationMs;
    res.outcomes.resize(sc.nodes);

    // The runner's schedule: faults and checkpoints quantized to the
    // barrier grid, faults first at a shared barrier, checkpoints
    // deferred past ineligible barriers.
    const sim::Tick w = net.window();
    const sim::Tick duration = msToTicks(sc.durationMs);
    std::map<sim::Tick, std::vector<Fault>> faultsAt;
    for (const Fault &f : sc.faults) {
        const sim::Tick at = (msToTicks(f.atMs) + w - 1) / w * w;
        if (at <= duration)
            faultsAt[at].push_back(f);
    }
    std::map<sim::Tick, std::vector<Checkpoint>> cksAt;
    for (const Checkpoint &ck : sc.checkpoints) {
        sim::fatalIf(ck.atMs > sc.durationMs,
                     "checkpoint past the run end");
        const sim::Tick raw = msToTicks(ck.atMs);
        cksAt[std::min(duration, raw == 0 ? w : (raw + w - 1) / w * w)]
            .push_back(ck);
    }

    {
        SpanScope runSpan(spans, "net.run");
        sim::Tick now = 0;
        while (now < duration || !faultsAt.empty() || !cksAt.empty()) {
            sim::Tick next = duration;
            if (!faultsAt.empty())
                next = std::min(next, faultsAt.begin()->first);
            if (!cksAt.empty())
                next = std::min(next, cksAt.begin()->first);
            if (next > now) {
                const double c0 = cpuNow();
                {
                    Timed t(L.runS, spans, "net.runFor");
                    net.runFor(next - now);
                }
                L.runCpuS += cpuNow() - c0;
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
                    sim::fatalIf(now >= duration,
                                 "checkpoint still ineligible at the "
                                 "end of the run");
                    std::vector<Checkpoint> &dst =
                        cksAt[std::min(now + w, duration)];
                    dst.insert(dst.begin(), due.begin(), due.end());
                    continue;
                }
                snapshot::NetworkSnapshot snap;
                {
                    Timed t(L.captureS, spans, "snapshot.capture");
                    snap = net.checkpoint();
                }
                for (std::size_t i = 0; i < sc.nodes; ++i)
                    if (sensors[i])
                        snap.userRng[i] = sensors[i]->rngState();
                if (opt.snapshotBytes)
                    L.snapshotBytes +=
                        snapshot::encodeSnapshot(snap).size();
                std::uint64_t trace = 14695981039346656037ull;
                for (const snapshot::NodeState &n : snap.nodes)
                    trace = fnv1a(trace, n.traceHash);
                for (const Checkpoint &ck : due) {
                    res.checkpoints.push_back(scenario::CheckpointRow{
                        ck.atMs, now, trace, ck.path});
                    ++L.captures;
                }
            }
        }
    }
    {
        Timed t(L.finishS, spans, "obs.finish");
        if (metrics)
            net.finishMetrics();
        if (opt.streams)
            net.finishFlows();
    }

    {
        SpanScope collect(spans, "collect");
        std::uint64_t combined = 14695981039346656037ull;
        for (std::size_t i = 0; i < sc.nodes; ++i) {
            node::SnapNode &node = net.node(i);
            scenario::NodeOutcome &o = res.outcomes[i];
            o.name = node.name();
            o.dead = net.nodeDead(i);
            o.deathAt = net.nodeDeathAt(i);
            if (radio::Transceiver *tr = node.transceiver())
                tr->accrueListenEnergy();
            node.ctx().accrueLeakage();
            o.energyPj = node.ctx().ledger.totalPj();
            o.dbgWords = node.core().debugOut().size();
            o.traceHash = net.nodeTraceHash(i);
            combined = fnv1a(combined, o.traceHash);

            const auto &cs = node.core().stats();
            L.instructions += cs.instructions;
            L.handlers += cs.handlers;
            L.wakeups += cs.wakeups;
            L.timerExpired += node.timer().stats().expired;
            const auto ms = node.msgCoproc().stats();
            L.msgCommands += ms.commands;
            L.msgQueries += ms.queries;
            if (const sim::TraceSink *sink = net.nodeTracer(i))
                L.traceEvents += sink->eventCount();
        }
        res.combinedTraceHash = combined;
        res.air = net.stats();
        res.dropsLink = net.airDropsLink();
        res.dropsDead = net.airDropsDead();
        res.rxInRange = net.airRxInRange();
        res.pendingFlights = net.airPendingFlights();
        res.pendingDeliveries = net.airPendingDeliveries();
        L.kernelEvents = net.eventsDispatched();
        L.wordsSent = res.air.wordsSent;
        L.delivered = res.air.wordsDelivered;
        L.collisions = res.air.collisions;
        L.rxInRange = res.rxInRange;
        L.metricsBytes = metricsSink.bytes();
        L.flowSpans = flowSink.lines();
    }
    {
        Timed t(L.teardownS, spans, "net.teardown");
        netOwner.reset();
    }
    return out;
}

} // namespace snaple::bench
