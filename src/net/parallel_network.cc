#include "net/parallel_network.hh"

#include <algorithm>
#include <ostream>

#include "radio/transceiver.hh"

namespace snaple::net {

node::SnapNode &
ParallelNetwork::addNode(const node::NodeConfig &cfg,
                         const assembler::Program &prog)
{
    sim::fatalIf(started_, "addNode() after start()");
    node::NodeConfig shardCfg = cfg;
    if (shardCfg.nodeId == 0)
        shardCfg.nodeId = static_cast<std::uint32_t>(shards_.size());
    shards_.push_back(
        std::make_unique<Shard>(exchange_, shardCfg, prog));
    Shard &s = *shards_.back();
    s.node.flowTracker().setWindow(flowWindow_);
    if (flowsOut_)
        s.node.flowTracker().setRecording(true);
    if (tracing_) {
        s.sink = std::make_unique<sim::TraceSink>(traceRecord_);
        s.kernel.setTracer(s.sink.get());
    }
    return s.node;
}

sim::Tick
ParallelNetwork::deriveWindow() const
{
    // Lookahead: the earliest a word transmitted in one shard can
    // matter in another is one (shortest) word airtime plus the
    // propagation delay. No radios means no cross-shard traffic at
    // all; any positive window works, so pick a coarse one.
    sim::Tick minAirtime = sim::kMaxTick;
    for (const auto &s : shards_)
        if (const radio::Transceiver *t = s->node.transceiver())
            minAirtime = std::min(minAirtime, t->wordAirtime());
    if (minAirtime != sim::kMaxTick)
        return minAirtime + exchange_.propagation();
    if (exchange_.propagation() != 0)
        return exchange_.propagation();
    return sim::kMillisecond;
}

void
ParallelNetwork::start()
{
    sim::fatalIf(started_, "start() called twice");
    if (windowOverride_ == 0)
        window_ = deriveWindow();
    sim::fatalIf(window_ == 0, "sync window must be positive");
    exchange_.finalizeField(); // no-op outside field mode
    for (auto &s : shards_)
        s->node.start();
    started_ = true;
}

void
ParallelNetwork::enableTracing(bool record)
{
    tracing_ = true;
    traceRecord_ = record;
    for (auto &s : shards_) {
        if (!s->sink)
            s->sink = std::make_unique<sim::TraceSink>(record);
        s->kernel.setTracer(s->sink.get());
    }
}

void
ParallelNetwork::enableMetrics(std::ostream &out, sim::Tick interval)
{
    sim::fatalIf(now_ != 0, "enableMetrics() after the run started");
    sim::fatalIf(interval == 0, "metrics interval must be positive");
    metricsOut_ = &out;
    metricsInterval_ = interval;
    metricsNext_ = interval;
}

void
ParallelNetwork::sampleMetricsNow()
{
    std::ostream &out = *metricsOut_;
    if (!metricsMetaWritten_) {
        for (const auto &s : shards_)
            sim::MetricsRegistry::writeMetaJsonl(
                out, s->node.name(), s->node.ctx().cfg.volts,
                metricsInterval_);
        metricsMetaWritten_ = true;
    }

    // Per-node rows in registration order. sampleMetrics() refreshes
    // each node's published values to the barrier instant first; the
    // barrier grid is jobs-invariant, so so is everything below.
    for (const auto &s : shards_) {
        s->node.sampleMetrics();
        s->node.ctx().metrics.writeJsonl(out, now_, s->node.name());
    }

    // "all": the per-node registries folded in node-id order.
    aggregate_.resetValues();
    for (const auto &s : shards_)
        aggregate_.mergeFrom(s->node.ctx().metrics);
    aggregate_.writeJsonl(out, now_, "all");

    // "net": the shared-channel counters.
    exchange_.metrics().writeJsonl(out, now_, "net");

    metricsLastAt_ = now_;
}

void
ParallelNetwork::finishMetrics()
{
    if (!metricsOut_)
        return;
    if (metricsLastAt_ != now_)
        sampleMetricsNow();
    for (const auto &s : shards_)
        for (const sim::ProfileRow &row : s->node.core().profileRows())
            sim::MetricsRegistry::writeProfileJsonl(
                *metricsOut_, s->node.name(), row);
    metricsOut_->flush();
}

void
ParallelNetwork::enableFlows(std::ostream &out)
{
    sim::fatalIf(now_ != 0, "enableFlows() after the run started");
    flowsOut_ = &out;
    for (auto &s : shards_)
        s->node.flowTracker().setRecording(true);
}

void
ParallelNetwork::setFlowWindow(sim::Tick w)
{
    sim::fatalIf(now_ != 0, "setFlowWindow() after the run started");
    flowWindow_ = w;
    for (auto &s : shards_)
        s->node.flowTracker().setWindow(w);
}

void
ParallelNetwork::drainFlowsNow()
{
    spanScratch_.clear();
    for (const auto &s : shards_)
        s->node.flowTracker().drainSpans(spanScratch_);
    if (spanScratch_.empty())
        return;
    // (tx_tick, node) is unique — the TX serial interface is busy for
    // a full word airtime — so this sort is a total order and the
    // drain's byte image is independent of shard iteration order.
    std::stable_sort(
        spanScratch_.begin(), spanScratch_.end(),
        [](const obs::SpanRecord &a, const obs::SpanRecord &b) {
            return a.txTick != b.txTick ? a.txTick < b.txTick
                                        : a.node < b.node;
        });
    for (const obs::SpanRecord &r : spanScratch_)
        obs::writeSpanJsonl(*flowsOut_, r);
}

void
ParallelNetwork::finishFlows()
{
    if (!flowsOut_)
        return;
    drainFlowsNow();
    flowsOut_->flush();
}

void
ParallelNetwork::killNode(std::size_t i)
{
    sim::fatalIf(!started_, "killNode() before start()");
    Shard &s = *shards_.at(i);
    if (s.dead)
        return;
    // Freeze the shard exactly like an early kernel stop: its clock
    // stops tracking the barrier grid, its trace hash and energy
    // ledger keep their values at the kill barrier. The exchange side
    // truncates in-flight words and suppresses future deliveries.
    s.dead = true;
    s.halted = true;
    s.deathAt = now_;
    exchange_.setNodeDown(i, true);
}

void
ParallelNetwork::stepShard(Shard &s, sim::Tick horizon)
{
    if (s.halted)
        return;
    s.kernel.run(horizon);
    // run() pins now() to the horizon unless stop() cut it short (a
    // halted core with stopOnHalt, or a model calling stop()). Freeze
    // such a shard: its time can no longer track the barrier grid.
    if (s.kernel.now() < horizon)
        s.halted = true;
}

void
ParallelNetwork::runWindow(sim::Tick horizon)
{
    const unsigned lanes = jobs_;
    if (lanes <= 1 || shards_.size() <= 1) {
        for (auto &s : shards_)
            stepShard(*s, horizon);
        return;
    }
    if (!pool_ || pool_->lanes() != lanes)
        pool_ = std::make_unique<sim::WorkerPool>(lanes - 1);
    pool_->dispatch([this, horizon, lanes](unsigned lane) {
        for (std::size_t i = lane; i < shards_.size(); i += lanes)
            stepShard(*shards_[i], horizon);
    });
}

void
ParallelNetwork::runFor(sim::Tick t)
{
    sim::fatalIf(!started_, "runFor() before start()");
    const sim::Tick target = now_ + t;
    while (now_ < target) {
        sim::Tick horizon = std::min(target, gridNext(now_));
        if (exchange_.quiet() && !barrierHook_) {
            // Nothing is (or is about to be) on the air, so windows
            // with no shard events need no barriers: fast-forward to
            // the grid point covering the earliest pending event. The
            // skip depends only on shard state, never lane count, so
            // it cannot perturb jobs-independence. A barrier hook
            // disables the skip entirely: hooks observe (and act at)
            // barriers, so their instants must be the full grid — not
            // whatever subset this particular runFor() span produced —
            // or a run split at a checkpoint would accrue battery
            // depletion at different instants than a straight run.
            // Metrics deadlines clamp the skip for the same reason:
            // a sample must land at the grid point covering its
            // deadline, not wherever the fast-forward happened to
            // stop (docs/CHECKPOINT.md).
            sim::Tick next = sim::kMaxTick;
            for (const auto &s : shards_)
                if (!s->halted)
                    next = std::min(next, s->kernel.nextEventAt());
            if (metricsOut_)
                next = std::min(next, metricsNext_);
            horizon = next >= target ? target
                                     : std::min(target, gridCeil(next));
        }
        runWindow(horizon);
        exchange_.exchangeAt(horizon);
        now_ = horizon;
        if (flowsOut_)
            drainFlowsNow();
        if (metricsOut_ && now_ >= metricsNext_) {
            sampleMetricsNow();
            while (metricsNext_ <= now_)
                metricsNext_ += metricsInterval_;
        }
        // Fault hooks run last, with every shard paused at the
        // barrier. The set of barriers reached depends only on shard
        // state (the fast-forward rule above), never lane count, so
        // hook instants — and any faults they inject — stay
        // jobs-invariant.
        if (barrierHook_)
            barrierHook_(now_);
    }
}

} // namespace snaple::net
