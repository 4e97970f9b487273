/**
 * @file
 * Multi-node network harness: the one engine behind every multi-node
 * run, from the paper benches to the scenario runner.
 *
 * Every node lives in its own shard — a private sim::Kernel (the
 * allocation-free hot path, single-threaded within the shard), its
 * radio::Medium port, and the SnapNode itself. runFor() advances
 * all shards in conservative bounded time windows: each window, K
 * worker lanes execute disjoint subsets of shard kernels up to a
 * shared horizon, then the coordinator drains the inter-shard radio
 * mailboxes (radio::AirExchange) at the barrier and the next window
 * begins.
 *
 * The window size is the radio lookahead: one word airtime plus the
 * propagation delay, the minimum time in which a transmission started
 * in one shard could need to be heard in another. Every cross-shard
 * effect (carrier sense, collisions, deliveries) is defined purely in
 * terms of barrier ticks and registration-order node ids — never
 * thread or shard assignment — so per-node trace hashes are
 * bit-identical for any jobs() count, including 1. docs/SIMULATOR.md
 * ("Parallel execution and the lookahead contract") derives the rules.
 */

#ifndef SNAPLE_NET_PARALLEL_NETWORK_HH
#define SNAPLE_NET_PARALLEL_NETWORK_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <vector>

#include "node/node.hh"
#include "radio/air_exchange.hh"
#include "sim/kernel.hh"
#include "sim/trace.hh"
#include "sim/worker_pool.hh"

namespace snaple::snapshot {
struct NetworkSnapshot;
struct NodeState;
} // namespace snaple::snapshot

namespace snaple::net {

/** A simulated network of SNAP/LE nodes, one kernel per node. */
class ParallelNetwork
{
  public:
    /**
     * @param propagation air propagation delay.
     * @param jobs worker lanes for runFor(); 1 = run shards inline on
     *        the calling thread (the reference semantics — higher job
     *        counts reproduce it bit-exactly, just faster).
     */
    explicit ParallelNetwork(sim::Tick propagation = 1 * sim::kMicrosecond,
                             unsigned jobs = 1)
        : exchange_(propagation), jobs_(jobs ? jobs : 1)
    {}

    /** Create and register a node; returns a stable reference. */
    node::SnapNode &addNode(const node::NodeConfig &cfg,
                            const assembler::Program &prog);

    /**
     * Freeze the topology, derive the sync window from the slowest
     * radio (unless setWindow() overrode it), and spawn every node's
     * processes.
     */
    void start();

    /** Run for a stretch of simulated time (all shards advance). */
    void runFor(sim::Tick t);

    /**
     * @name Checkpoint/restore (src/snapshot/, docs/CHECKPOINT.md)
     *
     * checkpoint() captures the whole network at the current barrier
     * into a snapshot an identically built network can restore() and
     * continue from bit-exactly — same per-node trace hashes, energy
     * ledgers and metrics stream as the uninterrupted run, for any
     * jobs() count on either side. Snapshots are only defined at
     * *eligible* barriers: every live shard parked in its event wait
     * with no events pending beyond the mirrored coprocessor/radio
     * deadlines. Callers poll checkpointEligible() and defer to the
     * next barrier instead of forcing it (the scenario runner does
     * this automatically).
     */
    ///@{
    /** True when every live shard is parked in a serializable state. */
    bool checkpointEligible() const;

    /** Capture the network; fatal at an ineligible barrier. */
    snapshot::NetworkSnapshot checkpoint();

    /**
     * Restore onto a freshly built, identically configured network
     * (same nodes/programs/topology/window) *instead of* start().
     * Continues from the snapshot tick.
     */
    void restore(const snapshot::NetworkSnapshot &snap);
    ///@}

    /** Restrict connectivity to adjacent registration indices. */
    void
    setLineTopology()
    {
        exchange_.setLinkFilter([](std::size_t s, std::size_t d) {
            return (s > d ? s - d : d - s) == 1;
        });
    }

    /** Arbitrary connectivity over registration indices. */
    void
    setLinkFilter(radio::AirExchange::LinkFilter f)
    {
        exchange_.setLinkFilter(std::move(f));
    }

    /**
     * @name Spatial field mode
     *
     * setField() swaps the single-cell channel for the spatial model
     * (radio/field.hh): log-distance path loss, per-receiver
     * RSSI, capture-threshold collision resolution, sharded by
     * cell_m-sized grid cells so a flight's barrier work touches only
     * its cell neighborhood. Call before start(), then place every
     * node with setNodePosition(); start() freezes the cell binning.
     */
    ///@{
    void
    setField(const radio::FieldConfig &cfg)
    {
        sim::fatalIf(started_, "setField() after start()");
        exchange_.setField(cfg);
    }

    /** Place node @p i at (@p xM, @p yM) meters. Before start(). */
    void
    setNodePosition(std::size_t i, double xM, double yM)
    {
        exchange_.setPosition(i, xM, yM);
    }

    /** Receiver-side signal strength of @p src heard at @p dst. */
    double
    rssiDbm(std::size_t src, std::size_t dst) const
    {
        return exchange_.rssiDbm(src, dst);
    }
    ///@}

    /**
     * @name Fault injection (scenario engine; see docs/SCENARIOS.md)
     *
     * All three calls are coordinator-side and must land between
     * runFor() segments (i.e. at a barrier, every shard paused), so
     * their effects are defined purely by the barrier tick at which
     * they are applied — jobs-invariant like every other cross-shard
     * effect.
     */
    ///@{
    /**
     * Kill a node: its shard freezes at the current barrier (kernel
     * never advances again, trace hash and energy ledger are frozen),
     * its in-flight words are truncated (resolve as collided), and it
     * receives no further carrier or deliveries. Irreversible.
     */
    void killNode(std::size_t i);

    /** True once killNode(i) has been applied. */
    bool nodeDead(std::size_t i) const { return shards_.at(i)->dead; }

    /** Barrier tick at which killNode(i) landed; 0 if alive. */
    sim::Tick nodeDeathAt(std::size_t i) const
    {
        return shards_.at(i)->deathAt;
    }

    /** Take the undirected link a-b down (or back up). Deliveries
     *  suppressed by a downed link count in "air.drops_link". */
    void
    setLinkUp(std::size_t a, std::size_t b, bool up)
    {
        exchange_.setLinkUp(a, b, up);
    }

    /**
     * Invoke @p hook after every window barrier (after the air
     * exchange and any metrics sample), with the barrier tick. The
     * scenario engine uses it for battery-depletion checks; hooks run
     * on the coordinator with all shards paused and may call
     * killNode()/setLinkUp().
     */
    void
    setBarrierHook(std::function<void(sim::Tick)> hook)
    {
        barrierHook_ = std::move(hook);
    }

    /** Unresolved flights in the exchange (fault tests: no leaks). */
    std::size_t
    airPendingFlights() const
    {
        return exchange_.pendingFlights();
    }

    /** Deliveries suppressed by downed links ("air.drops_link"). */
    std::uint64_t airDropsLink() const { return exchange_.dropsLink(); }

    /** Deliveries suppressed by dead receivers ("air.drops_dead"). */
    std::uint64_t airDropsDead() const { return exchange_.dropsDead(); }
    ///@}

    /** Field mode: (flight, in-range receiver) opportunities. */
    std::uint64_t airRxInRange() const { return exchange_.rxInRange(); }

    /**
     * Delivery offers injected into shards but not yet resolved by
     * the receiver (radio::AirExchange::pendingDeliveries). With this
     * term the air counters reconcile exactly at any barrier — see
     * docs/SIMULATOR.md, "Channel accounting".
     */
    std::uint64_t
    airPendingDeliveries() const
    {
        return exchange_.pendingDeliveries();
    }

    /**
     * Attach one TraceSink per shard (existing and future), so every
     * node has an independent, comparable trace hash. @p record as in
     * sim::TraceSink: false keeps hashes only.
     */
    void enableTracing(bool record = false);

    /** Per-node trace hash; 0 unless enableTracing() was called. */
    std::uint64_t
    nodeTraceHash(std::size_t i) const
    {
        return shards_.at(i)->node.traceHash();
    }

    /** The shard's sink, or null (exporters want the records). */
    const sim::TraceSink *
    nodeTracer(std::size_t i) const
    {
        return shards_.at(i)->sink.get();
    }

    /** Global air statistics (identical to a jobs=1 run). */
    radio::Medium::Stats stats() const { return exchange_.stats(); }

    /**
     * Stream periodic metrics snapshots to @p out: one sample per node
     * (registration order), one "all" aggregate merged in node-id
     * order, and one "net" row for the air-channel counters, every
     * @p interval ticks of simulated time. Samples land on window
     * barriers — the first barrier at or past each cadence point — so
     * the sample instants, like every other cross-shard effect, depend
     * only on the barrier grid and the output is byte-identical for
     * any jobs() count. Call before the first runFor(); @p out must
     * outlive the run.
     */
    void enableMetrics(std::ostream &out, sim::Tick interval);

    /**
     * Emit the final sample at now() (unless one just landed there)
     * plus per-PC profile rows for every node whose core has profiling
     * enabled. Call once, after the last runFor().
     */
    void finishMetrics();

    /**
     * Stream flow-span records (src/obs/flow.hh, docs/TRACING.md) to
     * @p out as JSONL. Every node's tracker is drained at every window
     * barrier and the drain is sorted by (tx_tick, node) — a unique
     * key, since a transceiver's TX interface is busy for a full word
     * airtime. Each span lands in the drain of the first barrier at or
     * after its transmit tick, so the concatenated stream is globally
     * sorted by that key: byte-identical for any jobs() count *and*
     * across checkpoint/restore segmentation, whatever barriers each
     * segment happens to visit. Call before the first runFor() (on a
     * restored network: before restore()); @p out must outlive the run.
     */
    void enableFlows(std::ostream &out);

    /**
     * Causality window for cross-node flow continuation, applied to
     * every node's tracker (obs::FlowTracker::setWindow). The window
     * is tracker *state* and therefore snapshot content: configure it
     * identically on both sides of a checkpoint, with or without a
     * span stream attached. Call before start()/restore().
     */
    void setFlowWindow(sim::Tick w);

    /** Drain any buffered spans and flush the span stream. Call once,
     *  after the last runFor(). */
    void finishFlows();

    node::SnapNode &node(std::size_t i) { return shards_.at(i)->node; }
    const node::SnapNode &node(std::size_t i) const
    {
        return shards_.at(i)->node;
    }
    std::size_t size() const { return shards_.size(); }

    /** Coordinator time: every shard has run at least this far. */
    sim::Tick now() const { return now_; }

    /** The conservative sync window (valid after start()). */
    sim::Tick window() const { return window_; }

    /**
     * Override the sync window (testing knob; must be called before
     * any runFor()). Any positive window is *correct* — smaller only
     * tightens carrier-sense staleness and delivery quantization.
     */
    void
    setWindow(sim::Tick w)
    {
        sim::fatalIf(now_ != 0, "setWindow() after the run started");
        sim::fatalIf(w == 0, "sync window must be positive");
        windowOverride_ = w;
        window_ = w;
    }

    unsigned jobs() const { return jobs_; }

    /** Direct access to a shard's kernel (tests, host stimulus). */
    sim::Kernel &shardKernel(std::size_t i) { return shards_.at(i)->kernel; }

    /** Direct access to a shard's medium port (tests, host stimulus). */
    radio::Medium &shardMedium(std::size_t i)
    {
        return shards_.at(i)->medium;
    }

    /** Events dispatched across all shards (host-side profiling). */
    std::uint64_t
    eventsDispatched() const
    {
        std::uint64_t n = 0;
        for (const auto &s : shards_)
            n += s->kernel.eventsDispatched();
        return n;
    }

  private:
    /** One node's private simulation island. Declaration order is
     *  construction order: kernel, then the medium port on it, then
     *  the node wired to both. */
    struct Shard
    {
        Shard(radio::AirExchange &ex, const node::NodeConfig &cfg,
              const assembler::Program &prog)
            : medium(kernel, ex), node(kernel, &medium, cfg, prog)
        {}

        sim::Kernel kernel;
        radio::Medium medium;
        node::SnapNode node;
        std::unique_ptr<sim::TraceSink> sink;
        bool halted = false; ///< kernel stopped early; frozen since
        bool dead = false;   ///< killNode() applied (fault injection)
        sim::Tick deathAt = 0; ///< barrier tick of killNode(); 0 alive
    };

    void runWindow(sim::Tick horizon);
    static void stepShard(Shard &s, sim::Tick horizon);
    void sampleMetricsNow();
    void drainFlowsNow();
    sim::Tick deriveWindow() const;

    // Defined in src/snapshot/net_snapshot.cc with the full snapshot
    // schema in scope.
    snapshot::NodeState captureShard(Shard &s) const;
    void restoreShard(Shard &s, const snapshot::NodeState &ns,
                      sim::Tick snapTick);

    /** First barrier strictly after @p t on the absolute grid. */
    sim::Tick gridNext(sim::Tick t) const { return (t / window_ + 1) * window_; }
    /** First grid point at or after @p x. */
    sim::Tick
    gridCeil(sim::Tick x) const
    {
        return (x + window_ - 1) / window_ * window_;
    }

    radio::AirExchange exchange_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::unique_ptr<sim::WorkerPool> pool_;
    std::function<void(sim::Tick)> barrierHook_;
    sim::Tick now_ = 0;
    sim::Tick window_ = 0;
    sim::Tick windowOverride_ = 0;
    unsigned jobs_;
    bool started_ = false;
    bool tracing_ = false;
    bool traceRecord_ = false;

    // Metrics streaming (enableMetrics). Coordinator-only state.
    std::ostream *metricsOut_ = nullptr;
    sim::Tick metricsInterval_ = 0;
    sim::Tick metricsNext_ = 0;
    sim::Tick metricsLastAt_ = sim::kMaxTick; ///< last sample instant
    bool metricsMetaWritten_ = false;
    sim::MetricsRegistry aggregate_; ///< scratch for the "all" rows

    // Flow-span streaming (enableFlows). Coordinator-only state.
    std::ostream *flowsOut_ = nullptr;
    sim::Tick flowWindow_ = 0;
    std::vector<obs::SpanRecord> spanScratch_;
};

} // namespace snaple::net

#endif // SNAPLE_NET_PARALLEL_NETWORK_HH
