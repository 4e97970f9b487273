/**
 * @file
 * The shared radio channel: the barrier coordinator behind every
 * node's radio::Medium port.
 *
 * Each node's kernel runs on its own timeline (net::ParallelNetwork),
 * so the channel is split in two:
 *
 *  - Medium (radio/medium.hh): the per-node port the transceiver
 *    speaks. beginTransmit() only records the word in a node-local
 *    outbox (and raises the local carrier); busy() answers CSMA sense
 *    from local state.
 *  - AirExchange: the coordinator. At every conservative sync window
 *    barrier — when all shard kernels are paused at the same tick —
 *    it drains the outboxes in deterministic (start tick, source id,
 *    sequence) order, resolves collisions (airtime intervals that
 *    overlap garble each other), and injects carrier and delivery
 *    events into the destination shards' kernels.
 *
 * The lookahead contract this implements (docs/SIMULATOR.md has the
 * derivation):
 *  - a word transmitted at tick t inside window (B-W, B] becomes
 *    visible to other shards at the barrier B: their carrier sense
 *    turns busy over [B, t+airtime) — truncated, never early;
 *  - its collision status is final at the first barrier >= t+airtime
 *    (every transmission that can overlap it has started by then);
 *  - it is delivered at max(t + airtime + propagation, that barrier).
 * None of these rules mention shard assignment or worker count, which
 * is what makes per-node traces bit-identical for any --jobs=K.
 *
 * Field mode (setField + per-node positions) swaps the single-cell
 * channel rules for the spatial ones of radio/field.hh — log-distance
 * path loss, per-receiver RSSI, capture-threshold resolution — and
 * shards the air by spatial cells: each node is binned into a
 * cell_m-sized grid cell, and a flight's carrier, delivery and
 * interference work touches only nodes in cells within the radio
 * range of its transmitter. That is the node-count unlock: barrier
 * cost per flight is bounded by the cell neighborhood, not the
 * network size. Every field rule is still a pure function of barrier
 * ticks, node ids and (fixed) positions, so jobs-independence holds
 * unchanged.
 *
 * Delivery acceptance in both modes is counted when the receiver
 * takes the word, not when the exchange offers it: the injected
 * delivery callback records the outcome (accepted / wrong mode / FIFO
 * full) in plain per-shard counters, which the coordinator drains
 * into the "air.*" registry at the next barrier. Offers not yet
 * resolved are visible as pendingDeliveries().
 *
 * Thread safety: Medium members are touched only by the thread
 * currently running that shard's kernel; AirExchange methods run only
 * on the coordinator between windows, while every shard kernel is
 * paused. The WorkerPool handoff provides the happens-before edges.
 */

#ifndef SNAPLE_RADIO_AIR_EXCHANGE_HH
#define SNAPLE_RADIO_AIR_EXCHANGE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "radio/field.hh"
#include "radio/medium.hh"
#include "sim/kernel.hh"
#include "sim/metrics.hh"
#include "sim/ticks.hh"

namespace snaple::radio {

/** One on-air word, as the exchange resolves it. */
struct AirFlight
{
    sim::Tick start;       ///< first bit leaves the antenna
    sim::Tick end;         ///< airtime interval is [start, end)
    std::uint32_t srcNode; ///< registration index of the transmitter
    std::uint32_t seq;     ///< per-source transmission sequence
    std::uint16_t word;
    bool collided;
    /** Field mode: outcome decided, record retained only while an
     *  unresolved flight might still overlap it (interference). */
    bool resolved = false;
    obs::FlowTag tag; ///< side-band flow metadata (src/obs/flow.hh)
};

/**
 * Inter-shard mailbox coordinator: collision resolution, delivery
 * injection, carrier propagation and global air statistics.
 */
class AirExchange
{
  public:
    /** Connectivity predicate over registration indices. */
    using LinkFilter =
        std::function<bool(std::size_t src, std::size_t dst)>;

    explicit AirExchange(sim::Tick propagation)
        : propagation_(propagation),
          wordsSent_(&registry_.counter("air.words_sent")),
          wordsDelivered_(&registry_.counter("air.words_delivered")),
          collisions_(&registry_.counter("air.collisions")),
          dropsLink_(&registry_.counter("air.drops_link")),
          dropsDead_(&registry_.counter("air.drops_dead")),
          dropsMode_(&registry_.counter("air.drops_mode")),
          dropsFifo_(&registry_.counter("air.drops_fifo")),
          rxInRange_(&registry_.counter("air.rx_in_range"))
    {}

    AirExchange(const AirExchange &) = delete;
    AirExchange &operator=(const AirExchange &) = delete;

    /** Register a shard; call order defines node ids. */
    void addShard(Medium *m);

    void setLinkFilter(LinkFilter f) { linkFilter_ = std::move(f); }

    /**
     * @name Spatial field mode
     *
     * setField() switches the channel rules to the spatial model
     * (radio/field.hh); every node then needs a setPosition()
     * call, and finalizeField() — after the last addShard — bins the
     * nodes into cell_m-sized grid cells. All three are
     * coordinator-side setup calls, before the first exchange.
     */
    ///@{
    void setField(const FieldConfig &cfg) { field_ = cfg; }

    /** Place node @p id at (@p xM, @p yM) meters. */
    void setPosition(std::size_t id, double xM, double yM);

    /** Receiver-side signal strength of @p src heard at @p dst. */
    double rssiDbm(std::size_t src, std::size_t dst) const;

    /** Bin nodes into cells; required before the first exchange in
     *  field mode (no-op otherwise). */
    void finalizeField();
    ///@}

    /**
     * Fault injection: mark a node down (dead) or back up. A node
     * going down truncates its own in-flight words — they are marked
     * collided (a transmitter dying mid-word garbles the word), and
     * words still sitting in its outbox resolve the same way. A down
     * node receives neither carrier nor deliveries; suppressed
     * deliveries count in "air.drops_dead". Coordinator only (between
     * windows, shards paused), so the effect is defined purely by the
     * barrier tick at which it is applied.
     */
    void setNodeDown(std::size_t id, bool down);

    /**
     * Fault injection: take the (undirected) link between @p a and
     * @p b down or back up. Independent of the static LinkFilter: the
     * filter describes topology (out-of-range pairs — suppressed
     * deliveries are not counted), link state describes faults on
     * otherwise-connected pairs (counted in "air.drops_link"). A word
     * is delivered iff the link is up at the barrier where its flight
     * resolves — a flap during a word's airtime drops the word.
     */
    void setLinkUp(std::size_t a, std::size_t b, bool up);

    /** True unless setLinkUp(a, b, false) is in effect. */
    bool
    linkUp(std::size_t a, std::size_t b) const
    {
        return downLinks_.find(orderedPair(a, b)) == downLinks_.end();
    }

    /** Deliveries suppressed by a downed link ("air.drops_link"). */
    std::uint64_t dropsLink() const { return dropsLink_->value(); }

    /** Deliveries suppressed by a dead receiver ("air.drops_dead"). */
    std::uint64_t dropsDead() const { return dropsDead_->value(); }

    /** Field mode: (flight, in-range receiver) opportunities. */
    std::uint64_t rxInRange() const { return rxInRange_->value(); }

    /**
     * Flights currently awaiting resolution (fault tests pin that
     * faults leak no flight slots: this returns to 0 once the air
     * clears). Coordinator only.
     */
    std::size_t pendingFlights() const;

    /**
     * Delivery offers injected into shard kernels whose outcome has
     * not yet been drained back — at a barrier, exactly the offers
     * scheduled at or past it. The channel arithmetic closes once
     * these are added: every resolved clean flight is, per reachable
     * receiver, a delivery, a drop (mode / fifo / link / dead), or an
     * offer still pending here. Coordinator only.
     */
    std::uint64_t
    pendingDeliveries() const
    {
        return offersOutstanding_;
    }

    sim::Tick propagation() const { return propagation_; }

    /** Counters live in metrics(); this assembles a snapshot. */
    Medium::Stats
    stats() const
    {
        return Medium::Stats{wordsSent_->value(),
                             wordsDelivered_->value(),
                             collisions_->value(), dropsMode_->value(),
                             dropsFifo_->value()};
    }

    /** Network-scoped metrics registry (the "air.*" counters). */
    const sim::MetricsRegistry &metrics() const { return registry_; }

    /**
     * True when no flight awaits resolution and no outbox holds an
     * unexchanged word — i.e. the next exchange would be a no-op, so
     * windows with no kernel events may be fast-forwarded.
     * Coordinator only (shards paused).
     */
    bool quiet() const;

    /**
     * Fold the per-shard delivery-outcome counters (written by the
     * injected callbacks in shard context) into the air registry.
     * Runs first in every exchangeAt(); call directly before reading
     * stats()/metrics() between runs. Coordinator only.
     */
    void drainOutcomes();

    /**
     * Run one barrier exchange. Coordinator only; every shard kernel
     * must be paused with now() == @p barrier.
     */
    void exchangeAt(sim::Tick barrier);

    /** @name Snapshot support (src/snapshot/)
     * Coordinator-side air state, saved at a barrier right after
     * exchangeAt() (outboxes drained, outcomes folded). Field
     * geometry and the link filter are reconstructed
     * from the scenario, not serialized. */
    ///@{
    struct SavedState
    {
        std::vector<AirFlight> pending;
        std::vector<std::uint8_t> down;
        std::vector<std::pair<std::uint32_t, std::uint32_t>> downLinks;
        std::uint64_t offersOutstanding = 0;
        std::vector<sim::MetricsRegistry::SavedInstrument> metrics;
    };
    SavedState saveState() const;
    void restoreState(const SavedState &s);
    ///@}

  private:
    /** Canonical (lo, hi) key for the undirected link state set. */
    static std::pair<std::uint32_t, std::uint32_t>
    orderedPair(std::size_t a, std::size_t b)
    {
        const auto x = static_cast<std::uint32_t>(a);
        const auto y = static_cast<std::uint32_t>(b);
        return x < y ? std::make_pair(x, y) : std::make_pair(y, x);
    }

    /** Drain outboxes into pending_ in (start, src, seq) order;
     *  returns the index of the first fresh flight. */
    std::size_t drainOutboxes();

    void exchangeSingleCell(sim::Tick barrier, std::size_t firstFresh);
    void exchangeField(sim::Tick barrier, std::size_t firstFresh);

    /** Field mode: node ids in cells within radio reach of @p node's
     *  cell, appended to @p out (scratch; cleared first). */
    void fieldCandidates(std::uint32_t node,
                         std::vector<std::uint32_t> &out) const;

    sim::Tick propagation_;
    std::vector<Medium *> shards_;
    std::vector<AirFlight> pending_; ///< sorted by (start, src, seq)
    std::vector<bool> down_;         ///< per-node dead flag (faults)
    /** Links taken down by fault injection, as (lo, hi) node pairs. */
    std::set<std::pair<std::uint32_t, std::uint32_t>> downLinks_;
    /** Network-scoped registry, mutated only at barriers. */
    sim::MetricsRegistry registry_;
    sim::MetricCounter *wordsSent_;
    sim::MetricCounter *wordsDelivered_;
    sim::MetricCounter *collisions_;
    sim::MetricCounter *dropsLink_;
    sim::MetricCounter *dropsDead_;
    sim::MetricCounter *dropsMode_;
    sim::MetricCounter *dropsFifo_;
    sim::MetricCounter *rxInRange_;
    std::uint64_t offersOutstanding_ = 0;
    LinkFilter linkFilter_;

    // Field mode (spatial cell sharding).
    std::optional<FieldConfig> field_;
    std::vector<std::pair<double, double>> pos_; ///< meters, by node id
    std::vector<std::pair<std::int32_t, std::int32_t>> cellOf_;
    /** Grid cell -> node ids in it, ascending (built in id order). */
    std::map<std::pair<std::int32_t, std::int32_t>,
             std::vector<std::uint32_t>>
        cells_;
    std::int32_t cellReach_ = 1; ///< neighborhood radius, in cells
    /** Interference radius, in cells: beyond it a transmitter is out
     *  of noise-floor range of the receiver, so its flight cannot
     *  contribute to the capture sum. >= cellReach_ (the noise floor
     *  lies below the decode sensitivity). */
    std::int32_t interfReach_ = 1;
    bool fieldFinal_ = false;
    mutable std::vector<std::uint32_t> candScratch_;
    /** Per-barrier flight index: transmitter's grid cell -> indices
     *  into pending_, ascending — i.e. (start, src, seq) order, the
     *  order the capture rule sums interferers in. Rebuilt by every
     *  exchangeField(); scratch. */
    std::map<std::pair<std::int32_t, std::int32_t>,
             std::vector<std::size_t>>
        flightCells_;
    mutable std::vector<std::size_t> interfScratch_;
};

} // namespace snaple::radio

#endif // SNAPLE_RADIO_AIR_EXCHANGE_HH
