/**
 * @file
 * One node's port onto the shared radio channel.
 *
 * The paper's nodes use an RFM TR1000-class transceiver on a single
 * shared channel. Every node lives in its own shard with its own
 * kernel (net::ParallelNetwork), so the channel is split in two: this
 * per-node Medium, which the transceiver talks to, and the
 * radio::AirExchange coordinator, which resolves collisions and
 * delivers words at window barriers (radio/air_exchange.hh has the
 * channel rules and the lookahead contract).
 *
 * beginTransmit() only records the word in a node-local outbox and
 * raises the local carrier; busy() answers CSMA sense from local
 * state. Carrier from other nodes and delivery offers arrive as kernel
 * events the exchange injects at barriers.
 *
 * Delivery accounting distinguishes *offered* words from *accepted*
 * ones: "air.words_delivered" counts only words the receiver actually
 * took (radio in Rx mode, RX FIFO not full); words offered but
 * dropped by the transceiver count in "air.drops_mode" /
 * "air.drops_fifo". Per receiver the channel arithmetic closes:
 * every clean offered word is exactly one of delivered / drops_mode /
 * drops_fifo, or a fault drop (drops_link / drops_dead).
 *
 * Thread safety: a Medium is touched only by the thread currently
 * running its shard's kernel, or by the coordinator while every shard
 * is paused at a barrier.
 */

#ifndef SNAPLE_RADIO_MEDIUM_HH
#define SNAPLE_RADIO_MEDIUM_HH

#include <cstdint>
#include <vector>

#include "obs/flow.hh"
#include "sim/kernel.hh"
#include "sim/logging.hh"
#include "sim/ticks.hh"

namespace snaple::radio {

class AirExchange;
class Transceiver;

/** What a receiver did with an offered word (Transceiver::deliver). */
enum class DeliverStatus
{
    Accepted,    ///< word pushed into the RX FIFO
    DroppedMode, ///< radio was not in Rx mode
    DroppedFifo, ///< RX FIFO was full
};

/** One node's port onto the channel; cross-node effects go through
 *  the AirExchange at window barriers. */
class Medium
{
  public:
    /** Snapshot view of the channel's "air.*" counters
     *  (AirExchange::stats()). */
    struct Stats
    {
        std::uint64_t wordsSent = 0;
        std::uint64_t wordsDelivered = 0; ///< accepted by a receiver
        std::uint64_t collisions = 0; ///< transmissions lost to overlap
        std::uint64_t dropsMode = 0;  ///< offered, radio not in Rx
        std::uint64_t dropsFifo = 0;  ///< offered, RX FIFO full
    };

    /** Register with @p exchange; registration order is node id. */
    Medium(sim::Kernel &kernel, AirExchange &exchange);

    Medium(const Medium &) = delete;
    Medium &operator=(const Medium &) = delete;

    /**
     * Bind the node's transceiver (one per medium). Attaching the same
     * transceiver again is a no-op.
     */
    void
    attach(Transceiver *t)
    {
        sim::panicIf(local_ != nullptr && local_ != t,
                     "medium already has a transceiver");
        local_ = t;
    }

    /**
     * CSMA sense: own transmission, or a remote carrier learned at a
     * window barrier. A remote word that started mid-window is sensed
     * only from the barrier on — the documented lookahead contract.
     * In field mode the exchange raises the remote carrier only where
     * the word is audible, so this stays a local test.
     */
    bool
    busy() const
    {
        return ownActive_ > 0 || remoteCarrier_ > 0;
    }

    /** Put @p word on the air for @p airtime (the transceiver's call).
     *  Out of line: reads the transceiver's side-band flow tag. */
    void beginTransmit(Transceiver *src, std::uint16_t word,
                       sim::Tick airtime);

    /** @name Snapshot support (src/snapshot/)
     * Every kernel event this medium schedules — own-carrier ends,
     * remote-carrier ends, delivery offers — is mirrored with the
     * kernel sequence number it got at schedule time. A checkpoint
     * serializes the mirrors; restore re-arms them in ascending saved
     * seq across the whole node, reproducing same-tick dispatch order
     * (docs/CHECKPOINT.md). Mirror entries are erased when their
     * event fires, so the mirrors always equal the pending events. */
    ///@{
    struct CarrierEnd
    {
        sim::Tick end = 0;
        std::uint64_t seq = 0;
    };
    struct PendingOffer
    {
        sim::Tick at = 0;
        std::uint16_t word = 0;
        std::uint16_t rssi = 0;
        std::uint64_t seq = 0;
        obs::FlowTag tag; ///< re-delivered with the word on restore
    };
    struct SavedState
    {
        std::uint32_t txSeq = 0;
        std::vector<CarrierEnd> ownEnds;
        std::vector<CarrierEnd> remoteEnds;
        std::vector<PendingOffer> offers;
    };

    /** Kernel events this medium owns right now (checkpoint
     *  eligibility accounting; bounded by the words in flight). */
    std::size_t
    pendingKernelEvents() const
    {
        return ownEnds_.size() + remoteEnds_.size() + offers_.size();
    }

    /** Serialize; fatal if the outbox or outcome counters are not
     *  empty (the barrier's exchange must have run). */
    SavedState saveState() const;
    /** Poke mirrors back; carrier counts are the mirror sizes. */
    void restoreState(const SavedState &s);

    /** Re-schedule one mirrored event, refreshing its stored seq
     *  (restore re-arm phase, ascending saved-seq order). */
    void rearmOwnEnd(std::size_t i);
    void rearmRemoteEnd(std::size_t i);
    void rearmOffer(std::size_t i);

    const std::vector<CarrierEnd> &ownEnds() const { return ownEnds_; }
    const std::vector<CarrierEnd> &remoteEnds() const
    {
        return remoteEnds_;
    }
    const std::vector<PendingOffer> &offers() const { return offers_; }
    ///@}

  private:
    friend class AirExchange;

    struct PendingTx
    {
        sim::Tick start;
        sim::Tick airtime;
        std::uint16_t word;
        std::uint32_t seq;
        obs::FlowTag tag; ///< side-band flow metadata (src/obs/flow.hh)
    };

    /** Delivery outcomes counted by the shard (its thread), drained
     *  by the coordinator at barriers. Plain integers: the two sides
     *  are ordered by the worker-pool barrier handoff. */
    struct Outcomes
    {
        std::uint64_t accepted = 0;
        std::uint64_t dropsMode = 0;
        std::uint64_t dropsFifo = 0;
    };

    /** Barrier-time injection: a remote carrier busy until @p end. */
    void
    remoteCarrierUntil(sim::Tick end)
    {
        ++remoteCarrier_;
        kernel_.schedule(end, [this, end] {
            dropEnd(remoteEnds_, end);
            --remoteCarrier_;
        });
        remoteEnds_.push_back(
            CarrierEnd{end, kernel_.lastScheduledSeq()});
    }

    /** Barrier-time injection: a word arriving at @p at with
     *  receiver-side signal strength @p rssi (0 = unknown) and its
     *  side-band flow tag. */
    void injectDelivery(sim::Tick at, std::uint16_t word,
                        std::uint16_t rssi, const obs::FlowTag &tag);

    /** Erase the mirror of a carrier-end event as it fires. Same-tick
     *  events fire in schedule order, so the first matching entry is
     *  the firing one. */
    static void
    dropEnd(std::vector<CarrierEnd> &v, sim::Tick end)
    {
        for (auto it = v.begin(); it != v.end(); ++it)
            if (it->end == end) {
                v.erase(it);
                return;
            }
        sim::panic("carrier-end event with no mirror entry");
    }

    /** The delivery callback body, shared by the live and re-armed
     *  paths. */
    void runOffer(std::uint16_t word, std::uint16_t rssi,
                  const obs::FlowTag &tag);

    sim::Kernel &kernel_;
    Transceiver *local_ = nullptr;
    std::uint32_t nodeId_ = 0; ///< assigned by AirExchange::addShard
    std::uint32_t txSeq_ = 0;
    unsigned ownActive_ = 0;
    unsigned remoteCarrier_ = 0;
    std::vector<PendingTx> outbox_;
    Outcomes outcomes_;
    std::vector<CarrierEnd> ownEnds_;
    std::vector<CarrierEnd> remoteEnds_;
    std::vector<PendingOffer> offers_;
};

} // namespace snaple::radio

#endif // SNAPLE_RADIO_MEDIUM_HH
