/**
 * @file
 * Versioned, byte-stable network snapshots (docs/CHECKPOINT.md).
 *
 * A NetworkSnapshot is everything live at a checkpoint-eligible
 * barrier: per-shard kernel time and mirrored event deadlines, core
 * architectural and accounting state in both fidelity tiers, memories,
 * hardware FIFOs, coprocessor phases, radio and medium state, energy
 * ledgers, metrics registries and trace-hash continuations, plus the
 * coordinator-side air exchange and metrics cadence. Restoring it onto
 * an identically built ParallelNetwork continues the run bit-exactly
 * for any jobs() count on either side.
 *
 * The on-disk form is `magic | version | payload | fnv1a64 checksum`,
 * little-endian throughout (snapshot/codec.hh). Same state encodes to
 * the same bytes — encode(decode(encode(x))) == encode(x) — which is
 * what lets golden files and the replay bisector compare snapshots
 * with memcmp.
 */

#ifndef SNAPLE_SNAPSHOT_SNAPSHOT_HH
#define SNAPLE_SNAPSHOT_SNAPSHOT_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "coproc/message.hh"
#include "coproc/timer.hh"
#include "core/context.hh"
#include "core/core.hh"
#include "energy/ledger.hh"
#include "obs/energest.hh"
#include "obs/flow.hh"
#include "radio/air_exchange.hh"
#include "sim/metrics.hh"
#include "sim/ticks.hh"

namespace snaple::snapshot {

/** "SNPS" */
inline constexpr std::uint32_t kMagic = 0x53504e53u;
/** Bump on any schema change; readers reject other versions.
 *  v2: flow tags on in-flight words and pending offers, per-node
 *  flow-tracker and energest duty-ledger state (src/obs/).
 *  v3: same layout, but the stored per-node traceHash is a trace hash
 *  v2 value (word at a time, src/sim/trace.hh). A restored v2 file
 *  would continue its hash ladder under a different function, so it
 *  is refused rather than silently resumed.
 *  v4: the core drops its pending fidelity, fast-tier pc, timeline
 *  flag and timeline spans (12 bytes fewer per node): the tier is
 *  fixed per node, the pc is dead while parked, and a recording core
 *  is refused at save time. */
inline constexpr std::uint32_t kFormatVersion = 4;

/** One hardware FIFO's full state (buffer plus flow counters). */
struct FifoState
{
    std::vector<std::uint16_t> words;
    std::uint64_t accepted = 0;
    std::uint64_t dropped = 0;
};

/** One buffered event-queue token (core::EventToken). */
struct EventTokenRec
{
    std::uint8_t num = 0;
    sim::Tick at = 0;
};

/** The hardware event queue's full state. */
struct EvqState
{
    std::vector<EventTokenRec> tokens;
    std::uint64_t accepted = 0;
    std::uint64_t dropped = 0;
};

/** Everything live in one shard. */
struct NodeState
{
    bool halted = false;
    bool dead = false;
    sim::Tick deathAt = 0;
    /** The shard kernel's clock: the barrier tick for live shards,
     *  the (earlier) freeze tick for halted/dead ones. */
    sim::Tick kernelNow = 0;
    std::uint64_t kernelDispatched = 0;
    std::uint64_t traceHash = 0;
    std::uint64_t traceCount = 0;

    core::SnapCore::SavedState core;
    std::vector<std::uint16_t> imem;
    std::vector<std::uint16_t> dmem;
    EvqState evq;
    FifoState msgIn;
    FifoState msgOut;

    std::array<coproc::TimerCoproc::Timer, 3> timers{};
    std::vector<coproc::TimerCoproc::ExpireRec> timerExpires;
    coproc::MessageCoproc::SavedState msg;

    bool hasRadio = false;
    std::uint8_t radioMode = 0;
    std::uint16_t radioLastRssi = 0;
    sim::Tick radioListenAccruedTo = 0;
    FifoState radioRx;
    radio::Medium::SavedState medium;

    std::array<double, energy::kNumCats> ledgerPj{};
    sim::Tick leakAccruedTo = 0;
    double chargedPj = 0.0;
    std::array<double, core::NodeContext::kHandlerSlots> handlerPj{};

    /** Flow-tracer context and energest duty ledger (src/obs/): a
     *  restored run continues the span stream and the energest.*
     *  gauges bit-exactly. */
    obs::FlowTracker::SavedState flow;
    obs::Energest::SavedState energest;

    std::vector<sim::MetricsRegistry::SavedInstrument> metrics;
};

/** The whole network at one eligible barrier. */
struct NetworkSnapshot
{
    sim::Tick snapTick = 0;
    sim::Tick window = 0;
    radio::AirExchange::SavedState air;

    // Metrics-stream continuation: a restored run picks up the sample
    // cadence mid-stream without re-emitting the meta header.
    sim::Tick metricsNext = 0;
    sim::Tick metricsLastAt = 0;
    bool metricsMetaWritten = false;

    std::vector<NodeState> nodes;

    /**
     * Host-side per-node RNG streams (one word per node, 0 = absent).
     * The network layer knows nothing about host sensors; the scenario
     * runner fills and applies this around checkpoint()/restore().
     */
    std::vector<std::uint64_t> userRng;
};

/** Encode to the framed, checksummed byte form. */
std::string encodeSnapshot(const NetworkSnapshot &snap);

/**
 * Decode; throws sim::FatalError on bad magic, unsupported version,
 * checksum mismatch, truncation or trailing garbage.
 */
NetworkSnapshot decodeSnapshot(std::string_view bytes);

/** Write/read the framed form to a file; fatal on I/O errors. */
void writeSnapshotFile(const NetworkSnapshot &snap,
                       const std::string &path);
NetworkSnapshot readSnapshotFile(const std::string &path);

} // namespace snaple::snapshot

#endif // SNAPLE_SNAPSHOT_SNAPSHOT_HH
