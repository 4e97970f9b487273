/**
 * @file
 * The SNAP/LE processor core.
 *
 * The core is modeled as two communicating hardware processes in the
 * CHP style, mirroring Figure 2 of the paper:
 *
 *  - the *fetch* process reads instruction words from the IMEM and
 *    streams decoded instructions to the execute process through a
 *    short token FIFO (the in-flight instruction tokens of Figure 2).
 *    On a control-transfer instruction it blocks until the execute
 *    process sends back a redirect token (SNAP/LE never speculates).
 *    On `done` it turns to the hardware event queue: if the queue is
 *    empty the whole core is quiescent — that *is* the sleep state —
 *    and the arrival of an event token restarts fetch after the
 *    18-gate-delay queue propagation (the paper's wake-up latency).
 *
 *  - the *execute* process decodes, reads operands (reads of r15
 *    dequeue the message coprocessor's outgoing FIFO), dispatches to
 *    the execution units over the fast or slow bus, performs memory
 *    accesses, and writes results back (writes to r15 enqueue into the
 *    incoming FIFO).
 *
 * Energy is charged per operation to the ledger categories that
 * reproduce the paper's section 4.4 breakdown.
 */

#ifndef SNAPLE_CORE_CORE_HH
#define SNAPLE_CORE_CORE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/context.hh"
#include "core/lfsr.hh"
#include "core/ports.hh"
#include "isa/instruction.hh"
#include "mem/sram.hh"
#include "ref/commit_log.hh"
#include "sim/metrics.hh"

namespace snaple::core {

/**
 * Execution fidelity of one core. Cycle is the CHP two-process model
 * with per-operation timing; Fast is the statistical tier: the
 * predecoded ref engine executing the same architectural semantics,
 * with time and energy charged from per-instruction-class calibration
 * coefficients (energy/class_cal.hh). Fixed per node: chosen at
 * start() (NodeConfig::fidelity) or taken from a snapshot at restore.
 */
enum class FidelityMode : std::uint8_t
{
    Cycle,
    Fast,
};

/** The SNAP/LE processor core (fetch + execute + register state). */
class SnapCore
{
  public:
    /** Per-event-type handler accounting. */
    struct HandlerStats
    {
        std::uint64_t activations = 0;
        std::uint64_t instructions = 0;

        double
        instructionsPerActivation() const
        {
            return activations
                       ? double(instructions) / double(activations)
                       : 0.0;
        }
    };

    /** Core statistics, the raw material for every experiment. */
    struct Stats
    {
        std::uint64_t instructions = 0;
        std::array<std::uint64_t, isa::kNumClasses> perClass{};
        /** Wall time and dynamic energy attributed per class (cycle
         *  tier: measured between retirements; fast tier: the charged
         *  coefficients). Raw material for `snap-report --calibrate`. */
        std::array<sim::Tick, isa::kNumClasses> perClassTicks{};
        std::array<double, isa::kNumClasses> perClassPj{};
        std::uint64_t wordsFetched = 0;
        std::uint64_t handlers = 0; ///< event tokens dispatched
        std::uint64_t sleeps = 0;   ///< active -> sleep transitions
        std::uint64_t wakeups = 0;  ///< sleep -> active transitions
        sim::Tick activeTime = 0;   ///< accumulated non-sleep time
        sim::Tick lastWake = 0;     ///< internal bookkeeping
        sim::Tick lastSleepStart = 0; ///< when the core last went idle
        /** Instruction counts attributed to each event's handler
         *  (index = isa::EventNum; boot code is unattributed). */
        std::array<HandlerStats, isa::kNumEvents> perEvent{};
        /** Active time attributed per handler slot (dispatch to
         *  `done`); slot NodeContext::kBootSlot is boot code. */
        std::array<sim::Tick, NodeContext::kHandlerSlots>
            handlerTicks{};
    };

    /** One wake/sleep interval, for activity timelines. */
    struct ActivitySpan
    {
        sim::Tick wake = 0;
        sim::Tick sleep = 0;
        std::uint8_t firstEvent = 0xff; ///< event that caused the wake
    };

    SnapCore(NodeContext &ctx, mem::Sram &imem, mem::Sram &dmem,
             EventQueue &event_queue, WordFifo &msg_in, WordFifo &msg_out,
             TimerPort &timer_port, std::string name = "core");

    SnapCore(const SnapCore &) = delete;
    SnapCore &operator=(const SnapCore &) = delete;
    ~SnapCore();

    /**
     * Spawn the core's processes onto the kernel: the CHP fetch +
     * execute pair (Cycle) or the statistical fast loop (Fast). Both
     * modes share all architectural state and counters, so the choice
     * is invisible to everything but timing/energy exactness.
     */
    void start(FidelityMode fidelity = FidelityMode::Cycle);

    FidelityMode fidelity() const { return fidelity_; }

    /** @name Host-side architectural state access (tests, loaders) */
    ///@{
    std::uint16_t reg(unsigned i) const;
    void setReg(unsigned i, std::uint16_t v);
    bool carry() const { return carry_; }
    void setCarry(bool c) { carry_ = c; }
    std::uint16_t handler(isa::EventNum e) const;
    void setHandler(isa::EventNum e, std::uint16_t addr);
    std::uint16_t lfsrState() const { return lfsr_.state(); }
    /** Reseed the guest-visible LFSR (determinism experiments). */
    void seedLfsr(std::uint16_t s) { lfsr_.seed(s); }
    ///@}

    /**
     * Attach a commit sink for differential co-simulation (see
     * ref/commit_log.hh); nullptr detaches. The core then emits one
     * record per retired instruction and per event dispatch. The
     * caller keeps the sink alive for the duration of the run.
     */
    void setCommitSink(ref::CommitSink *sink) { commitSink_ = sink; }

    /** Values emitted by `dbgout` (test/bench harness channel). */
    const std::vector<std::uint16_t> &debugOut() const
    {
        return debugOut_;
    }

    bool halted() const { return halted_; }
    bool asleep() const { return asleep_; }
    const Stats &stats() const { return stats_; }

    /** Enable wake/sleep interval recording (off by default; a
     *  recording core cannot be checkpointed). */
    void recordTimeline(bool on) { recordTimeline_ = on; }
    const std::vector<ActivitySpan> &timeline() const
    {
        return timeline_;
    }

    /** Active time including the current active period, if any. */
    sim::Tick
    activeTimeNow() const
    {
        if (asleep_ || halted_)
            return stats_.activeTime;
        return stats_.activeTime + (ctx_.kernel.now() - stats_.lastWake);
    }

    /**
     * Enable (or drop) the per-PC flat profile: every retirement is
     * attributed to its (pc, handler slot) with the time and dynamic
     * energy spent since the previous retirement. A few adds per
     * instruction plus ~imemWords * 8 profile slots of memory; off by
     * default.
     */
    void enableProfile(bool on);
    bool profileEnabled() const { return !profile_.empty(); }

    /** Non-empty flat-profile rows, ordered by (handler slot, pc). */
    std::vector<sim::ProfileRow> profileRows() const;

    /**
     * Mirror the hot-path Stats into the node's metrics registry
     * (counters "core.*", "handler.*"; docs/METRICS.md lists them).
     * Called at sample cadence, never on the hot path.
     */
    void publishMetrics();

    /** @name Snapshot support (src/snapshot/)
     * A core is only checkpointable while halted or asleep — the one
     * state where the whole two-process (or fast-loop) machine is
     * parked at a single architecturally defined point, the event
     * wait at `done`. Everything mid-instruction lives in coroutine
     * frames and is unserializable by design; checkpoint eligibility
     * (docs/CHECKPOINT.md) defers the barrier instead. */
    ///@{
    /** Serialized core state. Profile rows and the activity timeline
     *  are host instrumentation and are rejected at save time rather
     *  than silently dropped. */
    struct SavedState
    {
        std::array<std::uint16_t, isa::kNumPhysRegs> regs{};
        bool carry = false;
        std::uint16_t lfsr = 0;
        std::array<std::uint16_t, isa::kNumEvents> handlerTable{};
        bool halted = false;
        bool asleep = false;
        std::uint8_t currentEvent = 0xff;
        std::uint8_t fidelity = 0;
        std::vector<std::uint16_t> debugOut;
        Stats stats;
    };
    /** Serialize; fatal unless halted or asleep, or if profiling or
     *  recording the timeline.
     *  @p frozen waives the parked requirement for shards that will
     *  never run again (killed nodes): their architectural state is
     *  captured for reporting only and is never respawned. */
    SavedState saveState(bool frozen = false) const;
    /** Poke saved state back (before startRestored()). */
    void restoreState(const SavedState &s);
    /**
     * Respawn the executor directly into the parked event wait
     * (asleep cores); halted cores stay down — their processes
     * retired before the snapshot and nothing re-arms them.
     */
    void startRestored();
    ///@}

  private:
    /** Instruction packet flowing from fetch to execute. */
    struct InstPacket
    {
        isa::DecodedInst inst;
        std::uint16_t pcNext = 0; ///< address after this instruction
    };

    /** Control-flow resolution from execute back to fetch. */
    struct Redirect
    {
        enum class Kind
        {
            Goto,
            Done,
            Halt,
        };
        Kind kind = Kind::Goto;
        std::uint16_t pc = 0;
    };

    /** One (pc, handler slot) cell of the flat profile. */
    struct ProfSlot
    {
        std::uint64_t count = 0;
        sim::Tick ticks = 0;
        double pj = 0.0;
    };

    sim::Co<void> fetchProcess();
    sim::Co<void> executeProcess();
    /** The fast tier's single process (core/fast_core.cc). */
    sim::Co<void> fastProcess();

    /**
     * Shared handler-boundary bookkeeping, used by both executors at
     * `done`: close the current handler segment, sleep if the event
     * queue is empty, wait for a token, and perform the dispatch
     * (wake accounting, histograms, dispatch charge and delay, commit
     * record). Returns the handler pc.
     */
    sim::Co<std::uint16_t> awaitDispatch();

    /** Cold boot, shared by both executors: open the boot segment
     *  and the attribution markers at the current instant. */
    void beginBoot();
    /** `halt`, shared by both executors: close the last segment and
     *  the active period, and stop the kernel if configured to. */
    void retireHalt();

    /** Spawn the executor processes for fidelity_. */
    void spawnExecutor();

    /** Attribution slot for the current event (boot when 0xff). */
    std::size_t
    slotOf(std::uint8_t ev) const
    {
        return ev < isa::kNumEvents ? ev : NodeContext::kBootSlot;
    }

    /**
     * Bus transfer to/from the unit: charges the energy now and
     * returns the latency as a directly awaitable delay — a per-
     * instruction operation that must not cost a coroutine frame.
     */
    sim::Kernel::DelayAwaiter busTransfer(isa::Unit u);
    /** Execution-unit operation: latency + energy, frame-free. */
    sim::Kernel::DelayAwaiter unitOp(isa::Unit u);
    /** Charge a plain register-file read and return its delay. */
    sim::Kernel::DelayAwaiter regReadDelay();
    /** Charge a plain register-file write and return its delay. */
    sim::Kernel::DelayAwaiter regWriteDelay();

    NodeContext &ctx_;
    mem::Sram &imem_;
    mem::Sram &dmem_;
    EventQueue &eventQueue_;
    WordFifo &msgIn_;
    WordFifo &msgOut_;
    TimerPort &timerPort_;

    sim::Fifo<InstPacket> fetchQ_;
    sim::Channel<Redirect> redirect_;
    sim::TraceScope traceFetch_;
    sim::TraceScope traceExec_;

    std::array<std::uint16_t, isa::kNumPhysRegs> regs_{};
    bool carry_ = false;
    Lfsr16 lfsr_;
    std::array<std::uint16_t, isa::kNumEvents> handlerTable_{};

    bool halted_ = false;
    bool asleep_ = false;
    /** Event whose handler is currently executing (0xff = boot). */
    std::uint8_t currentEvent_ = 0xff;
    bool recordTimeline_ = false;
    ref::CommitSink *commitSink_ = nullptr;
    std::vector<ActivitySpan> timeline_;
    std::vector<std::uint16_t> debugOut_;
    Stats stats_;

    /** Start of the current handler (or boot) activity segment. */
    sim::Tick segStart_ = 0;

    /** Event-queue wait-latency histograms (enqueue to dispatch):
     *  one combined plus one per event type, registered up front so
     *  the hot path only dereferences. */
    sim::MetricHistogram *evqWaitAll_;
    std::array<sim::MetricHistogram *, isa::kNumEvents> evqWait_;

    /** Flat profile storage, pc-major: [pc * kHandlerSlots + slot].
     *  Empty when profiling is off. */
    std::vector<ProfSlot> profile_;
    sim::Tick profLastTick_ = 0;
    double profLastPj_ = 0.0;

    /** Per-class attribution markers (time/energy since the previous
     *  retirement; reset at dispatch like the profile markers). */
    sim::Tick classLastTick_ = 0;
    double classLastPj_ = 0.0;

    FidelityMode fidelity_ = FidelityMode::Cycle;
    /** Restore-time entry: the freshly spawned executor parks at the
     *  event wait without redoing the sleep-entry bookkeeping (it all
     *  happened before the snapshot). Cleared by awaitDispatch. */
    bool restoredAsleep_ = false;

    /** Fast-tier working state (core/fast_core.cc), created when the
     *  fast process starts; opaque here so the cycle tier does not pay
     *  for it. */
    struct FastTier;
    std::unique_ptr<FastTier> fast_;
};

} // namespace snaple::core

#endif // SNAPLE_CORE_CORE_HH
