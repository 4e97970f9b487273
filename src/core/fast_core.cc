/**
 * @file
 * The fast fidelity tier: one process executing predecoded
 * instructions natively and charging statistical time/energy.
 *
 * Architectural semantics come from the shared predecoded engine
 * (ref/predecode.hh) — the same code audited against the cycle tier by
 * the snap_diff lockstep harness — driven here by an Env bound to the
 * live core: real register file, real memories, real coprocessor
 * FIFOs. The CHP fetch/execute pair is replaced by a single coroutine
 * that runs up to kFlushBudget instructions per kernel slice and then
 * settles the books: per-instruction-class counts are converted to one
 * delay and a handful of ledger charges through the CoreConfig
 * calibration table (energy/class_cal.hh). Books are also settled
 * before anything externally visible — an r15 FIFO access, a timer
 * command, the event wait at `done` — so inter-node interactions
 * happen at statistically correct times.
 *
 * Deliberately not modeled at this tier: per-instruction trace events
 * (CoreFetch/CoreExec), the per-PC flat profile, and per-instruction
 * commit records (the sink still sees Dispatch records from the shared
 * handler-boundary path).
 */

#include "core/core.hh"

#include "ref/predecode.hh"

namespace snaple::core {

using energy::Cat;
using sim::Co;
using sim::Tick;

namespace {

/** Instructions executed per kernel slice between settlements. */
constexpr std::uint64_t kFlushBudget = 1024;

/** Statistics class of each fused opcode (PKind order). */
constexpr isa::InstrClass
classOfKind(ref::pre::PKind k)
{
    using K = ref::pre::PKind;
    using C = isa::InstrClass;
    switch (k) {
      case K::AddR: case K::SubR: case K::AddcR: case K::SubcR:
      case K::MovR: case K::NegR:
        return C::ArithReg;
      case K::AndR: case K::OrR: case K::XorR: case K::NotR:
        return C::LogicalReg;
      case K::SllR: case K::SrlR: case K::SraR:
        return C::Shift;
      case K::AddI: case K::SubI: case K::AddcI: case K::SubcI:
      case K::MovI:
        return C::ArithImm;
      case K::AndI: case K::OrI: case K::XorI:
        return C::LogicalImm;
      case K::SllI: case K::SrlI: case K::SraI:
        return C::ShiftImm;
      case K::Ldw: return C::Load;
      case K::Stw: return C::Store;
      case K::Ldi: return C::LoadI;
      case K::Sti: return C::StoreI;
      case K::Beqz: case K::Bnez: case K::Bltz: case K::Bgez:
        return C::Branch;
      case K::JmpI: case K::Jal: case K::Jr: case K::Jalr:
        return C::Jump;
      case K::Bfs: return C::BitField;
      case K::RandR: case K::SeedR: return C::Rand;
      case K::Timer: return C::Timer;
      case K::Done: case K::SetAddr: return C::EventCtl;
      case K::Nop: case K::Halt: case K::Dbgout: return C::Sys;
      default: return C::Sys; // AluBad/Invalid never retire
    }
}

} // namespace

/** Fast-tier working state, opaque to core.hh. */
struct SnapCore::FastTier
{
    /** Which engine I/O is waiting on the process loop. */
    enum class StallKind : std::uint8_t
    {
        None,
        R15Read,
        R15Write,
        Timer,
    };

    std::vector<ref::pre::PLine> lines;
    std::uint16_t pc = 0;

    // Stall-stash protocol: the engine mutates no architectural state
    // before a stalled I/O, so the process loop performs the blocking
    // operation, records its result here, and re-enters the engine,
    // which re-executes the instruction and consumes the result.
    StallKind stallKind = StallKind::None;
    bool ioDone = false;          ///< pending write/timer completed
    std::uint16_t pendingWord = 0;
    TimerCmd pendingTimer{};
    /** r15 words already dequeued for the stalled instruction, in
     *  program order; cleared at every retirement. */
    std::vector<std::uint16_t> replay;
    std::size_t replayCursor = 0;

    // Per-class retirement counts since the last settlement.
    std::array<std::uint64_t, isa::kNumClasses> counts{};
    std::uint64_t words = 0;
    std::uint64_t instrs = 0;

    /**
     * Settle the accumulated counts: charge each class's calibrated
     * per-category energy, accumulate the Stats mirrors, and return
     * the total pipeline-occupancy delay to sleep for.
     */
    Tick
    flush(SnapCore &c)
    {
        Tick total = 0;
        for (std::size_t k = 0; k < isa::kNumClasses; ++k) {
            const std::uint64_t n = counts[k];
            if (n == 0)
                continue;
            const energy::ClassCost &cc = c.ctx_.cfg.classCal.cost[k];
            const double before = c.ctx_.chargedPj();
            for (std::size_t cat = 0; cat < energy::kNumCats; ++cat)
                if (cc.pj[cat] != 0)
                    c.ctx_.charge(static_cast<Cat>(cat),
                                  double(n) * cc.pj[cat]);
            const Tick t = c.ctx_.gd(double(n) * cc.gd);
            c.stats_.perClass[k] += n;
            c.stats_.perClassTicks[k] += t;
            c.stats_.perClassPj[k] += c.ctx_.chargedPj() - before;
            total += t;
            counts[k] = 0;
        }
        c.stats_.instructions += instrs;
        if (c.currentEvent_ < isa::kNumEvents)
            c.stats_.perEvent[c.currentEvent_].instructions += instrs;
        instrs = 0;
        c.stats_.wordsFetched += words;
        words = 0;
        return total;
    }

    /** The predecoded engine's environment, bound to the live core. */
    struct Env
    {
        SnapCore &c;
        FastTier &t;

        std::uint16_t *regs() { return c.regs_.data(); }
        std::uint16_t *handlers() { return c.handlerTable_.data(); }
        std::uint16_t *imem() { return c.imem_.data(); }
        std::uint16_t *dmem() { return c.dmem_.data(); }
        ref::pre::PLine *lines() { return t.lines.data(); }
        std::uint16_t pc() { return t.pc; }
        void setPc(std::uint16_t v) { t.pc = v; }
        bool carry() { return c.carry_; }
        void setCarry(bool v) { c.carry_ = v; }
        std::uint16_t lfsr() { return c.lfsr_.state(); }
        void setLfsr(std::uint16_t v) { c.lfsr_.seed(v); }
        unsigned mutation() { return 0; }

        void
        beginInstr(std::uint16_t, const ref::pre::PLine &)
        {
            t.replayCursor = 0;
        }

        bool
        readR15(std::uint16_t &v)
        {
            if (t.replayCursor < t.replay.size()) {
                v = t.replay[t.replayCursor++];
                return true;
            }
            t.stallKind = StallKind::R15Read;
            return false;
        }

        bool
        writeR15(std::uint16_t v)
        {
            if (t.ioDone) {
                t.ioDone = false;
                return true;
            }
            t.pendingWord = v;
            t.stallKind = StallKind::R15Write;
            return false;
        }

        bool
        timerCmd(std::uint8_t fn, std::uint8_t reg, std::uint16_t v)
        {
            if (t.ioDone) {
                t.ioDone = false;
                return true;
            }
            t.pendingTimer =
                TimerCmd{static_cast<isa::TimerFn>(fn), reg, v};
            t.stallKind = StallKind::Timer;
            return false;
        }

        void noteRegWrite(unsigned, std::uint16_t) {}
        void noteMemWrite(bool, std::uint16_t, std::uint16_t) {}
        void dbgout(std::uint16_t v) { c.debugOut_.push_back(v); }

        void
        retire(const ref::pre::PLine &ln, std::uint16_t, bool)
        {
            ++t.counts[static_cast<std::size_t>(classOfKind(ln.kind))];
            t.words += ln.len;
            ++t.instrs;
            t.replay.clear();
            t.stallKind = StallKind::None;
        }

        void
        retireDone(const ref::pre::PLine &ln, std::uint16_t pc, bool carry)
        {
            retire(ln, pc, carry);
        }

        /** The process loop dispatches through awaitDispatch(). */
        int nextEvent() { return ref::pre::kEventsAsync; }
        void noteDispatch(std::uint8_t, std::uint16_t) {}
    };
};

// Constructor and destructor are out of line here because the
// unique_ptr<FastTier> member needs FastTier complete to instantiate
// its deleter.
SnapCore::SnapCore(NodeContext &ctx, mem::Sram &imem, mem::Sram &dmem,
                   EventQueue &event_queue, WordFifo &msg_in,
                   WordFifo &msg_out, TimerPort &timer_port,
                   std::string name)
    : ctx_(ctx), imem_(imem), dmem_(dmem), eventQueue_(event_queue),
      msgIn_(msg_in), msgOut_(msg_out), timerPort_(timer_port),
      fetchQ_(ctx.kernel, ctx.cfg.fetchQueueDepth, 0, name + ".fetchq"),
      redirect_(ctx.kernel, 0, name + ".redirect"),
      traceFetch_(ctx.kernel, name + ".fetch"),
      traceExec_(ctx.kernel, name + ".exec"),
      evqWaitAll_(&ctx.metrics.histogram("core.evq_wait_ticks"))
{
    for (std::size_t e = 0; e < isa::kNumEvents; ++e)
        evqWait_[e] = &ctx.metrics.histogram(
            std::string("core.evq_wait_ticks.") +
            std::string(isa::eventName(static_cast<isa::EventNum>(e))));
}

SnapCore::~SnapCore() = default;

Co<void>
SnapCore::fastProcess()
{
    sim::fatalIf(imem_.words() != ref::pre::kMemWords ||
                     dmem_.words() != ref::pre::kMemWords,
                 "fast fidelity requires the architected ",
                 ref::pre::kMemWords, "-word memory banks (imem ",
                 imem_.words(), ", dmem ", dmem_.words(), ")");
    if (!fast_) {
        fast_ = std::make_unique<FastTier>();
        fast_->lines.resize(ref::pre::kMemWords);
    }
    FastTier &ft = *fast_;
    if (restoredAsleep_) {
        // Respawned from a snapshot of a sleeping core: park at the
        // event wait. The predecoded lines start empty, rebuilding
        // lazily and deterministically.
        ft.pc = co_await awaitDispatch();
    } else {
        beginBoot();
    }
    FastTier::Env env{*this, ft};
    for (;;) {
        const ref::pre::PStop stop =
            ref::pre::runPredecoded(env, kFlushBudget);
        const Tick cost = ft.flush(*this);
        if (cost)
            co_await ctx_.kernel.delay(cost);
        switch (stop) {
          case ref::pre::PStop::StepLimit:
            break; // books settled; keep executing
          case ref::pre::PStop::Stall:
            switch (ft.stallKind) {
              case FastTier::StallKind::R15Read: {
                ctx_.charge(Cat::Coproc, ctx_.ecal.msgWordPj);
                const std::uint16_t w = co_await msgOut_.recv();
                ft.replay.push_back(w);
                break;
              }
              case FastTier::StallKind::R15Write:
                ctx_.charge(Cat::Coproc, ctx_.ecal.msgWordPj);
                co_await msgIn_.send(ft.pendingWord);
                ft.ioDone = true;
                break;
              case FastTier::StallKind::Timer:
                co_await timerPort_.send(ft.pendingTimer);
                ft.ioDone = true;
                break;
              case FastTier::StallKind::None:
                sim::panic("fast tier: stall without pending I/O");
            }
            ft.stallKind = FastTier::StallKind::None;
            break;
          case ref::pre::PStop::Done:
            ft.pc = co_await awaitDispatch();
            break;
          case ref::pre::PStop::Halt:
            retireHalt();
            co_return;
          case ref::pre::PStop::DecodeError:
            sim::fatal("fast tier: illegal instruction at pc ", ft.pc,
                       " (word ", imem_.peek(ft.pc), ")");
          case ref::pre::PStop::EventsExhausted:
            sim::panic("fast tier: unexpected engine stop");
        }
    }
}

} // namespace snaple::core
