#include "core/core.hh"

namespace snaple::core {

using energy::Cat;
using isa::AluFn;
using isa::DecodedInst;
using isa::EventFn;
using isa::InstrClass;
using isa::JmpFn;
using isa::Op;
using isa::SysFn;
using isa::TimerFn;
using isa::Unit;
using sim::Co;
using sim::Tick;

// The constructor and destructor live in fast_core.cc, where the
// opaque FastTier (behind the unique_ptr member) is a complete type.

void
SnapCore::start(FidelityMode fidelity)
{
    fidelity_ = fidelity;
    spawnExecutor();
}

void
SnapCore::spawnExecutor()
{
    if (fidelity_ == FidelityMode::Fast) {
        ctx_.kernel.spawn(fastProcess(), "fast");
    } else {
        ctx_.kernel.spawn(fetchProcess(), "fetch");
        ctx_.kernel.spawn(executeProcess(), "execute");
    }
}

void
SnapCore::beginBoot()
{
    stats_.lastWake = ctx_.kernel.now();
    segStart_ = stats_.lastWake;
    profLastTick_ = stats_.lastWake;
    profLastPj_ = ctx_.chargedPj();
    classLastTick_ = stats_.lastWake;
    classLastPj_ = profLastPj_;
}

void
SnapCore::retireHalt()
{
    halted_ = true;
    const Tick now = ctx_.kernel.now();
    stats_.handlerTicks[slotOf(currentEvent_)] += now - segStart_;
    stats_.activeTime += now - stats_.lastWake;
    if (ctx_.cfg.stopOnHalt)
        ctx_.kernel.stop();
}

SnapCore::SavedState
SnapCore::saveState(bool frozen) const
{
    sim::fatalIf(!frozen && !halted_ && !asleep_,
                 "snapshot of a running core (eligibility should have "
                 "deferred this barrier)");
    sim::fatalIf(profileEnabled(),
                 "snapshot with the flat profile enabled: profile rows "
                 "are not serialized; disable profiling to checkpoint");
    sim::fatalIf(recordTimeline_,
                 "snapshot with the activity timeline recording: spans "
                 "are not serialized; disable the timeline to checkpoint");
    SavedState s;
    s.regs = regs_;
    s.carry = carry_;
    s.lfsr = lfsr_.state();
    s.handlerTable = handlerTable_;
    s.halted = halted_;
    s.asleep = asleep_;
    s.currentEvent = currentEvent_;
    s.fidelity = static_cast<std::uint8_t>(fidelity_);
    s.debugOut = debugOut_;
    s.stats = stats_;
    return s;
}

void
SnapCore::restoreState(const SavedState &s)
{
    sim::fatalIf(s.fidelity > 1, "snapshot: bad core fidelity mode");
    sim::fatalIf(s.currentEvent != 0xff &&
                     s.currentEvent >= isa::kNumEvents,
                 "snapshot: bad current event");
    regs_ = s.regs;
    carry_ = s.carry;
    lfsr_.seed(s.lfsr);
    handlerTable_ = s.handlerTable;
    halted_ = s.halted;
    asleep_ = s.asleep;
    currentEvent_ = s.currentEvent;
    fidelity_ = static_cast<FidelityMode>(s.fidelity);
    debugOut_ = s.debugOut;
    stats_ = s.stats;
}

void
SnapCore::startRestored()
{
    if (halted_)
        return;
    sim::panicIf(!asleep_, "startRestored on a running core");
    restoredAsleep_ = true;
    spawnExecutor();
}

std::uint16_t
SnapCore::reg(unsigned i) const
{
    sim::fatalIf(i >= isa::kNumPhysRegs, "reg index out of range: ", i);
    return regs_[i];
}

void
SnapCore::setReg(unsigned i, std::uint16_t v)
{
    sim::fatalIf(i >= isa::kNumPhysRegs, "reg index out of range: ", i);
    regs_[i] = v;
}

std::uint16_t
SnapCore::handler(isa::EventNum e) const
{
    return handlerTable_[static_cast<std::size_t>(e)];
}

void
SnapCore::setHandler(isa::EventNum e, std::uint16_t addr)
{
    handlerTable_[static_cast<std::size_t>(e)] = addr;
}

Co<void>
SnapCore::fetchProcess()
{
    std::uint16_t pc = 0;
    if (restoredAsleep_) {
        // Respawned from a snapshot of a sleeping core: park at the
        // event wait as if we had just executed `done`.
        pc = co_await awaitDispatch();
    } else {
        beginBoot();
    }
    for (;;) {
        // Fetch (and minimally predecode) one instruction.
        co_await ctx_.kernel.delay(ctx_.gd(ctx_.tcal.fetchCycleGd));
        ctx_.charge(Cat::Fetch, ctx_.ecal.fetchPerWordPj);
        ctx_.charge(Cat::MemIf, ctx_.ecal.memIfPerWordPj);
        std::uint16_t word = co_await imem_.read(pc);
        ++stats_.wordsFetched;
        traceFetch_.emit(sim::TraceEvent::CoreFetch, pc, word);

        DecodedInst d = isa::decodeFirst(word);
        std::uint16_t pc_next = static_cast<std::uint16_t>(pc + 1);
        if (d.twoWord) {
            co_await ctx_.kernel.delay(ctx_.gd(ctx_.tcal.fetchCycleGd));
            ctx_.charge(Cat::Fetch, ctx_.ecal.fetchPerWordPj);
            ctx_.charge(Cat::MemIf, ctx_.ecal.memIfPerWordPj);
            d.imm = co_await imem_.read(pc_next);
            ++stats_.wordsFetched;
            traceFetch_.emit(sim::TraceEvent::CoreFetch, pc_next, d.imm);
            pc_next = static_cast<std::uint16_t>(pc_next + 1);
        }

        const bool control = d.isControl();
        co_await fetchQ_.send(InstPacket{d, pc_next});
        if (!control) {
            pc = pc_next;
            continue;
        }

        // Non-speculative: wait for the execute process to resolve.
        Redirect r = co_await redirect_.recv();
        switch (r.kind) {
          case Redirect::Kind::Goto:
            pc = r.pc;
            break;
          case Redirect::Kind::Halt:
            retireHalt();
            co_return;
          case Redirect::Kind::Done:
            pc = co_await awaitDispatch();
            break;
        }
    }
}

Co<std::uint16_t>
SnapCore::awaitDispatch()
{
    // End of handler: return to the event queue. With no pending
    // token all switching activity ceases — SNAP/LE's single,
    // zero-power sleep state.
    //
    // The restored-asleep entry skips the whole sleep-entry block:
    // the original run did that bookkeeping before the snapshot and
    // it is all captured in the serialized Stats. Only the wake half
    // still has to run here.
    const bool restored = restoredAsleep_;
    restoredAsleep_ = false;
    const bool sleeping = restored || eventQueue_.empty();
    Tick slept_at = ctx_.kernel.now();
    if (!restored)
        stats_.handlerTicks[slotOf(currentEvent_)] +=
            slept_at - segStart_;
    if (sleeping && !restored) {
        asleep_ = true;
        ++stats_.sleeps;
        stats_.lastSleepStart = slept_at;
        stats_.activeTime += slept_at - stats_.lastWake;
        // Background charges while asleep (e.g. leakage samples) are
        // nobody's handler.
        ctx_.activeHandler = 0xff;
        traceFetch_.emit(sim::TraceEvent::CoreSleep);
        if (recordTimeline_) {
            timeline_.push_back(
                ActivitySpan{stats_.lastWake, slept_at, currentEvent_});
        }
    }
    EventToken tok = co_await eventQueue_.recv();
    if (sleeping) {
        asleep_ = false;
        ++stats_.wakeups;
        stats_.lastWake = ctx_.kernel.now();
        traceFetch_.emit(sim::TraceEvent::CoreWake, tok.num);
    }
    {
        // Enqueue-to-dispatch wait: how long the token sat in the
        // hardware queue (plus the wake propagation).
        const Tick dispatched = ctx_.kernel.now();
        const Tick waited =
            dispatched >= tok.at ? dispatched - tok.at : 0;
        evqWaitAll_->record(waited);
        if (tok.num < isa::kNumEvents)
            evqWait_[tok.num]->record(waited);
    }
    currentEvent_ = tok.num;
    ctx_.activeHandler = tok.num;
    segStart_ = ctx_.kernel.now();
    profLastTick_ = segStart_;
    profLastPj_ = ctx_.chargedPj();
    classLastTick_ = segStart_;
    classLastPj_ = profLastPj_;
    ++stats_.perEvent[tok.num].activations;
    traceFetch_.emit(sim::TraceEvent::CoreHandler, tok.num);
    // Handler-table dispatch.
    ctx_.charge(Cat::Fetch, ctx_.ecal.eventDispatchPj);
    co_await ctx_.kernel.delay(ctx_.gd(4));
    ++stats_.handlers;
    sim::fatalIf(tok.num >= isa::kNumEvents, "bad event token ",
                 int(tok.num));
    const std::uint16_t pc = handlerTable_[tok.num];
    if (commitSink_) {
        ref::CommitRecord disp;
        disp.kind = ref::CommitKind::Dispatch;
        disp.event = tok.num;
        disp.pc = pc;
        commitSink_->commit(disp);
    }
    co_return pc;
}

sim::Kernel::DelayAwaiter
SnapCore::regReadDelay()
{
    ctx_.charge(Cat::Datapath, ctx_.ecal.regReadPj);
    return ctx_.kernel.delay(ctx_.gd(ctx_.tcal.regReadGd));
}

sim::Kernel::DelayAwaiter
SnapCore::regWriteDelay()
{
    ctx_.charge(Cat::Datapath, ctx_.ecal.regWritePj);
    return ctx_.kernel.delay(ctx_.gd(ctx_.tcal.regWriteGd));
}

sim::Kernel::DelayAwaiter
SnapCore::busTransfer(Unit u)
{
    double gd;
    double pj;
    if (ctx_.cfg.flatBus) {
        // Ablation: every unit hangs off one heavily loaded bus.
        gd = ctx_.cfg.flatBusGd;
        pj = ctx_.cfg.flatBusPj;
    } else if (isa::onFastBus(u)) {
        gd = ctx_.tcal.busFastGd;
        pj = ctx_.ecal.busFastPj;
    } else {
        // Slow-bus units reach the register file through the fast bus.
        gd = ctx_.tcal.busFastGd + ctx_.tcal.busSlowGd;
        pj = ctx_.ecal.busFastPj + ctx_.ecal.busSlowPj;
    }
    ctx_.charge(Cat::Datapath, pj);
    return ctx_.kernel.delay(ctx_.gd(gd));
}

sim::Kernel::DelayAwaiter
SnapCore::unitOp(Unit u)
{
    double gd = 0;
    double pj = 0;
    switch (u) {
      case Unit::Adder:
        gd = ctx_.tcal.adderGd;
        pj = ctx_.ecal.adderPj;
        break;
      case Unit::Logic:
        gd = ctx_.tcal.logicGd;
        pj = ctx_.ecal.logicPj;
        break;
      case Unit::Shifter:
        gd = ctx_.tcal.shifterGd;
        pj = ctx_.ecal.shifterPj;
        break;
      case Unit::Lfsr:
        gd = ctx_.tcal.lfsrGd;
        pj = ctx_.ecal.lfsrPj;
        break;
      case Unit::Branch:
        gd = ctx_.tcal.branchGd;
        pj = ctx_.ecal.branchPj;
        break;
      case Unit::LdStD:
      case Unit::LdStI:
        gd = ctx_.tcal.ldstGd;
        pj = ctx_.ecal.ldstPj;
        break;
      case Unit::TimerIf:
        gd = ctx_.tcal.timerIfGd;
        pj = ctx_.ecal.timerIfPj;
        break;
      default:
        sim::panic("unitOp on unknown unit");
    }
    ctx_.charge(Cat::Datapath, pj);
    return ctx_.kernel.delay(ctx_.gd(gd));
}

Co<void>
SnapCore::executeProcess()
{
    for (;;) {
        InstPacket p = co_await fetchQ_.recv();
        const DecodedInst &d = p.inst;

        co_await ctx_.kernel.delay(ctx_.gd(ctx_.tcal.decodeGd));
        ctx_.charge(Cat::Decode, ctx_.ecal.decodePj);
        ctx_.charge(Cat::Misc, ctx_.ecal.miscPj);

        ref::CommitRecord rec; // populated along the way, committed
                               // at retirement when a sink is attached

        std::uint16_t vd = 0;
        std::uint16_t vs = 0;
        // Operand reads, inlined to stay frame-free: r15 dequeues the
        // message coprocessor's outgoing FIFO (the core stalls while
        // it is empty, section 3.3); every other register is a plain
        // register-file read.
        if (d.readsRd) {
            if (d.rd == isa::kMsgReg) {
                ctx_.charge(Cat::Coproc, ctx_.ecal.msgWordPj);
                vd = co_await msgOut_.recv();
                rec.fifoRead[rec.fifoReads++] = vd;
            } else {
                co_await regReadDelay();
                vd = regs_[d.rd];
            }
        }
        if (d.readsRs) {
            if (d.rs == isa::kMsgReg) {
                ctx_.charge(Cat::Coproc, ctx_.ecal.msgWordPj);
                vs = co_await msgOut_.recv();
                rec.fifoRead[rec.fifoReads++] = vs;
            } else {
                co_await regReadDelay();
                vs = regs_[d.rs];
            }
        }

        const bool usesUnit =
            !(d.op == Op::Event && d.eventFn() == EventFn::Done) &&
            !(d.op == Op::Sys);
        if (usesUnit) {
            co_await busTransfer(d.unit); // operands to the unit
            co_await unitOp(d.unit);
        }

        bool write_result = d.writesRd;
        std::uint16_t result = 0;
        Redirect redir;
        bool send_redirect = false;

        auto set_arith = [&](std::uint32_t wide) {
            carry_ = (wide >> 16) & 1;
            result = static_cast<std::uint16_t>(wide);
        };

        switch (d.op) {
          case Op::AluR:
          case Op::AluI: {
            const std::uint16_t b = (d.op == Op::AluI) ? d.imm : vs;
            switch (d.aluFn()) {
              case AluFn::Add:
                set_arith(std::uint32_t(vd) + b);
                break;
              case AluFn::Addc:
                set_arith(std::uint32_t(vd) + b + (carry_ ? 1 : 0));
                break;
              case AluFn::Sub:
                // Subtraction as vd + ~b + 1; carry is "no borrow".
                set_arith(std::uint32_t(vd) + (~b & 0xffffu) + 1);
                break;
              case AluFn::Subc:
                set_arith(std::uint32_t(vd) + (~b & 0xffffu) +
                          (carry_ ? 1 : 0));
                break;
              case AluFn::And: result = vd & b; break;
              case AluFn::Or: result = vd | b; break;
              case AluFn::Xor: result = vd ^ b; break;
              case AluFn::Not: result = ~b; break;
              case AluFn::Sll:
                result = static_cast<std::uint16_t>(vd << (b & 15));
                break;
              case AluFn::Srl:
                result = static_cast<std::uint16_t>(vd >> (b & 15));
                break;
              case AluFn::Sra:
                result = static_cast<std::uint16_t>(
                    static_cast<std::int16_t>(vd) >> (b & 15));
                break;
              case AluFn::Mov: result = b; break;
              case AluFn::Neg:
                result = static_cast<std::uint16_t>(-b);
                break;
              case AluFn::Rand: result = lfsr_.next(); break;
              case AluFn::Seed: lfsr_.seed(vs); break;
            }
            break;
          }
          case Op::Ldw:
            result = co_await dmem_.read(
                static_cast<std::uint16_t>(vs + d.imm));
            break;
          case Op::Stw:
            co_await dmem_.write(static_cast<std::uint16_t>(vs + d.imm),
                                 vd);
            rec.memWrite = true;
            rec.memAddr = static_cast<std::uint16_t>(vs + d.imm);
            rec.memValue = vd;
            break;
          case Op::Ldi:
            result = co_await imem_.read(
                static_cast<std::uint16_t>(vs + d.imm));
            break;
          case Op::Sti:
            co_await imem_.write(static_cast<std::uint16_t>(vs + d.imm),
                                 vd);
            rec.memWrite = true;
            rec.memIsImem = true;
            rec.memAddr = static_cast<std::uint16_t>(vs + d.imm);
            rec.memValue = vd;
            break;
          case Op::Beqz:
          case Op::Bnez:
          case Op::Bltz:
          case Op::Bgez: {
            const std::int16_t sv = static_cast<std::int16_t>(vd);
            bool taken = false;
            switch (d.op) {
              case Op::Beqz: taken = (vd == 0); break;
              case Op::Bnez: taken = (vd != 0); break;
              case Op::Bltz: taken = (sv < 0); break;
              case Op::Bgez: taken = (sv >= 0); break;
              default: break;
            }
            redir.kind = Redirect::Kind::Goto;
            redir.pc = taken ? static_cast<std::uint16_t>(p.pcNext +
                                                          d.off8)
                             : p.pcNext;
            send_redirect = true;
            break;
          }
          case Op::Jmp:
            redir.kind = Redirect::Kind::Goto;
            switch (d.jmpFn()) {
              case JmpFn::Jmp:
                redir.pc = d.imm;
                break;
              case JmpFn::Jal:
                result = p.pcNext;
                redir.pc = d.imm;
                break;
              case JmpFn::Jr:
                redir.pc = vs;
                break;
              case JmpFn::Jalr:
                result = p.pcNext;
                redir.pc = vs;
                break;
            }
            send_redirect = true;
            break;
          case Op::Bfs:
            result = static_cast<std::uint16_t>((vd & ~d.imm) |
                                                (vs & d.imm));
            break;
          case Op::Timer: {
            sim::fatalIf(vd > 2, "timer register out of range: ", vd);
            co_await timerPort_.send(
                TimerCmd{d.timerFn(), static_cast<std::uint8_t>(vd), vs});
            rec.timerCmd = true;
            rec.timerFn = static_cast<std::uint8_t>(d.timerFn());
            rec.timerReg = static_cast<std::uint8_t>(vd);
            rec.timerValue = vs;
            break;
          }
          case Op::Event:
            if (d.eventFn() == EventFn::Done) {
                redir.kind = Redirect::Kind::Done;
                send_redirect = true;
            } else {
                sim::fatalIf(vd >= isa::kNumEvents,
                             "setaddr event out of range: ", vd);
                handlerTable_[vd] = vs;
            }
            break;
          case Op::Sys:
            switch (d.sysFn()) {
              case SysFn::Nop:
                break;
              case SysFn::Halt:
                redir.kind = Redirect::Kind::Halt;
                send_redirect = true;
                break;
              case SysFn::DbgOut:
                debugOut_.push_back(vd);
                break;
            }
            break;
          default:
            sim::panic("unreachable opcode in execute");
        }

        if (usesUnit)
            co_await busTransfer(d.unit); // result back / completion

        // Result write-back, inlined like the operand reads: r15
        // enqueues into the message coprocessor's incoming FIFO.
        if (write_result) {
            if (d.rd == isa::kMsgReg) {
                ctx_.charge(Cat::Coproc, ctx_.ecal.msgWordPj);
                co_await msgIn_.send(result);
                rec.fifoWrite = true;
                rec.fifoWriteValue = result;
            } else {
                co_await regWriteDelay();
                regs_[d.rd] = result;
                rec.regWrite = true;
                rec.regIndex = static_cast<std::uint8_t>(d.rd);
                rec.regValue = result;
            }
        }

        ++stats_.instructions;
        ++stats_.perClass[static_cast<std::size_t>(d.cls)];
        {
            // Attribute wall time and dynamic energy since the last
            // retirement to this instruction's class — the measured
            // coefficients behind `snap-report --calibrate`.
            const Tick tnow = ctx_.kernel.now();
            const double pjnow = ctx_.chargedPj();
            stats_.perClassTicks[static_cast<std::size_t>(d.cls)] +=
                tnow - classLastTick_;
            stats_.perClassPj[static_cast<std::size_t>(d.cls)] +=
                pjnow - classLastPj_;
            classLastTick_ = tnow;
            classLastPj_ = pjnow;
        }
        if (currentEvent_ < isa::kNumEvents)
            ++stats_.perEvent[currentEvent_].instructions;
        {
            // Canonical first word (branches keep their displacement).
            const bool is_branch =
                d.op == Op::Beqz || d.op == Op::Bnez ||
                d.op == Op::Bltz || d.op == Op::Bgez;
            const std::uint16_t low =
                is_branch ? static_cast<std::uint8_t>(d.off8)
                          : static_cast<std::uint16_t>(
                                ((d.rs & 0xf) << 4) | (d.fn & 0xf));
            const std::uint16_t w = static_cast<std::uint16_t>(
                (static_cast<std::uint16_t>(d.op) << 12) |
                ((d.rd & 0xf) << 8) | low);
            traceExec_.emit(sim::TraceEvent::CoreExec, w,
                            static_cast<std::uint64_t>(d.cls));
            if (!profile_.empty()) {
                // Attribute the time and dynamic energy since the
                // previous retirement to this (pc, handler) cell.
                const auto pc16 = static_cast<std::uint16_t>(
                    p.pcNext - (d.twoWord ? 2 : 1));
                const Tick tnow = ctx_.kernel.now();
                if (pc16 < ctx_.cfg.imemWords) {
                    ProfSlot &s =
                        profile_[std::size_t(pc16) *
                                     NodeContext::kHandlerSlots +
                                 slotOf(currentEvent_)];
                    ++s.count;
                    s.ticks += tnow - profLastTick_;
                    s.pj += ctx_.chargedPj() - profLastPj_;
                }
                profLastTick_ = tnow;
                profLastPj_ = ctx_.chargedPj();
            }
            if (commitSink_) {
                rec.pc = static_cast<std::uint16_t>(
                    p.pcNext - (d.twoWord ? 2 : 1));
                rec.word = w;
                rec.imm = d.imm;
                rec.carry = carry_;
                commitSink_->commit(rec);
            }
        }

        if (send_redirect)
            co_await redirect_.send(redir);

        if (d.op == Op::Sys && d.sysFn() == SysFn::Halt)
            co_return;
    }
}

void
SnapCore::enableProfile(bool on)
{
    if (!on) {
        profile_.clear();
        profile_.shrink_to_fit();
        return;
    }
    profile_.assign(ctx_.cfg.imemWords * NodeContext::kHandlerSlots,
                    ProfSlot{});
    profLastTick_ = ctx_.kernel.now();
    profLastPj_ = ctx_.chargedPj();
}

std::vector<sim::ProfileRow>
SnapCore::profileRows() const
{
    std::vector<sim::ProfileRow> rows;
    if (profile_.empty())
        return rows;
    for (std::size_t s = 0; s < NodeContext::kHandlerSlots; ++s) {
        const std::string_view handler =
            s == NodeContext::kBootSlot
                ? std::string_view("boot")
                : isa::eventName(static_cast<isa::EventNum>(s));
        for (std::size_t pc = 0; pc < ctx_.cfg.imemWords; ++pc) {
            const ProfSlot &cell =
                profile_[pc * NodeContext::kHandlerSlots + s];
            if (cell.count == 0)
                continue;
            rows.push_back(sim::ProfileRow{
                handler, static_cast<std::uint16_t>(pc), cell.count,
                cell.ticks, cell.pj});
        }
    }
    return rows;
}

void
SnapCore::publishMetrics()
{
    sim::MetricsRegistry &m = ctx_.metrics;
    const Tick now = ctx_.kernel.now();

    m.counter("core.instructions").set(stats_.instructions);
    m.counter("core.words_fetched").set(stats_.wordsFetched);
    m.counter("core.handlers").set(stats_.handlers);
    m.counter("core.sleeps").set(stats_.sleeps);
    m.counter("core.wakeups").set(stats_.wakeups);
    m.counter("core.active_ticks").set(activeTimeNow());
    m.gauge("core.duty_cycle", sim::GaugeMerge::Mean)
        .set(now ? double(activeTimeNow()) / double(now) : 0.0);

    for (std::size_t c = 0; c < isa::kNumClasses; ++c) {
        const std::string prefix =
            "core.class." + isa::classSlug(static_cast<isa::InstrClass>(c));
        m.counter(prefix).set(stats_.perClass[c]);
        m.counter(prefix + ".ticks").set(stats_.perClassTicks[c]);
        m.gauge(prefix + ".pj").set(stats_.perClassPj[c]);
    }

    m.counter("core.evq.accepted").set(eventQueue_.accepted());
    m.counter("core.evq.dropped").set(eventQueue_.dropped());
    m.gauge("core.evq.occupancy")
        .set(double(eventQueue_.size()));

    // Per-handler attribution; the running handler's open segment is
    // added on the fly so samples mid-handler stay monotone.
    auto ticks = stats_.handlerTicks;
    if (!halted_ && !asleep_)
        ticks[slotOf(currentEvent_)] += now - segStart_;
    for (std::size_t e = 0; e < isa::kNumEvents; ++e) {
        const std::string prefix =
            "handler." +
            std::string(isa::eventName(static_cast<isa::EventNum>(e)));
        m.counter(prefix + ".activations")
            .set(stats_.perEvent[e].activations);
        m.counter(prefix + ".instructions")
            .set(stats_.perEvent[e].instructions);
        m.counter(prefix + ".ticks").set(ticks[e]);
    }
    m.counter("handler.boot.ticks")
        .set(ticks[NodeContext::kBootSlot]);
}

} // namespace snaple::core
