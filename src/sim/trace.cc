#include "sim/trace.hh"

#include <cstdio>
#include <map>
#include <ostream>

#include "sim/fnv.hh"
#include "sim/logging.hh"

namespace snaple::sim {

namespace {

/** VCD identifier for var index @p n: base-62 over [a-zA-Z0-9]. */
std::string
vcdId(std::size_t n)
{
    static const char digits[] =
        "abcdefghijklmnopqrstuvwxyz"
        "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
    std::string id;
    do {
        id += digits[n % 62];
        n /= 62;
    } while (n);
    return id;
}

/** VCD signal names must not contain whitespace. */
std::string
vcdName(std::string_view s)
{
    std::string out(s);
    for (char &c : out)
        if (c == ' ' || c == '\t')
            c = '_';
    return out;
}

} // namespace

std::string_view
traceEventName(TraceEvent e)
{
    switch (e) {
      case TraceEvent::ChanHandshake: return "chan-handshake";
      case TraceEvent::ChanBlockSend: return "chan-block-send";
      case TraceEvent::ChanBlockRecv: return "chan-block-recv";
      case TraceEvent::FifoEnqueue: return "fifo-enqueue";
      case TraceEvent::FifoDequeue: return "fifo-dequeue";
      case TraceEvent::FifoDrop: return "fifo-drop";
      case TraceEvent::FifoWakeup: return "fifo-wakeup";
      case TraceEvent::FifoBlockSend: return "fifo-block-send";
      case TraceEvent::FifoBlockRecv: return "fifo-block-recv";
      case TraceEvent::CoreFetch: return "fetch";
      case TraceEvent::CoreExec: return "exec";
      case TraceEvent::CoreSleep: return "sleep";
      case TraceEvent::CoreWake: return "wake";
      case TraceEvent::CoreHandler: return "handler";
      case TraceEvent::TimerSched: return "timer-sched";
      case TraceEvent::TimerCancel: return "timer-cancel";
      case TraceEvent::TimerExpire: return "timer-expire";
      case TraceEvent::MsgCommand: return "msg-command";
      case TraceEvent::MsgTx: return "msg-tx";
      case TraceEvent::MsgRx: return "msg-rx";
      case TraceEvent::EnergyDebit: return "energy-debit";
      case TraceEvent::TokenDrop: return "token-drop";
      default: return "?";
    }
}

std::string_view
traceEventCategory(TraceEvent e)
{
    switch (e) {
      case TraceEvent::ChanHandshake:
      case TraceEvent::ChanBlockSend:
      case TraceEvent::ChanBlockRecv:
        return "chan";
      case TraceEvent::FifoEnqueue:
      case TraceEvent::FifoDequeue:
      case TraceEvent::FifoDrop:
      case TraceEvent::FifoWakeup:
      case TraceEvent::FifoBlockSend:
      case TraceEvent::FifoBlockRecv:
        return "fifo";
      case TraceEvent::CoreFetch:
      case TraceEvent::CoreExec:
      case TraceEvent::CoreSleep:
      case TraceEvent::CoreWake:
      case TraceEvent::CoreHandler:
        return "core";
      case TraceEvent::TimerSched:
      case TraceEvent::TimerCancel:
      case TraceEvent::TimerExpire:
        return "timer";
      case TraceEvent::MsgCommand:
      case TraceEvent::MsgTx:
      case TraceEvent::MsgRx:
        return "msg";
      case TraceEvent::EnergyDebit:
        return "energy";
      case TraceEvent::TokenDrop:
        return "coproc";
      default:
        return "?";
    }
}

std::uint16_t
TraceSink::scope(const std::string &name)
{
    auto it = scopeIds_.find(name);
    if (it != scopeIds_.end())
        return it->second;
    panicIf(scopeNames_.size() > 0xffff, "too many trace scopes");
    auto id = static_cast<std::uint16_t>(scopeNames_.size());
    scopeNames_.push_back(name);
    scopeHashes_.push_back(fnv1a64(name.data(), name.size()));
    scopeIds_.emplace(name, id);
    return id;
}

void
TraceSink::record(const TraceRecord &r)
{
    records_.push_back(r);
}

void
TraceScope::bind(TraceSink *sink)
{
    id_ = sink->scope(name_);
    boundSink_ = sink;
}

void
TraceSink::writeChromeJson(std::ostream &os) const
{
    ChromeTraceWriter out(os);
    // Name each scope's "thread" so Perfetto shows component names.
    for (std::size_t i = 0; i < scopeNames_.size(); ++i)
        out.threadName(i, scopeNames_[i]);

    // Energy debits become cumulative counter tracks (ph "C"); every
    // other event is an instant (ph "i") on its scope's thread.
    std::map<std::uint16_t, double> energy;
    for (const TraceRecord &r : records_) {
        const double ts_us = toUs(r.ts);
        out.event();
        if (r.type == TraceEvent::EnergyDebit) {
            double &cum = energy[r.scope];
            cum += r.f;
            os << "{\"name\":";
            putJsonString(os, scopeNames_[r.scope]);
            os << ",\"cat\":\"energy\",\"ph\":\"C\",\"ts\":" << ts_us
               << ",\"pid\":0,\"tid\":" << r.scope
               << ",\"args\":{\"pJ\":" << cum << "}}";
        } else {
            os << "{\"name\":\"" << traceEventName(r.type)
               << "\",\"cat\":\"" << traceEventCategory(r.type)
               << "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << ts_us
               << ",\"pid\":0,\"tid\":" << r.scope << ",\"args\":{"
               << "\"a0\":" << r.a0 << ",\"a1\":" << r.a1 << "}}";
        }
    }
    out.finish();
}

void
TraceSink::writeVcd(std::ostream &os) const
{
    // Two variables per scope: an 8-bit event-code wire (the value is
    // the TraceEvent number of the scope's latest event) and, for
    // scopes that carry energy debits, a real-valued cumulative-pJ
    // signal. Identifiers are assigned as 2*scope (code) / 2*scope+1
    // (energy).
    std::vector<bool> hasEnergy(scopeNames_.size(), false);
    for (const TraceRecord &r : records_)
        if (r.type == TraceEvent::EnergyDebit)
            hasEnergy[r.scope] = true;

    os << "$date snaple trace $end\n"
       << "$version snaple TraceSink $end\n"
       << "$timescale 1ps $end\n"
       << "$scope module snaple $end\n";
    for (std::size_t i = 0; i < scopeNames_.size(); ++i) {
        os << "$var wire 8 " << vcdId(2 * i) << ' '
           << vcdName(scopeNames_[i]) << " $end\n";
        if (hasEnergy[i])
            os << "$var real 64 " << vcdId(2 * i + 1) << ' '
               << vcdName(scopeNames_[i]) << "_pj $end\n";
    }
    os << "$upscope $end\n$enddefinitions $end\n";

    // Initial values.
    os << "$dumpvars\n";
    for (std::size_t i = 0; i < scopeNames_.size(); ++i) {
        os << "b0 " << vcdId(2 * i) << '\n';
        if (hasEnergy[i])
            os << "r0 " << vcdId(2 * i + 1) << '\n';
    }
    os << "$end\n";

    std::vector<double> energy(scopeNames_.size(), 0.0);
    Tick last = 0;
    bool any = false;
    for (const TraceRecord &r : records_) {
        if (!any || r.ts != last) {
            os << '#' << r.ts << '\n';
            last = r.ts;
            any = true;
        }
        // Event code as an 8-bit binary value.
        os << 'b';
        for (int bit = 7; bit >= 0; --bit)
            os << ((static_cast<unsigned>(r.type) >> bit) & 1);
        os << ' ' << vcdId(2 * r.scope) << '\n';
        if (r.type == TraceEvent::EnergyDebit) {
            energy[r.scope] += r.f;
            char buf[64];
            std::snprintf(buf, sizeof(buf), "r%.17g ",
                          energy[r.scope]);
            os << buf << vcdId(2 * r.scope + 1) << '\n';
        }
    }
}

} // namespace snaple::sim
