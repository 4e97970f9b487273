/**
 * @file
 * Structured, deterministic simulation tracing.
 *
 * The paper's evaluation is built on *observing* a switch-level
 * simulation; this is the equivalent observability layer for the CHP
 * coroutine simulator. Model components emit typed events (channel
 * handshakes, event-queue activity, pipeline-stage activity, timer
 * operations, energy debits) into a TraceSink attached to the kernel.
 * The sink maintains a running 64-bit hash over the canonical event
 * stream — two runs are behaviorally identical iff their hashes match —
 * and can export the recorded stream as Chrome `trace_event` JSON
 * (chrome://tracing, Perfetto) or as a VCD waveform (GTKWave).
 *
 * Cost model:
 *  - compiled out (-DSNAPLE_TRACE=OFF): TraceScope::emit() is an empty
 *    inline function; zero overhead.
 *  - compiled in, no sink attached (the default): one pointer load and
 *    branch per instrumentation point.
 *  - sink attached: an inline hash update (at most five independent
 *    multiplies digest the event; one xor, rotate and multiply advance
 *    the running hash; about 3-4 ns per event in BM_TraceSinkEmit),
 *    plus one vector push_back when the sink records events (hash-only
 *    sinks skip the store).
 */

#ifndef SNAPLE_SIM_TRACE_HH
#define SNAPLE_SIM_TRACE_HH

#include <bit>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "kernel.hh"
#include "metrics.hh"
#include "ticks.hh"

namespace snaple::sim {

/** Every kind of event a model component can trace. */
enum class TraceEvent : std::uint8_t
{
    // CHP rendezvous channels.
    ChanHandshake,  ///< send and recv met; both sides resume
    ChanBlockSend,  ///< sender suspended waiting for a receiver
    ChanBlockRecv,  ///< receiver suspended waiting for a sender
    // Buffered FIFOs (the hardware event queue, message FIFOs, ...).
    FifoEnqueue,    ///< a0 = occupancy after the push
    FifoDequeue,    ///< a0 = occupancy after the pop
    FifoDrop,       ///< producer push rejected, buffer full
    FifoWakeup,     ///< value handed straight to a blocked receiver
    FifoBlockSend,  ///< sender suspended, buffer full
    FifoBlockRecv,  ///< receiver suspended, buffer empty
    // Core pipeline stages.
    CoreFetch,      ///< a0 = pc, a1 = fetched word
    CoreExec,       ///< a0 = canonical first word, a1 = InstrClass
    CoreSleep,      ///< event queue empty at `done`: core quiescent
    CoreWake,       ///< event token ended the sleep state
    CoreHandler,    ///< handler dispatch; a0 = event number
    // Timer coprocessor.
    TimerSched,     ///< a0 = timer number, a1 = duration in timer ticks
    TimerCancel,    ///< a0 = timer number
    TimerExpire,    ///< a0 = timer number
    // Message coprocessor.
    MsgCommand,     ///< a0 = command word from the incoming FIFO
    MsgTx,          ///< a0 = word handed to the radio
    MsgRx,          ///< a0 = word delivered from the radio
    // Energy ledger.
    EnergyDebit,    ///< f = picojoules charged (scope names the category)
    // Coprocessor event-token delivery. (Appended after EnergyDebit so
    // earlier events keep their numeric values and exported traces stay
    // comparable across versions.)
    TokenDrop,      ///< hardware event queue full: a0 = event/timer
                    ///< number, a1 = the emitter's total drops so far
    NumEvents,
};

/** Short event name (used by both exporters). */
std::string_view traceEventName(TraceEvent e);

/** Coarse category ("chan", "fifo", "core", "timer", "msg", "energy",
 *  "coproc"). */
std::string_view traceEventCategory(TraceEvent e);

/** One recorded event. */
struct TraceRecord
{
    Tick ts;
    std::uint64_t a0;
    std::uint64_t a1;
    double f;
    std::uint16_t scope;
    TraceEvent type;
};

/**
 * The one Chrome trace_event writer (TraceSink::writeChromeJson and
 * snap-trace --chrome). It owns the file framing, the separators and
 * the "thread_name" metadata naming each track; callers write one
 * event object after each event().
 */
class ChromeTraceWriter
{
  public:
    /** Opens the top-level object and its "traceEvents" array. */
    explicit ChromeTraceWriter(std::ostream &os) : os_(os)
    {
        os_ << "{\"traceEvents\":[";
    }

    /** Name track @p tid (pid 0) @p name. */
    void
    threadName(std::uint64_t tid, std::string_view name)
    {
        event() << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                << "\"tid\":" << tid << ",\"args\":{\"name\":";
        putJsonString(os_, name);
        os_ << "}}";
    }

    /** Start the next event; the caller writes one JSON object. */
    std::ostream &
    event()
    {
        if (!first_)
            os_ << ",\n";
        first_ = false;
        return os_;
    }

    /** Close the array and the top-level object. */
    void finish() { os_ << "],\"displayTimeUnit\":\"ns\"}\n"; }

  private:
    std::ostream &os_;
    bool first_ = true;
};

/**
 * @name The trace hash (version 2: word at a time)
 *
 * An event's six canonical fields (scope-name hash, type, timestamp,
 * both arguments, the double's bit pattern) are first digested into one
 * word: each field is multiplied by its own odd constant (the type
 * shares the scope hash's), the products are xor-ed, and a final
 * xor-shift folds the high half into the low half. Every one of those
 * steps is a bijection, so with the other fields fixed the digest is a
 * bijection of any one field: a change to a single field, down to one
 * bit, always changes it. The digest does not depend on the running
 * hash, so its multiplies overlap with the simulation around them, and
 * call sites that pass constant zero arguments fold them away.
 *
 * The running hash then takes one short step per event (xor the
 * digest, rotate, multiply by an odd constant). For a fixed digest the
 * step is a bijection of the running hash: two streams that diverged
 * can only meet again through a digest that happens to cancel the
 * difference, never by a later event absorbing it. The order of events
 * matters. Everything is 64-bit integer arithmetic, so the value is
 * the same on every host.
 */
///@{

/** Hash of the empty stream. */
inline constexpr std::uint64_t kTraceHashSeed = 0x243f6a8885a308d3ull;

/** Digest of one canonical event; @p fBits is the double's bit
 *  pattern. */
constexpr std::uint64_t
traceEventDigest(std::uint64_t scopeHash, TraceEvent type, Tick ts,
                 std::uint64_t a0, std::uint64_t a1, std::uint64_t fBits)
{
    const std::uint64_t st = scopeHash ^ static_cast<std::uint64_t>(type);
    const std::uint64_t v =
        (st * 0x9e3779b97f4a7c15ull) ^ (ts * 0xbf58476d1ce4e5b9ull) ^
        (a0 * 0x94d049bb133111ebull) ^ (a1 * 0xff51afd7ed558ccdull) ^
        (fBits * 0xc4ceb9fe1a85ec53ull);
    return v ^ (v >> 32);
}

/** Advance the running hash @p h by one event digest @p d. */
constexpr std::uint64_t
traceHashStep(std::uint64_t h, std::uint64_t d)
{
    return std::rotl(h ^ d, 23) * 0x9e3779b185ebca87ull;
}
///@}

/**
 * Collects the event stream of one kernel.
 *
 * Attach with Kernel::setTracer(). A sink constructed with
 * @p record == false keeps only the running hash and event count —
 * what the determinism tests need — without storing the stream.
 */
class TraceSink
{
  public:
    explicit TraceSink(bool record = true) : record_(record) {}

    TraceSink(const TraceSink &) = delete;
    TraceSink &operator=(const TraceSink &) = delete;

    /** Intern a scope (component) name; stable for the sink's life. */
    std::uint16_t scope(const std::string &name);

    /** Append one event (usually via TraceScope::emit). */
    void
    emit(Tick ts, std::uint16_t scope_id, TraceEvent type,
         std::uint64_t a0 = 0, std::uint64_t a1 = 0, double f = 0.0)
    {
        ++count_;
        // The scope *name* hash, not the interned id, keeps the stream
        // hash independent of interning order.
        hash_ = traceHashStep(
            hash_, traceEventDigest(scopeHashes_[scope_id], type, ts, a0,
                                    a1, std::bit_cast<std::uint64_t>(f)));
        if (record_) [[unlikely]]
            record(TraceRecord{ts, a0, a1, f, scope_id, type});
    }

    /**
     * Hash over the canonical event stream (see traceEventDigest and
     * traceHashStep). Identical across two runs iff every traced event
     * (type, time, scope, arguments) is identical; independent of
     * whether events were recorded.
     */
    std::uint64_t hash() const { return hash_; }

    /** Number of events emitted so far. */
    std::uint64_t eventCount() const { return count_; }

    /**
     * Seed the running hash and count (checkpoint restore: a restored
     * run's sink continues the saved stream's hash ladder so the final
     * hash equals the straight run's). Records are not restored —
     * restored sinks are hash-only continuations.
     */
    void
    restoreHash(std::uint64_t hash, std::uint64_t count)
    {
        hash_ = hash;
        count_ = count;
    }

    /** True if the sink stores events (needed by the exporters). */
    bool recording() const { return record_; }

    const std::vector<TraceRecord> &records() const { return records_; }
    const std::vector<std::string> &scopeNames() const
    {
        return scopeNames_;
    }

    /** Chrome trace_event JSON (load in chrome://tracing or Perfetto). */
    void writeChromeJson(std::ostream &os) const;

    /** Value-change dump for waveform viewers (GTKWave et al.). */
    void writeVcd(std::ostream &os) const;

  private:
    /** Store @p r (out of line, so emit() stays small enough to
     *  inline at every instrumentation point). */
    void record(const TraceRecord &r);

    bool record_;
    std::uint64_t hash_ = kTraceHashSeed;
    std::uint64_t count_ = 0;
    std::vector<TraceRecord> records_;
    std::vector<std::string> scopeNames_;
    std::vector<std::uint64_t> scopeHashes_;
    std::unordered_map<std::string, std::uint16_t> scopeIds_;
};

/**
 * A component's lazily-bound handle into the kernel's sink.
 *
 * Holding one is free; emit() resolves the kernel's current tracer and
 * re-interns the scope name only when the sink changes.
 */
class TraceScope
{
  public:
    TraceScope(Kernel &kernel, std::string name)
        : kernel_(kernel), name_(std::move(name))
    {}

    const std::string &name() const { return name_; }

#ifdef SNAPLE_TRACE_DISABLED
    void
    emit(TraceEvent, std::uint64_t = 0, std::uint64_t = 0,
         double = 0.0) const
    {}
#else
    void
    emit(TraceEvent type, std::uint64_t a0 = 0, std::uint64_t a1 = 0,
         double f = 0.0)
    {
        TraceSink *sink = kernel_.tracer();
        if (!sink)
            return;
        if (sink != boundSink_) [[unlikely]]
            bind(sink);
        sink->emit(kernel_.now(), id_, type, a0, a1, f);
    }
#endif

  private:
    /** Intern the scope name in @p sink (out of line: once per sink). */
    void bind(TraceSink *sink);

    Kernel &kernel_;
    std::string name_;
    TraceSink *boundSink_ = nullptr;
    std::uint16_t id_ = 0;
};

} // namespace snaple::sim

#endif // SNAPLE_SIM_TRACE_HH
