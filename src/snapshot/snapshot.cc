#include "snapshot/snapshot.hh"

#include <concepts>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "sim/fnv.hh"
#include "sim/logging.hh"
#include "snapshot/codec.hh"

namespace snaple::snapshot {

namespace {

// One walk per struct defines its on-disk layout: encodeSnapshot runs
// it with the Writer over const state, decodeSnapshot with the Reader
// over the value it builds, so the two directions cannot disagree.
// Fixed-size arrays travel without length prefixes (their sizes are
// schema constants); containers go through seq(), whose decode floor
// is this walk's encoding of one value-initialised element. Any layout
// change bumps kFormatVersion and re-pins
// SnapshotProperty.EncodingKnownAnswer.

/** S is T: const when writing, mutable when reading. */
template <class S, class T>
concept Of = std::same_as<std::remove_const_t<S>, T>;

template <class Ar, Of<sim::MetricsRegistry::SavedInstrument> S>
void
walk(Ar &ar, S &m)
{
    ar.str(m.name);
    ar.u8(m.kind);
    ar.u64(m.counter);
    ar.f64(m.gaugeV);
    ar.u8(m.gaugeMerge);
    ar.u32(m.gaugeMergedN);
    ar.u64(m.histCount);
    ar.u64(m.histSum);
    ar.u64(m.histMin);
    ar.u64(m.histMax);
    for (auto &b : m.buckets)
        ar.u64(b);
}

template <class Ar, Of<obs::FlowTag> S>
void
walk(Ar &ar, S &t)
{
    ar.u32(t.origin);
    ar.u32(t.id);
    ar.u32(t.src);
    ar.u16(t.hop);
    ar.b(t.valid);
}

template <class Ar, Of<FifoState> S>
void
walk(Ar &ar, S &f)
{
    ar.u16vec(f.words);
    ar.u64(f.accepted);
    ar.u64(f.dropped);
}

template <class Ar, Of<core::SnapCore::SavedState> S>
void
walk(Ar &ar, S &c)
{
    for (auto &v : c.regs)
        ar.u16(v);
    ar.b(c.carry);
    ar.u16(c.lfsr);
    for (auto &v : c.handlerTable)
        ar.u16(v);
    ar.b(c.halted);
    ar.b(c.asleep);
    ar.u8(c.currentEvent);
    ar.u8(c.fidelity);
    ar.u16vec(c.debugOut);
    auto &st = c.stats;
    ar.u64(st.instructions);
    for (auto &v : st.perClass)
        ar.u64(v);
    for (auto &v : st.perClassTicks)
        ar.u64(v);
    for (auto &v : st.perClassPj)
        ar.f64(v);
    ar.u64(st.wordsFetched);
    ar.u64(st.handlers);
    ar.u64(st.sleeps);
    ar.u64(st.wakeups);
    ar.u64(st.activeTime);
    ar.u64(st.lastWake);
    ar.u64(st.lastSleepStart);
    for (auto &h : st.perEvent) {
        ar.u64(h.activations);
        ar.u64(h.instructions);
    }
    for (auto &v : st.handlerTicks)
        ar.u64(v);
}

template <class Ar, Of<radio::Medium::SavedState> S>
void
walk(Ar &ar, S &m)
{
    const auto end = [](auto &a, auto &e) {
        a.u64(e.end);
        a.u64(e.seq);
    };
    ar.u32(m.txSeq);
    ar.seq(m.ownEnds, end);
    ar.seq(m.remoteEnds, end);
    ar.seq(m.offers, [](auto &a, auto &o) {
        a.u64(o.at);
        a.u16(o.word);
        a.u16(o.rssi);
        a.u64(o.seq);
        walk(a, o.tag);
    });
}

template <class Ar, Of<radio::AirExchange::SavedState> S>
void
walk(Ar &ar, S &air)
{
    ar.seq(air.pending, [](auto &a, auto &f) {
        a.u64(f.start);
        a.u64(f.end);
        a.u32(f.srcNode);
        a.u32(f.seq);
        a.u16(f.word);
        a.b(f.collided);
        a.b(f.resolved);
        walk(a, f.tag);
    });
    ar.seq(air.down, [](auto &a, auto &d) { a.u8(d); });
    ar.seq(air.downLinks, [](auto &a, auto &link) {
        a.u32(link.first);
        a.u32(link.second);
    });
    ar.u64(air.offersOutstanding);
    ar.seq(air.metrics, [](auto &a, auto &m) { walk(a, m); });
}

template <class Ar, Of<NodeState> S>
void
walk(Ar &ar, S &n)
{
    ar.b(n.halted);
    ar.b(n.dead);
    ar.u64(n.deathAt);
    ar.u64(n.kernelNow);
    ar.u64(n.kernelDispatched);
    ar.u64(n.traceHash);
    ar.u64(n.traceCount);
    walk(ar, n.core);
    ar.u16vec(n.imem);
    ar.u16vec(n.dmem);
    ar.seq(n.evq.tokens, [](auto &a, auto &t) {
        a.u8(t.num);
        a.u64(t.at);
    });
    ar.u64(n.evq.accepted);
    ar.u64(n.evq.dropped);
    walk(ar, n.msgIn);
    walk(ar, n.msgOut);
    for (auto &t : n.timers) {
        ar.b(t.armed);
        ar.u8(t.stagedHi);
        ar.u64(t.generation);
    }
    ar.seq(n.timerExpires, [](auto &a, auto &e) {
        a.u8(e.n);
        a.u64(e.generation);
        a.u64(e.deadline);
        a.u64(e.seq);
    });
    ar.u8(n.msg.cmdPhase);
    ar.u8(n.msg.rxPhase);
    ar.u16(n.msg.pendingWord);
    ar.u16(n.msg.rxWord);
    ar.u64(n.msg.waitEnd);
    ar.u64(n.msg.waitSeq);
    ar.u8(n.msg.waitArg);
    ar.u64(n.msg.cmdStamp);
    ar.u64(n.msg.rxStamp);
    ar.u64(n.msg.blockSeq);
    ar.b(n.hasRadio);
    ar.u8(n.radioMode);
    ar.u16(n.radioLastRssi);
    ar.u64(n.radioListenAccruedTo);
    walk(ar, n.radioRx);
    walk(ar, n.medium);
    for (auto &v : n.ledgerPj)
        ar.f64(v);
    ar.u64(n.leakAccruedTo);
    ar.f64(n.chargedPj);
    for (auto &v : n.handlerPj)
        ar.f64(v);
    ar.u32(n.flow.nextId);
    ar.u8(n.flow.ctxValid);
    ar.u32(n.flow.ctxOrigin);
    ar.u32(n.flow.ctxId);
    ar.u32(n.flow.ctxSrc);
    ar.u16(n.flow.ctxHop);
    ar.u64(n.flow.ctxAt);
    ar.u8(n.flow.explicitOpen);
    ar.u32(n.flow.explicitId);
    for (auto &v : n.energest.ticks)
        ar.u64(v);
    for (auto &v : n.energest.pj)
        ar.f64(v);
    ar.u8(n.energest.onMask);
    ar.seq(n.metrics, [](auto &a, auto &m) { walk(a, m); });
}

/** The payload between the version word and the checksum. */
template <class Ar, Of<NetworkSnapshot> S>
void
walk(Ar &ar, S &snap)
{
    ar.u64(snap.snapTick);
    ar.u64(snap.window);
    walk(ar, snap.air);
    ar.u64(snap.metricsNext);
    ar.u64(snap.metricsLastAt);
    ar.b(snap.metricsMetaWritten);
    ar.seq(snap.nodes, [](auto &a, auto &n) { walk(a, n); });
    ar.seq(snap.userRng, [](auto &a, auto &v) { a.u64(v); });
}

} // namespace

std::string
encodeSnapshot(const NetworkSnapshot &snap)
{
    Writer w;
    w.u32(kMagic);
    w.u32(kFormatVersion);
    walk(w, snap);
    std::string bytes = w.take();
    std::uint64_t sum = sim::fnv1a64(bytes.data(), bytes.size());
    Writer tail;
    tail.u64(sum);
    bytes += tail.bytes();
    return bytes;
}

NetworkSnapshot
decodeSnapshot(std::string_view bytes)
{
    sim::fatalIf(bytes.size() < 16,
                 "snapshot: input too short to be a snapshot (",
                 bytes.size(), " bytes)");
    const std::size_t payloadEnd = bytes.size() - 8;
    {
        Reader tail(bytes.substr(payloadEnd));
        std::uint64_t stored = tail.u64();
        std::uint64_t actual = sim::fnv1a64(bytes.data(), payloadEnd);
        sim::fatalIf(stored != actual,
                     "snapshot: checksum mismatch (corrupt file)");
    }
    Reader r(bytes.substr(0, payloadEnd));
    std::uint32_t magic = r.u32();
    sim::fatalIf(magic != kMagic, "snapshot: bad magic (not a snapshot)");
    std::uint32_t version = r.u32();
    sim::fatalIf(version != kFormatVersion,
                 "snapshot: unsupported format version ", version,
                 " (this build reads version ", kFormatVersion, ")");
    NetworkSnapshot snap;
    walk(r, snap);
    sim::fatalIf(r.remaining() != 0,
                 "snapshot: ", r.remaining(),
                 " trailing bytes after the payload");
    return snap;
}

void
writeSnapshotFile(const NetworkSnapshot &snap, const std::string &path)
{
    std::string bytes = encodeSnapshot(snap);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    sim::fatalIf(!out, "snapshot: cannot open ", path, " for writing");
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    sim::fatalIf(!out, "snapshot: short write to ", path);
}

NetworkSnapshot
readSnapshotFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    sim::fatalIf(!in, "snapshot: cannot open ", path);
    std::ostringstream ss;
    ss << in.rdbuf();
    sim::fatalIf(!in, "snapshot: read error on ", path);
    return decodeSnapshot(ss.str());
}

} // namespace snaple::snapshot
