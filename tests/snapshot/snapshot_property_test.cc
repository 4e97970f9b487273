/**
 * @file
 * Snapshot format properties on fuzzed NetworkSnapshot values:
 * serialize∘parse is a byte fixed point, every truncated prefix and
 * every corrupted byte is rejected with sim::FatalError (never UB —
 * this suite runs under ASan/UBSan in CI), a version bump with a
 * recomputed checksum is refused as unsupported, a hostile length
 * prefix is refused before anything is allocated for it, and the
 * encoding of one fixed value is pinned across builds.
 */

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/fnv.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "snapshot/codec.hh"
#include "snapshot/snapshot.hh"

namespace {

using namespace snaple;
using snapshot::NetworkSnapshot;
using snapshot::NodeState;

sim::MetricsRegistry::SavedInstrument
fuzzInstrument(sim::Rng &rng, int i)
{
    sim::MetricsRegistry::SavedInstrument m;
    m.name = "m" + std::to_string(i) + ".fuzz";
    m.kind = std::uint8_t(rng.next() % 3);
    m.counter = rng.next();
    m.gaugeV = rng.uniform01() * 1e9;
    m.gaugeMerge = std::uint8_t(rng.next() % 4);
    m.gaugeMergedN = std::uint32_t(rng.next());
    m.histCount = rng.next();
    m.histSum = rng.next();
    m.histMin = rng.next();
    m.histMax = rng.next();
    for (std::uint64_t &b : m.buckets)
        b = rng.next();
    return m;
}

obs::FlowTag
fuzzTag(sim::Rng &rng)
{
    obs::FlowTag t;
    t.origin = std::uint32_t(rng.next() % 64);
    t.id = std::uint32_t(rng.next());
    t.src = std::uint32_t(rng.next() % 64);
    t.hop = std::uint16_t(1 + rng.next() % 8);
    t.valid = rng.chance(0.7);
    return t;
}

NodeState
fuzzNode(sim::Rng &rng)
{
    NodeState ns;
    ns.halted = rng.chance(0.3);
    ns.dead = ns.halted && rng.chance(0.5);
    ns.deathAt = rng.next() % (1u << 30);
    ns.kernelNow = rng.next() % (1u << 30);
    ns.kernelDispatched = rng.next();
    ns.traceHash = rng.next();
    ns.traceCount = rng.next();

    for (std::uint16_t &r : ns.core.regs)
        r = rng.uniform16();
    ns.core.carry = rng.chance(0.5);
    ns.core.lfsr = rng.uniform16();
    for (std::uint16_t &h : ns.core.handlerTable)
        h = rng.uniform16();
    ns.core.halted = ns.halted;
    ns.core.asleep = !ns.halted;
    ns.core.currentEvent = std::uint8_t(rng.next());
    ns.core.fidelity = std::uint8_t(1 + rng.next() % 2);
    for (int i = 0, n = 1 + int(rng.next() % 8); i < n; ++i)
        ns.core.debugOut.push_back(rng.uniform16());
    auto &st = ns.core.stats;
    st.instructions = rng.next();
    for (std::uint64_t &v : st.perClass)
        v = rng.next();
    for (sim::Tick &v : st.perClassTicks)
        v = rng.next() % (1u << 30);
    for (double &v : st.perClassPj)
        v = rng.uniform01() * 1e9;
    st.wordsFetched = rng.next();
    st.handlers = rng.next();
    st.sleeps = rng.next();
    st.wakeups = rng.next();
    st.activeTime = rng.next() % (1u << 30);
    st.lastWake = rng.next() % (1u << 30);
    st.lastSleepStart = rng.next() % (1u << 30);
    for (auto &h : st.perEvent)
        h = {rng.next(), rng.next()};
    for (sim::Tick &v : st.handlerTicks)
        v = rng.next() % (1u << 30);

    for (int i = 0, n = 16 + int(rng.next() % 64); i < n; ++i) {
        ns.imem.push_back(rng.uniform16());
        ns.dmem.push_back(rng.uniform16());
    }
    for (int i = 0, n = 1 + int(rng.next() % 4); i < n; ++i)
        ns.evq.tokens.push_back(snapshot::EventTokenRec{
            std::uint8_t(rng.next() % 7), rng.next() % (1u << 30)});
    ns.evq.accepted = rng.next();
    ns.evq.dropped = rng.next();
    for (int i = 0, n = 1 + int(rng.next() % 4); i < n; ++i) {
        ns.msgIn.words.push_back(rng.uniform16());
        ns.msgOut.words.push_back(rng.uniform16());
        ns.radioRx.words.push_back(rng.uniform16());
    }
    for (snapshot::FifoState *f : {&ns.msgIn, &ns.msgOut, &ns.radioRx}) {
        f->accepted = rng.next();
        f->dropped = rng.next();
    }

    for (auto &t : ns.timers) {
        t.armed = rng.chance(0.5);
        t.stagedHi = std::uint8_t(rng.next());
        t.generation = rng.next();
    }
    for (int i = 0, n = 1 + int(rng.next() % 3); i < n; ++i)
        ns.timerExpires.push_back(coproc::TimerCoproc::ExpireRec{
            std::uint8_t(1 + rng.next() % 2), rng.next(),
            rng.next() % (1u << 30), rng.next()});
    ns.msg.cmdPhase = std::uint8_t(1 + rng.next() % 2);
    ns.msg.rxPhase = 1;
    ns.msg.pendingWord = rng.uniform16();
    ns.msg.rxWord = rng.uniform16();
    ns.msg.waitEnd = rng.next() % (1u << 30);
    ns.msg.waitSeq = rng.next();
    ns.msg.waitArg = std::uint8_t(1 + rng.next() % 255);
    ns.msg.cmdStamp = rng.next();
    ns.msg.rxStamp = rng.next();
    ns.msg.blockSeq = rng.next();

    ns.hasRadio = rng.chance(0.8);
    if (ns.hasRadio) {
        ns.radioMode = std::uint8_t(rng.next() % 3);
        ns.radioLastRssi = rng.uniform16();
        ns.radioListenAccruedTo = rng.next() % (1u << 30);
        ns.medium.txSeq = std::uint32_t(rng.next());
        for (int i = 0, n = 1 + int(rng.next() % 2); i < n; ++i) {
            ns.medium.ownEnds.push_back(
                {rng.next() % (1u << 30), rng.next()});
            ns.medium.remoteEnds.push_back(
                {rng.next() % (1u << 30), rng.next()});
            ns.medium.offers.push_back(
                {rng.next() % (1u << 30), rng.uniform16(),
                 rng.uniform16(), rng.next(), fuzzTag(rng)});
        }
    }

    for (double &pj : ns.ledgerPj)
        pj = rng.uniform01() * 1e12;
    ns.leakAccruedTo = rng.next() % (1u << 30);
    ns.chargedPj = rng.uniform01() * 1e12;
    for (double &pj : ns.handlerPj)
        pj = rng.uniform01() * 1e9;
    ns.flow = {std::uint32_t(rng.next()),
               std::uint8_t(rng.chance(0.7)),
               std::uint32_t(rng.next() % 64),
               std::uint32_t(rng.next()),
               std::uint32_t(rng.next() % 64),
               std::uint16_t(1 + rng.next() % 8),
               rng.next() % (1u << 30),
               std::uint8_t(rng.chance(0.7)),
               std::uint32_t(rng.next())};
    for (sim::Tick &v : ns.energest.ticks)
        v = rng.next() % (1u << 30);
    for (double &pj : ns.energest.pj)
        pj = rng.uniform01() * 1e9;
    ns.energest.onMask = std::uint8_t(1 + rng.next() % 15);
    for (int i = 0, n = 1 + int(rng.next() % 5); i < n; ++i)
        ns.metrics.push_back(fuzzInstrument(rng, i));
    return ns;
}

NetworkSnapshot
fuzzSnapshot(sim::Rng &rng)
{
    NetworkSnapshot snap;
    snap.snapTick = rng.next() % (1u << 30);
    snap.window = 1 + rng.next() % (1u << 20);
    for (int i = 0, n = 1 + int(rng.next() % 3); i < n; ++i) {
        radio::AirFlight f{};
        f.start = rng.next() % (1u << 30);
        f.end = f.start + 1 + rng.next() % 1000;
        f.srcNode = std::uint32_t(rng.next() % 8);
        f.seq = std::uint32_t(rng.next());
        f.word = rng.uniform16();
        f.collided = rng.chance(0.3);
        f.resolved = rng.chance(0.3);
        f.tag = fuzzTag(rng);
        snap.air.pending.push_back(f);
    }
    for (int i = 0, n = 1 + int(rng.next() % 2); i < n; ++i) {
        snap.air.down.push_back(std::uint8_t(rng.next() % 2));
        snap.air.downLinks.emplace_back(std::uint32_t(rng.next() % 8),
                                        std::uint32_t(rng.next() % 8));
    }
    snap.air.offersOutstanding = rng.next();
    for (int i = 0, n = 1 + int(rng.next() % 3); i < n; ++i)
        snap.air.metrics.push_back(fuzzInstrument(rng, 100 + i));
    snap.metricsNext = rng.next() % (1u << 30);
    snap.metricsLastAt = rng.next() % (1u << 30);
    snap.metricsMetaWritten = rng.chance(0.5);
    const int nodes = 1 + int(rng.next() % 4);
    for (int i = 0; i < nodes; ++i) {
        snap.nodes.push_back(fuzzNode(rng));
        snap.userRng.push_back(rng.chance(0.5) ? rng.next() : 0);
    }
    return snap;
}

TEST(SnapshotProperty, SerializeParseIsAByteFixedPoint)
{
    sim::Rng rng(0x5eed);
    for (int iter = 0; iter < 50; ++iter) {
        const NetworkSnapshot snap = fuzzSnapshot(rng);
        const std::string enc = snapshot::encodeSnapshot(snap);
        const NetworkSnapshot dec = snapshot::decodeSnapshot(enc);
        const std::string enc2 = snapshot::encodeSnapshot(dec);
        ASSERT_EQ(enc, enc2) << "iteration " << iter;
    }
}

TEST(SnapshotProperty, DecodedFieldsSurviveExactly)
{
    sim::Rng rng(0xfee1);
    const NetworkSnapshot snap = fuzzSnapshot(rng);
    const NetworkSnapshot dec =
        snapshot::decodeSnapshot(snapshot::encodeSnapshot(snap));
    ASSERT_EQ(dec.nodes.size(), snap.nodes.size());
    EXPECT_EQ(dec.snapTick, snap.snapTick);
    EXPECT_EQ(dec.window, snap.window);
    EXPECT_EQ(dec.userRng, snap.userRng);
    EXPECT_EQ(dec.metricsMetaWritten, snap.metricsMetaWritten);
    for (std::size_t i = 0; i < snap.nodes.size(); ++i) {
        const NodeState &a = snap.nodes[i];
        const NodeState &b = dec.nodes[i];
        EXPECT_EQ(b.kernelNow, a.kernelNow);
        EXPECT_EQ(b.traceHash, a.traceHash);
        EXPECT_EQ(b.core.regs, a.core.regs);
        EXPECT_EQ(b.core.lfsr, a.core.lfsr);
        EXPECT_EQ(b.imem, a.imem);
        EXPECT_EQ(b.dmem, a.dmem);
        EXPECT_EQ(b.ledgerPj, a.ledgerPj); // bit-exact doubles
        EXPECT_EQ(b.msg.waitSeq, a.msg.waitSeq);
        ASSERT_EQ(b.metrics.size(), a.metrics.size());
        for (std::size_t m = 0; m < a.metrics.size(); ++m) {
            EXPECT_EQ(b.metrics[m].name, a.metrics[m].name);
            EXPECT_EQ(b.metrics[m].counter, a.metrics[m].counter);
            EXPECT_EQ(b.metrics[m].buckets, a.metrics[m].buckets);
        }
    }
}

TEST(SnapshotProperty, EveryTruncatedPrefixIsRejected)
{
    sim::Rng rng(0x7213);
    NetworkSnapshot snap = fuzzSnapshot(rng);
    snap.nodes.resize(1); // keep the prefix sweep fast
    snap.userRng.resize(1);
    const std::string enc = snapshot::encodeSnapshot(snap);
    for (std::size_t len = 0; len < enc.size(); ++len)
        EXPECT_THROW(
            snapshot::decodeSnapshot(
                std::string_view(enc.data(), len)),
            sim::FatalError)
            << "prefix length " << len << " of " << enc.size();
}

TEST(SnapshotProperty, EveryCorruptedByteIsRejected)
{
    // The trailing FNV-1a checksum covers every payload byte, so any
    // single-byte flip anywhere — header, payload or the checksum
    // itself — must throw cleanly.
    sim::Rng rng(0xbadb);
    NetworkSnapshot snap = fuzzSnapshot(rng);
    snap.nodes.resize(1);
    snap.userRng.resize(1);
    const std::string enc = snapshot::encodeSnapshot(snap);
    for (std::size_t i = 0; i < enc.size(); ++i) {
        std::string bad = enc;
        bad[i] = char(bad[i] ^ 0x41);
        EXPECT_THROW(snapshot::decodeSnapshot(bad), sim::FatalError)
            << "flipped byte " << i;
    }
}

TEST(SnapshotProperty, TrailingGarbageIsRejected)
{
    sim::Rng rng(0x9999);
    const std::string enc =
        snapshot::encodeSnapshot(fuzzSnapshot(rng));
    EXPECT_THROW(snapshot::decodeSnapshot(enc + std::string(1, '\0')),
                 sim::FatalError);
}

/**
 * The error decoding a well-formed encoding of a fuzzed snapshot
 * (seed @p seed) whose version field reads @p version, under a valid
 * checksum; empty if the decode succeeds.
 */
std::string
versionError(std::uint64_t seed, std::uint32_t version)
{
    sim::Rng rng(seed);
    std::string enc = snapshot::encodeSnapshot(fuzzSnapshot(rng));
    snapshot::Writer w;
    w.u32(version);
    enc.replace(4, 4, w.bytes());
    const std::uint64_t sum =
        sim::fnv1a64(enc.data(), enc.size() - 8);
    snapshot::Writer tail;
    tail.u64(sum);
    enc.replace(enc.size() - 8, 8, tail.bytes());
    try {
        snapshot::decodeSnapshot(enc);
    } catch (const sim::FatalError &e) {
        return e.what();
    }
    return {};
}

TEST(SnapshotProperty, VersionBumpWithValidChecksumIsRejected)
{
    // A future-versioned file with a perfectly valid checksum must be
    // refused as unsupported, not misparsed.
    const std::string err =
        versionError(0x0505, snapshot::kFormatVersion + 1);
    EXPECT_NE(err.find("version"), std::string::npos) << err;
}

TEST(SnapshotProperty, Version2FileIsRejected)
{
    // v2 files hold trace hashes from the old byte-wise FNV event
    // hash; resuming one would continue its ladder under a different
    // function, so even a well-formed v2 file must be refused.
    const std::string err = versionError(0x0202, 2);
    EXPECT_NE(err.find("unsupported format version 2"),
              std::string::npos)
        << err;
}

TEST(SnapshotProperty, Version3FileIsRejected)
{
    // v3 cores carry four fields v4 dropped (pending fidelity, fast
    // pc, timeline flag and spans); a v3 file must be refused, not
    // misparsed.
    const std::string err = versionError(0x0303, 3);
    EXPECT_NE(err.find("unsupported format version 3"),
              std::string::npos)
        << err;
}

TEST(SnapshotProperty, EncodingKnownAnswer)
{
    // The layout pinned across builds: this value sets every NodeState
    // and NetworkSnapshot field (each flag is set on some node, each
    // container is non-empty), so moving, dropping or re-typing any
    // field changes the size or the hash. Both constants change only
    // together with a kFormatVersion bump.
    sim::Rng rng(69);
    const NetworkSnapshot snap = fuzzSnapshot(rng);
    const auto node = [&](auto pred) {
        return std::any_of(snap.nodes.begin(), snap.nodes.end(), pred);
    };
    const auto flight = [&](auto pred) {
        return std::any_of(snap.air.pending.begin(),
                           snap.air.pending.end(), pred);
    };
    EXPECT_TRUE(snap.metricsMetaWritten);
    EXPECT_TRUE(node([](const NodeState &n) { return n.dead; }));
    EXPECT_TRUE(node([](const NodeState &n) { return n.core.asleep; }));
    EXPECT_TRUE(node([](const NodeState &n) { return n.core.carry; }));
    EXPECT_TRUE(node([](const NodeState &n) {
        return n.hasRadio && n.medium.offers.front().tag.valid;
    }));
    EXPECT_TRUE(node([](const NodeState &n) { return n.flow.ctxValid; }));
    EXPECT_TRUE(
        node([](const NodeState &n) { return n.flow.explicitOpen; }));
    for (std::size_t t = 0; t < 3; ++t)
        EXPECT_TRUE(
            node([&](const NodeState &n) { return n.timers[t].armed; }));
    using radio::AirFlight;
    EXPECT_TRUE(flight([](const AirFlight &f) { return f.collided; }));
    EXPECT_TRUE(flight([](const AirFlight &f) { return f.resolved; }));
    EXPECT_TRUE(flight([](const AirFlight &f) { return f.tag.valid; }));

    const std::string enc = snapshot::encodeSnapshot(snap);
    EXPECT_EQ(enc.size(), 15742u);
    EXPECT_EQ(sim::fnv1a64(enc.data(), enc.size()),
              0x4e7fe6c45a467f38ull);
}

/**
 * A payload of @p total bytes with a valid checksum: @p prefix, then a
 * length prefix equal to the bytes that follow it, then that many
 * 0xff filler bytes.
 */
std::string
hostileCount(const std::string &prefix, std::size_t total)
{
    snapshot::Writer w;
    const std::uint64_t n = total - prefix.size() - 8 - 8;
    w.u64(n);
    std::string bytes = prefix + w.bytes() + std::string(n, '\xff');
    snapshot::Writer tail;
    tail.u64(sim::fnv1a64(bytes.data(), bytes.size()));
    return bytes + tail.bytes();
}

TEST(SnapshotProperty, HugeCountIsRejectedBeforeAllocating)
{
    // Each counted element encodes to far more than one byte, so a
    // count equal to the bytes left must fail the length-prefix check
    // itself — before the decoder reserves a vector of that many
    // NodeStates or instruments.
    const std::string empty = snapshot::encodeSnapshot(NetworkSnapshot{});
    const std::size_t kTotal = 64 * 1024;
    // The empty payload ends with the node count and the user-RNG
    // count; the air-metrics count follows magic, version, snapTick,
    // window and the air block's three counts and offersOutstanding.
    const std::string nodesAt = empty.substr(0, empty.size() - 8 - 16);
    const std::string airMetricsAt = empty.substr(0, 4 + 4 + 8 * 6);
    for (const std::string &prefix : {nodesAt, airMetricsAt}) {
        const std::string bad = hostileCount(prefix, kTotal);
        ASSERT_EQ(bad.size(), kTotal);
        const std::string want =
            "length prefix " +
            std::to_string(kTotal - prefix.size() - 16) +
            " exceeds remaining input";
        try {
            snapshot::decodeSnapshot(bad);
            FAIL() << "hostile count accepted";
        } catch (const sim::FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(want),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(SnapshotProperty, BadMagicIsRejected)
{
    sim::Rng rng(0x1111);
    std::string enc = snapshot::encodeSnapshot(fuzzSnapshot(rng));
    enc[0] = 'X';
    const std::uint64_t sum =
        sim::fnv1a64(enc.data(), enc.size() - 8);
    for (int i = 0; i < 8; ++i)
        enc[enc.size() - 8 + std::size_t(i)] =
            char((sum >> (8 * i)) & 0xff);
    EXPECT_THROW(snapshot::decodeSnapshot(enc), sim::FatalError);
}

} // namespace
