/**
 * @file
 * Sharded parallel network tests.
 *
 * The parallel harness promises that worker count is invisible to the
 * simulation: per-node trace hashes, air statistics and delivery
 * orders must be bit-identical for any --jobs. These tests pin that
 * contract, the deterministic equal-tick cross-shard merge order and
 * the per-node seed derivation.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "apps/apps.hh"
#include "asm/snap_backend.hh"
#include "net/parallel_network.hh"
#include "radio/transceiver.hh"
#include "sim/rng.hh"

namespace {

using namespace snaple;
using assembler::assembleSnap;
using net::ParallelNetwork;
using node::NodeConfig;

#ifdef SNAPLE_TRACE_DISABLED
#define SKIP_WITHOUT_TRACING() \
    GTEST_SKIP() << "tracing compiled out (SNAPLE_TRACE=OFF)"
#else
#define SKIP_WITHOUT_TRACING() (void)0
#endif

NodeConfig
cfgFor(const std::string &name)
{
    NodeConfig c;
    c.name = name;
    c.core.stopOnHalt = false;
    return c;
}

/** Everything observable from one parallel MAC/AODV run. */
struct ParallelRun
{
    std::vector<std::uint64_t> hashes;
    std::vector<std::uint64_t> eventCounts;
    radio::Medium::Stats air;
    std::uint16_t sinkDeliv;
};

/**
 * A seeded 4-node sender -> relay -> relay -> sink exchange on a line
 * topology. The guests reseed their LFSRs with MY_ADDR during boot, so
 * the host overwrites each LFSR with the node's derived seed once boot
 * is over (the first data TX is timer-scheduled at 5 ms).
 */
ParallelRun
runParallelMac(unsigned jobs)
{
    ParallelNetwork net(1 * sim::kMicrosecond, jobs);
    std::vector<NodeConfig> cfgs = {cfgFor("n0"), cfgFor("n1"),
                                    cfgFor("n2"), cfgFor("n3")};
    for (auto &c : cfgs)
        c.baseSeed = 0xfeedfacedeadbeefull;
    net.addNode(cfgs[0],
                assembleSnap(apps::senderNodeProgram(1, 4, {111, 222})));
    net.addNode(cfgs[1], assembleSnap(apps::relayNodeProgram(2)));
    net.addNode(cfgs[2], assembleSnap(apps::relayNodeProgram(3)));
    net.addNode(cfgs[3], assembleSnap(apps::sinkNodeProgram(4)));
    net.setLineTopology();
    net.enableTracing(/*record=*/false);
    net.start();

    net.runFor(1 * sim::kMillisecond); // past the guests' `seed` at boot
    for (std::size_t i = 0; i < net.size(); ++i)
        net.node(i).core().seedLfsr(
            static_cast<std::uint16_t>(net.node(i).derivedSeed()));
    net.runFor(500 * sim::kMillisecond);

    ParallelRun r;
    for (std::size_t i = 0; i < net.size(); ++i) {
        r.hashes.push_back(net.nodeTraceHash(i));
        r.eventCounts.push_back(net.nodeTracer(i)->eventCount());
    }
    r.air = net.stats();
    r.sinkDeliv = net.node(3).dmem().peek(apps::layout::kStDeliv);
    return r;
}

TEST(ParallelNetworkTest, TraceHashesAreIdenticalAcrossJobCounts)
{
    SKIP_WITHOUT_TRACING();
    ParallelRun j1 = runParallelMac(1);
    ParallelRun j2 = runParallelMac(2);
    ParallelRun j4 = runParallelMac(4);

    // The exchange completed and produced real traffic.
    EXPECT_EQ(j1.sinkDeliv, 1u);
    EXPECT_GT(j1.air.wordsSent, 0u);
    for (std::uint64_t c : j1.eventCounts)
        EXPECT_GT(c, 0u);

    // Worker count is invisible: per-node hashes, event counts and the
    // global air statistics are bit-identical.
    EXPECT_EQ(j1.hashes, j2.hashes);
    EXPECT_EQ(j1.hashes, j4.hashes);
    EXPECT_EQ(j1.eventCounts, j2.eventCounts);
    EXPECT_EQ(j1.eventCounts, j4.eventCounts);
    for (const ParallelRun *o : {&j2, &j4}) {
        EXPECT_EQ(j1.air.wordsSent, o->air.wordsSent);
        EXPECT_EQ(j1.air.wordsDelivered, o->air.wordsDelivered);
        EXPECT_EQ(j1.air.collisions, o->air.collisions);
        EXPECT_EQ(j1.sinkDeliv, o->sinkDeliv);
    }

    // Four distinct nodes produce four distinct traces.
    std::set<std::uint64_t> distinct(j1.hashes.begin(), j1.hashes.end());
    EXPECT_EQ(distinct.size(), j1.hashes.size());
}

TEST(ParallelNetworkTest, BaseSeedChangesEveryNodeTrace)
{
    SKIP_WITHOUT_TRACING();
    ParallelRun a = runParallelMac(2);

    // Same harness, different base seed: every node's CSMA backoff
    // stream moves, so every per-node hash must move.
    ParallelNetwork net(1 * sim::kMicrosecond, 2);
    std::vector<NodeConfig> cfgs = {cfgFor("n0"), cfgFor("n1"),
                                    cfgFor("n2"), cfgFor("n3")};
    for (auto &c : cfgs)
        c.baseSeed = 0x1234567887654321ull;
    net.addNode(cfgs[0],
                assembleSnap(apps::senderNodeProgram(1, 4, {111, 222})));
    net.addNode(cfgs[1], assembleSnap(apps::relayNodeProgram(2)));
    net.addNode(cfgs[2], assembleSnap(apps::relayNodeProgram(3)));
    net.addNode(cfgs[3], assembleSnap(apps::sinkNodeProgram(4)));
    net.setLineTopology();
    net.enableTracing(/*record=*/false);
    net.start();
    net.runFor(1 * sim::kMillisecond);
    for (std::size_t i = 0; i < net.size(); ++i)
        net.node(i).core().seedLfsr(
            static_cast<std::uint16_t>(net.node(i).derivedSeed()));
    net.runFor(500 * sim::kMillisecond);

    for (std::size_t i = 0; i < net.size(); ++i)
        EXPECT_NE(net.nodeTraceHash(i), a.hashes[i]) << "node " << i;
}

const char *kIdleProgram = R"(
boot:
    done
)";

const char *kDbgRxProgram = R"(
    .equ CMD_RX, 0x8001
    .equ EV_RX, 3
boot:
    li r1, EV_RX
    la r2, on_rx
    setaddr r1, r2
    li r15, CMD_RX
    done
on_rx:
    mov r1, r15
    dbgout r1
    done
)";

/**
 * Two transmissions from different shards, no collision (disjoint
 * airtimes), both finalized at the same barrier and therefore
 * delivered at the same tick. The merge order at the receiver must be
 * the (start tick, source id, sequence) order of the words on the air
 * — not the outbox drain order — and must not depend on the job count.
 */
std::vector<std::uint16_t>
runEqualTickDelivery(unsigned jobs)
{
    ParallelNetwork net(1 * sim::kMicrosecond, jobs);
    net.addNode(cfgFor("a"), assembleSnap(kIdleProgram));
    net.addNode(cfgFor("b"), assembleSnap(kIdleProgram));
    auto &rx = net.addNode(cfgFor("c"), assembleSnap(kDbgRxProgram));
    net.setWindow(100 * sim::kMicrosecond);
    net.start();

    // Node 1 transmits first (at 10 us), node 0 later (at 40 us); both
    // words are off the air before the 100 us barrier, so both arrive
    // at the receiver at exactly the barrier tick.
    net.shardKernel(0).schedule(40 * sim::kMicrosecond, [&net] {
        net.shardMedium(0).beginTransmit(net.node(0).transceiver(),
                                         0xA0A0,
                                         20 * sim::kMicrosecond);
    });
    net.shardKernel(1).schedule(10 * sim::kMicrosecond, [&net] {
        net.shardMedium(1).beginTransmit(net.node(1).transceiver(),
                                         0xB1B1,
                                         20 * sim::kMicrosecond);
    });
    net.runFor(2 * sim::kMillisecond);

    EXPECT_EQ(net.stats().wordsSent, 2u);
    EXPECT_EQ(net.stats().collisions, 0u);
    return rx.core().debugOut();
}

TEST(ParallelNetworkTest, EqualTickCrossShardDeliveriesMergeByStart)
{
    std::vector<std::uint16_t> j1 = runEqualTickDelivery(1);
    // Node 1's word left the antenna first, so it is delivered first
    // even though node 0's outbox is drained first at the barrier.
    EXPECT_EQ(j1, (std::vector<std::uint16_t>{0xB1B1, 0xA0A0}));
    EXPECT_EQ(runEqualTickDelivery(3), j1);
}

TEST(ParallelNetworkTest, OverlappingCrossShardTransmissionsCollide)
{
    ParallelNetwork net(1 * sim::kMicrosecond, 2);
    net.addNode(cfgFor("a"), assembleSnap(kIdleProgram));
    net.addNode(cfgFor("b"), assembleSnap(kIdleProgram));
    auto &rx = net.addNode(cfgFor("c"), assembleSnap(kDbgRxProgram));
    net.setWindow(100 * sim::kMicrosecond);
    net.start();

    // Overlapping airtimes [10, 30) and [20, 40): both words garbled,
    // neither delivered — overlap alone decides, even though the
    // transmitters live in different shards and cannot sense each
    // other mid-window.
    net.shardKernel(0).schedule(10 * sim::kMicrosecond, [&net] {
        net.shardMedium(0).beginTransmit(net.node(0).transceiver(),
                                         0xA0A0,
                                         20 * sim::kMicrosecond);
    });
    net.shardKernel(1).schedule(20 * sim::kMicrosecond, [&net] {
        net.shardMedium(1).beginTransmit(net.node(1).transceiver(),
                                         0xB1B1,
                                         20 * sim::kMicrosecond);
    });
    net.runFor(2 * sim::kMillisecond);

    EXPECT_EQ(net.stats().wordsSent, 2u);
    EXPECT_EQ(net.stats().collisions, 2u);
    EXPECT_EQ(net.stats().wordsDelivered, 0u);
    EXPECT_TRUE(rx.core().debugOut().empty());
}

TEST(DeriveSeedTest, IsPureAndInsensitiveToRegistrationOrder)
{
    // A pure function of (base, id): evaluation order is irrelevant,
    // which is what frees node randomness from registration order and
    // shard assignment.
    EXPECT_EQ(sim::deriveSeed(42, 7), sim::deriveSeed(42, 7));
    std::vector<std::uint64_t> forward, backward;
    for (std::uint64_t id = 0; id < 16; ++id)
        forward.push_back(sim::deriveSeed(99, id));
    for (std::uint64_t id = 16; id-- > 0;)
        backward.push_back(sim::deriveSeed(99, id));
    for (std::size_t i = 0; i < forward.size(); ++i)
        EXPECT_EQ(forward[i], backward[forward.size() - 1 - i]);

    // Distinct per id and per base, and never zero (a zero seed would
    // lock up both the xorshift Rng and the guest LFSR).
    std::set<std::uint64_t> distinct(forward.begin(), forward.end());
    EXPECT_EQ(distinct.size(), forward.size());
    EXPECT_NE(sim::deriveSeed(1, 3), sim::deriveSeed(2, 3));
    for (std::uint64_t s : forward)
        EXPECT_NE(s, 0u);
    EXPECT_NE(sim::deriveSeed(0, 0), 0u);
}

} // namespace
