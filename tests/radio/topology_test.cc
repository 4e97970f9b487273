/**
 * @file
 * Link-filter / topology tests for the single-cell channel, the
 * carrier sense surface used by the guest MAC, and idle-listening
 * energy.
 */

#include <gtest/gtest.h>

#include "air_rig.hh"

namespace {

using namespace snaple;
using coproc::RadioMode;
using test::AirRig;
using Guest = AirRig::Guest;

TEST(TopologyTest, LinkFilterRestrictsDelivery)
{
    AirRig r;
    const std::size_t a = r.add();
    const std::size_t b = r.add(Guest::Listener);
    const std::size_t c = r.add(Guest::Listener);
    // Only a -> b is connected.
    r.net.setLinkFilter([&](std::size_t src, std::size_t dst) {
        return src == a && dst == b;
    });
    r.send(a, {0x1234});
    r.run(5 * sim::kMillisecond);
    EXPECT_EQ(r.heard(b), (std::vector<std::uint16_t>{0x1234}));
    EXPECT_TRUE(r.heard(c).empty());
    // The filter gates delivery, not the energy of listening... the
    // out-of-range node never saw the word at all.
    EXPECT_EQ(r.radio(c).stats().rxWords, 0u);
}

TEST(TopologyTest, CollisionsAreGlobalEvenWithTopology)
{
    // One shared channel: two transmissions overlap in time and
    // garble each other even if their receivers don't overlap.
    AirRig r;
    const std::size_t a = r.add();
    const std::size_t b = r.add(Guest::Listener);
    const std::size_t c = r.add();
    const std::size_t d = r.add(Guest::Listener);
    r.net.setLinkFilter([&](std::size_t src, std::size_t dst) {
        return (src == a && dst == b) || (src == c && dst == d);
    });
    r.send(a, {1});
    r.send(c, {2});
    r.run(5 * sim::kMillisecond);
    EXPECT_EQ(r.net.stats().collisions, 2u);
    EXPECT_TRUE(r.heard(b).empty());
    EXPECT_TRUE(r.heard(d).empty());
}

TEST(TopologyTest, CarrierSenseReflectsAirState)
{
    // Another node's carrier is sensed from the first window barrier
    // after the word starts (the lookahead contract), so a window
    // shorter than the 100 us probe makes it visible there.
    AirRig r;
    const std::size_t a = r.add();
    const std::size_t b = r.add();
    r.net.setWindow(50 * sim::kMicrosecond);
    r.ensureStarted();
    EXPECT_FALSE(r.radio(b).channelBusy());
    r.send(a, {7});
    r.run(100 * sim::kMicrosecond);
    EXPECT_TRUE(r.radio(b).channelBusy());
    EXPECT_TRUE(r.radio(a).channelBusy()); // own transmission counts too
    r.run(2 * sim::kMillisecond);
    EXPECT_FALSE(r.radio(b).channelBusy());
}

TEST(ListenEnergyTest, RxModeAccruesIdleListeningPower)
{
    AirRig r;
    const std::size_t n = r.add();
    radio::Transceiver &t = r.radio(n);
    const energy::EnergyLedger &ledger = r.net.node(n).ctx().ledger;
    // One second in Rx mode at 11.4 mW = 11.4 mJ = 1.14e10 pJ.
    t.setMode(RadioMode::Rx);
    r.run(sim::kSecond);
    t.accrueListenEnergy();
    EXPECT_NEAR(ledger.pj(energy::Cat::Radio), 11.4e9, 1e7);
    // Idle mode accrues nothing further.
    t.setMode(RadioMode::Idle);
    r.run(sim::kSecond);
    t.accrueListenEnergy();
    EXPECT_NEAR(ledger.pj(energy::Cat::Radio), 11.4e9, 1e7);
}

TEST(ListenEnergyTest, SelfPoweredRadioListensForFree)
{
    AirRig r;
    node::NodeConfig c;
    c.core.stopOnHalt = false;
    c.radio.selfPowered = true;
    node::SnapNode &n =
        r.net.addNode(c, assembler::assembleSnap(test::kIdleGuest));
    n.transceiver()->setMode(RadioMode::Rx);
    r.run(sim::kSecond);
    n.transceiver()->accrueListenEnergy();
    EXPECT_DOUBLE_EQ(n.ctx().ledger.pj(energy::Cat::Radio), 0.0);
}

} // namespace
