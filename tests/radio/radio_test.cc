/**
 * @file
 * Single-cell radio channel and transceiver tests (host-driven
 * transmissions on the network harness; see air_rig.hh).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "air_rig.hh"

namespace {

using namespace snaple;
using coproc::RadioMode;
using radio::RadioConfig;
using test::AirRig;
using Guest = AirRig::Guest;

TEST(RadioTest, WordAirtimeMatches19200Bps)
{
    AirRig r;
    const std::size_t a = r.add();
    // 16 bits / 19200 bps = 833.3 us: "almost a millisecond per word".
    EXPECT_NEAR(sim::toUs(r.radio(a).wordAirtime()), 833.3, 0.5);
}

TEST(RadioTest, WordsDeliverToReceiversInRxMode)
{
    AirRig r;
    const std::size_t a = r.add();
    const std::size_t b = r.add(Guest::Listener);
    r.send(a, {0x1234, 0x5678});
    r.run(3 * sim::kMillisecond);
    EXPECT_EQ(r.heard(b), (std::vector<std::uint16_t>{0x1234, 0x5678}));
    EXPECT_EQ(r.radio(b).stats().rxWords, 2u);
    EXPECT_EQ(r.net.stats().collisions, 0u);
}

TEST(RadioTest, IdleReceiversMissWords)
{
    AirRig r;
    const std::size_t a = r.add();
    const std::size_t b = r.add();
    r.radio(b).setMode(RadioMode::Idle);
    r.send(a, {0x1234});
    r.run(3 * sim::kMillisecond);
    EXPECT_EQ(r.radio(b).stats().rxWords, 0u);
    EXPECT_EQ(r.radio(b).stats().rxMissedWrongMode, 1u);
}

TEST(RadioTest, TransmitterDoesNotHearItself)
{
    AirRig r;
    const std::size_t a = r.add();
    r.add();
    r.radio(a).setMode(RadioMode::Rx); // even in RX mode
    r.send(a, {0x42});
    r.run(3 * sim::kMillisecond);
    EXPECT_EQ(r.radio(a).stats().rxWords, 0u);
    EXPECT_EQ(r.radio(a).stats().rxMissedWrongMode, 0u);
}

TEST(RadioTest, OverlappingTransmissionsCollide)
{
    AirRig r;
    const std::size_t a = r.add();
    const std::size_t b = r.add();
    const std::size_t c = r.add(Guest::Listener);
    r.send(a, {0xAAAA});
    r.send(b, {0xBBBB});
    r.run(5 * sim::kMillisecond);
    EXPECT_TRUE(r.heard(c).empty());
    EXPECT_EQ(r.radio(c).stats().rxWords, 0u);
    EXPECT_EQ(r.net.stats().collisions, 2u);
}

TEST(RadioTest, CarrierSenseSeesBusyMedium)
{
    // The transmitter's own port is busy for exactly the airtime.
    AirRig r;
    const std::size_t a = r.add();
    r.add();
    r.send(a, {0x1});
    r.run(100 * sim::kMicrosecond);
    EXPECT_TRUE(r.net.shardMedium(a).busy());
    r.run(2 * sim::kMillisecond);
    EXPECT_FALSE(r.net.shardMedium(a).busy());
}

TEST(RadioTest, RadioEnergyChargedPerWord)
{
    AirRig r;
    const std::size_t a = r.add();
    const std::size_t b = r.add();
    r.radio(b).setMode(RadioMode::Rx);
    r.send(a, {1, 2, 3});
    r.run(5 * sim::kMillisecond);
    RadioConfig cfg;
    EXPECT_DOUBLE_EQ(r.net.node(a).ctx().ledger.pj(energy::Cat::Radio),
                     3 * cfg.txPjPerWord);
    EXPECT_DOUBLE_EQ(r.net.node(b).ctx().ledger.pj(energy::Cat::Radio),
                     3 * cfg.rxPjPerWord);
}

/** Largest air-side storage over a run: unresolved flights in the
 *  exchange and kernel events owned by any node's medium port. */
struct AirStorage
{
    std::size_t flights = 0;
    std::size_t events = 0;

    void
    sample(net::ParallelNetwork &net)
    {
        flights = std::max(flights, net.airPendingFlights());
        for (std::size_t i = 0; i < net.size(); ++i)
            events = std::max(events,
                              net.shardMedium(i).pendingKernelEvents());
    }
};

TEST(RadioTest, FlightStorageStaysBoundedOverManyWords)
{
    // Regression: the channel used to allocate one flight record per
    // word ever transmitted and never retire it, so a chatty node grew
    // the host's memory without bound. Pending flights and the
    // per-node carrier/offer events must stay bounded by the words
    // that can be in flight at once, not by the words ever sent.
    AirRig r;
    const std::size_t a = r.add();
    const std::size_t b = r.add();
    r.radio(b).setMode(RadioMode::Rx);
    constexpr std::size_t kWords = 100000;
    r.send(a, std::vector<std::uint16_t>(kWords, 0xA5A5));
    AirStorage peak;
    for (int chunk = 0; chunk < 200; ++chunk) {
        r.run(sim::kSecond);
        peak.sample(r.net);
    }
    ASSERT_EQ(r.net.stats().wordsSent, kWords);
    // The receiver's guest never reads its words, so once the RX FIFO
    // and the message coprocessor are full every offer is a counted
    // FIFO drop — the acceptance arithmetic still covers every word.
    EXPECT_EQ(r.net.stats().wordsDelivered + r.net.stats().dropsFifo,
              kWords);
    EXPECT_GT(r.net.stats().dropsFifo, 0u);
    // One word in the air at a time (plus its delivery offer): a
    // handful of records, not one per word.
    EXPECT_LE(peak.flights, 2u);
    EXPECT_LE(peak.events, 4u);
    EXPECT_EQ(r.net.airPendingFlights(), 0u);
}

TEST(RadioTest, FlightStorageStaysBoundedUnderCollisions)
{
    // Collided flights never produce delivery offers; their records
    // must be retired all the same.
    AirRig r;
    const std::size_t a = r.add();
    const std::size_t b = r.add();
    AirStorage peak;
    for (int burst = 0; burst < 1000; ++burst) {
        r.send(a, {0x1111});
        r.send(b, {0x2222});
        r.run(3 * sim::kMillisecond);
        peak.sample(r.net);
    }
    ASSERT_EQ(r.net.stats().wordsSent, 2000u);
    EXPECT_EQ(r.net.stats().collisions, 2000u);
    EXPECT_LE(peak.flights, 4u);
    EXPECT_LE(peak.events, 4u);
    EXPECT_EQ(r.net.airPendingFlights(), 0u);
}

TEST(RadioTest, DeliveredCountsAcceptedWordsOnly)
{
    // Regression: the channel used to bump "air.words_delivered" for
    // every offer, even when the transceiver dropped the word (wrong
    // mode or full RX FIFO) — delivered could exceed what any receiver
    // ever saw. Delivery now counts acceptance; refusals land in the
    // explicit drop counters and the per-receiver arithmetic closes.
    AirRig r;
    const std::size_t a = r.add();
    const std::size_t b = r.add();
    r.radio(b).setMode(RadioMode::Idle); // word 1: offered, not in Rx
    r.send(a, {0x0001});
    r.run(3 * sim::kMillisecond);
    EXPECT_EQ(r.net.stats().wordsDelivered, 0u);
    EXPECT_EQ(r.net.stats().dropsMode, 1u);

    // The idle guest never reads a word, so the receiver holds the RX
    // FIFO (8 words), the message coprocessor's outbound FIFO and the
    // one word the coprocessor has in hand; the next word overflows.
    const std::size_t held =
        8 + node::NodeConfig{}.core.msgFifoDepth + 1;
    r.radio(b).setMode(RadioMode::Rx);
    r.send(a, std::vector<std::uint16_t>(held + 1, 0x2222));
    r.run(30 * sim::kMillisecond);
    const radio::Medium::Stats s = r.net.stats();
    EXPECT_EQ(s.wordsDelivered, held);
    EXPECT_EQ(s.dropsFifo, 1u);
    EXPECT_EQ(s.wordsSent,
              s.wordsDelivered + s.dropsMode + s.dropsFifo);
    EXPECT_EQ(r.radio(b).stats().rxWords, s.wordsDelivered);
}

TEST(RadioTest, DuplicateAttachIsIgnored)
{
    // Regression: attach() used to append unconditionally, so a
    // transceiver registered twice heard every word twice (and was
    // charged RX energy twice). The second attach is now a no-op.
    AirRig r;
    const std::size_t a = r.add();
    const std::size_t b = r.add(Guest::Listener);
    r.net.shardMedium(b).attach(&r.radio(b));
    r.send(a, {0xBEEF});
    r.run(3 * sim::kMillisecond);
    EXPECT_EQ(r.heard(b), (std::vector<std::uint16_t>{0xBEEF}));
    EXPECT_EQ(r.radio(b).stats().rxWords, 1u);
    EXPECT_EQ(r.net.stats().wordsDelivered, 1u);
    RadioConfig cfg;
    // Listening energy is accrued lazily and only by mode changes
    // here, so the ledger holds exactly the one word's RX cost.
    EXPECT_DOUBLE_EQ(r.net.node(b).ctx().ledger.pj(energy::Cat::Radio),
                     cfg.rxPjPerWord);
}

TEST(RadioTest, BackToBackWordsSpaceByAirtime)
{
    AirRig r;
    const std::size_t a = r.add();
    r.add(Guest::Listener);
    r.net.enableAirTrace();
    r.send(a, {1, 2});
    r.run(5 * sim::kMillisecond);
    ASSERT_EQ(r.net.trace().size(), 2u);
    EXPECT_NEAR(sim::toUs(r.net.trace()[1].at - r.net.trace()[0].at),
                833.3, 1.0);
}

} // namespace
