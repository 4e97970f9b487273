/**
 * @file
 * Field-mode channel tests: path-loss/RSSI arithmetic, carrier sense
 * by position, capture-threshold collision resolution (including
 * exactly-at-threshold and three-way overlap), and the per-receiver
 * channel accounting (rx_in_range == delivered + collisions + drops),
 * all through the air exchange's field mode (see air_rig.hh).
 */

#include <cmath>

#include <gtest/gtest.h>

#include "air_rig.hh"

namespace {

using namespace snaple;
using coproc::RadioMode;
using radio::FieldConfig;
using test::AirRig;
using Guest = AirRig::Guest;

/** A field-mode rig over @p cfg. */
struct FieldRig : AirRig
{
    explicit FieldRig(const FieldConfig &c = {}) : AirRig(&c), cfg(c) {}

    FieldConfig cfg;
};

TEST(FieldChannelTest, RssiFollowsLogDistancePathLoss)
{
    FieldRig r;
    const std::size_t a = r.addAt(0, 0);
    const std::size_t b = r.addAt(10, 0);
    // PL(10m) = 40 + 10*2.7*log10(10) = 67 dB; RSSI = 0 - 67.
    EXPECT_NEAR(r.net.rssiDbm(a, b), -67.0, 1e-9);
    // Symmetric, and distance-only (3-4-5 triangle = 5 m).
    const std::size_t c = r.addAt(13, 4);
    EXPECT_NEAR(r.net.rssiDbm(b, c), r.net.rssiDbm(c, b), 1e-12);
    EXPECT_NEAR(r.net.rssiDbm(b, c), -(40.0 + 27.0 * std::log10(5.0)),
                1e-9);
    // Inside the reference distance the loss clamps to pl0.
    const std::size_t d = r.addAt(10.5, 0);
    EXPECT_NEAR(r.net.rssiDbm(b, d), -40.0, 1e-9);
}

TEST(FieldChannelTest, RssiWordUsesHalfDbStepsAboveMinus120)
{
    EXPECT_EQ(radio::field::rssiToWord(-85.0), 70u);
    EXPECT_EQ(radio::field::rssiToWord(-120.0), 0u);
    EXPECT_EQ(radio::field::rssiToWord(-140.0), 0u); // clamped
    EXPECT_EQ(radio::field::rssiToWord(0.0), 240u);
}

TEST(FieldChannelTest, DeliveryStopsAtSensitivityRange)
{
    FieldRig r;
    const double range =
        radio::field::rangeM(r.cfg, r.cfg.sensitivityDbm);
    const std::size_t a = r.addAt(0, 0);
    const std::size_t nearRx = r.addAt(range * 0.99, 0, Guest::Listener);
    const std::size_t farRx = r.addAt(range * 1.01, 0, Guest::Listener);
    r.send(a, {0xAB});
    r.run(3 * sim::kMillisecond);
    EXPECT_EQ(r.heard(nearRx), (std::vector<std::uint16_t>{0xAB}));
    EXPECT_TRUE(r.heard(farRx).empty());
    // The out-of-range receiver is not an opportunity: distance is
    // topology, not a fault.
    EXPECT_EQ(r.net.airRxInRange(), 1u);
    EXPECT_EQ(r.net.stats().wordsDelivered, 1u);
}

TEST(FieldChannelTest, ReceiverReadsRssiOfAcceptedWord)
{
    FieldRig r;
    const std::size_t a = r.addAt(0, 0);
    const std::size_t b = r.addAt(10, 0, Guest::Listener);
    r.send(a, {0x77});
    r.run(3 * sim::kMillisecond);
    ASSERT_EQ(r.heard(b).size(), 1u);
    // RSSI -67 dBm -> (-67 + 120) * 2 = 106.
    EXPECT_EQ(r.radio(b).lastRssi(), 106u);
}

TEST(FieldChannelTest, CarrierSenseIsPositional)
{
    // Remote carrier is sensed from the first window barrier after the
    // word starts; a 50 us window makes it visible at the 100 us probe.
    FieldRig r;
    const double range =
        radio::field::rangeM(r.cfg, r.cfg.sensitivityDbm);
    const std::size_t a = r.addAt(0, 0);
    const std::size_t nearRx = r.addAt(range * 0.5, 0);
    const std::size_t farRx = r.addAt(range * 1.5, 0);
    r.net.setWindow(50 * sim::kMicrosecond);
    r.send(a, {0x1});
    r.run(100 * sim::kMicrosecond);
    EXPECT_TRUE(r.radio(nearRx).channelBusy());
    EXPECT_FALSE(r.radio(farRx).channelBusy()); // inaudibly far away
    EXPECT_TRUE(r.radio(a).channelBusy());      // own word counts
    r.run(2 * sim::kMillisecond);
    EXPECT_FALSE(r.radio(nearRx).channelBusy());
}

TEST(FieldChannelTest, StrongFrameCapturesOverlappingWeakOne)
{
    // Receiver at 1 m from A and ~30 m from B: A's word clears B's
    // interference by far more than the 10 dB margin, so A survives
    // the overlap at this receiver while B is garbled.
    FieldRig r;
    const std::size_t a = r.addAt(0, 0);
    const std::size_t b = r.addAt(31, 0);
    const std::size_t rx = r.addAt(1, 0, Guest::Listener);
    r.send(a, {0xAAAA});
    r.send(b, {0xBBBB});
    r.run(5 * sim::kMillisecond);
    EXPECT_EQ(r.heard(rx), (std::vector<std::uint16_t>{0xAAAA}));
    // Four opportunities: each word is in range of both the other
    // transmitter and rx. Only A-at-rx captures; the transmitters
    // swamp the incoming word with their own signal.
    EXPECT_EQ(r.net.airRxInRange(), 4u);
    EXPECT_EQ(r.net.stats().wordsDelivered, 1u);
    EXPECT_EQ(r.net.stats().collisions, 3u);
}

TEST(FieldChannelTest, CaptureExactlyAtThresholdDecodes)
{
    // ">=" at the capture threshold decodes. Exact FP equality by
    // symmetry: capture margin 0 dB, noise pushed far below one ulp
    // of the signal power, transmitters mirrored about the receiver
    // so signal and interferer powers are computed from bit-identical
    // distances. Then P_sig == capture * (P_noise + P_interf) exactly
    // (the noise term vanishes in the rounding), and both words
    // decode — a strict ">" would garble both.
    FieldConfig cfg;
    cfg.captureDb = 0.0;
    cfg.noiseDbm = -1000.0;     // ~1e-100 mW: below one ulp of -67 dBm
    cfg.sensitivityDbm = -85.0; // unchanged
    FieldRig r(cfg);
    const std::size_t a = r.addAt(-10, 0);
    const std::size_t b = r.addAt(10, 0);
    const std::size_t rx = r.addAt(0, 0, Guest::Listener);
    r.send(a, {0xCAFE});
    r.send(b, {0xD00D});
    r.run(5 * sim::kMillisecond);
    EXPECT_EQ(r.heard(rx).size(), 2u);
}

TEST(FieldChannelTest, ThreeWayOverlapSumsInterference)
{
    // Two interferers, each individually ~capture-clearable, must be
    // *summed*: A clears either alone but not both together.
    FieldConfig cfg;
    cfg.captureDb = 3.0;
    FieldRig r(cfg);
    const std::size_t a = r.addAt(0, 0);
    // rx at 2 m from A: sig = -(40 + 27*log10(2)) ~ -48.1 dBm.
    const std::size_t rx = r.addAt(2, 0, Guest::Listener);
    // Each interferer at ~8 m from rx: ~-64.4 dBm received. One alone:
    // margin ~16 dB > 3 dB -> captured. Both: interference doubles
    // (+3 dB), plus the margin, leaves ~10 dB -> still captured. So
    // move them closer: at 4 m, each ~-56.3 dBm; one alone -> margin
    // ~8.2 dB > 3 (captures); two -> sum -53.3 dBm, margin ~5.2 dB
    // still > 3. Closer still: at 3 m each ~-52.9; two sum to -49.9,
    // margin 1.8 dB < 3 -> garbled. The pair (one at 3 m captures,
    // two at 3 m garble) pins the summation.
    const std::size_t b = r.addAt(2 + 3, 0);
    const std::size_t c = r.addAt(2 - 3, 0);

    // Round 1: A vs B only — captured.
    r.send(a, {0x0A0A});
    r.send(b, {0x0B0B});
    r.run(5 * sim::kMillisecond);
    EXPECT_EQ(r.heard(rx), (std::vector<std::uint16_t>{0x0A0A}));

    // Round 2: A vs B and C — the summed interference garbles A.
    r.send(a, {0x1A1A});
    r.send(b, {0x1B1B});
    r.send(c, {0x1C1C});
    r.run(5 * sim::kMillisecond);
    EXPECT_EQ(r.heard(rx), (std::vector<std::uint16_t>{0x0A0A}));
}

TEST(FieldChannelTest, SubNoiseSignalsNeitherDeliverNorInterfere)
{
    FieldRig r;
    const double noiseRange =
        radio::field::rangeM(r.cfg, r.cfg.noiseDbm);
    const std::size_t a = r.addAt(0, 0);
    const std::size_t rx = r.addAt(1, 0, Guest::Listener);
    // An interferer so far out its signal at rx is below the noise
    // floor: it must not tip the capture check.
    const std::size_t far = r.addAt(noiseRange * 1.5, 0);
    r.send(a, {0x5555});
    r.send(far, {0x6666});
    r.run(5 * sim::kMillisecond);
    EXPECT_EQ(r.heard(rx), (std::vector<std::uint16_t>{0x5555}));
}

TEST(FieldChannelTest, AccountingReconcilesPerOpportunity)
{
    // rx_in_range == delivered + collisions + drops_mode + drops_fifo:
    // mix a capture loss (overlap), a wrong-mode receiver and a clean
    // delivery, and check the opportunity arithmetic closes.
    FieldRig r;
    const std::size_t a = r.addAt(0, 0);
    const std::size_t b = r.addAt(20, 0);
    r.addAt(10, 0, Guest::Listener); // rxMid: overlap garbles here
    r.addAt(1, 0);                   // rxIdle: in range, wrong mode
    r.addAt(2, 0, Guest::Listener);  // rxGood: accepts A's word
    r.send(a, {0xA1});
    r.send(b, {0xB2});
    r.run(5 * sim::kMillisecond);

    const radio::Medium::Stats s = r.net.stats();
    EXPECT_EQ(r.net.airPendingDeliveries(), 0u);
    EXPECT_EQ(r.net.airRxInRange(),
              s.wordsDelivered + s.collisions + s.dropsMode +
                  s.dropsFifo);
    EXPECT_GT(s.collisions, 0u);  // rxMid garbled at least once
    EXPECT_GT(s.dropsMode, 0u);   // rxIdle missed in Idle mode
    EXPECT_GT(s.wordsDelivered, 0u);
}

TEST(FieldChannelTest, DuplicateAttachKeepsOnePosition)
{
    FieldRig r;
    const std::size_t a = r.addAt(0, 0);
    const std::size_t b = r.addAt(10, 0, Guest::Listener);
    r.net.shardMedium(b).attach(&r.radio(b)); // idempotent
    r.send(a, {0x42});
    r.run(3 * sim::kMillisecond);
    EXPECT_EQ(r.heard(b), (std::vector<std::uint16_t>{0x42}));
    EXPECT_NEAR(r.net.rssiDbm(a, b), -67.0, 1e-9);
}

} // namespace
