/**
 * @file
 * Tests for the metrics registry: log2 histogram bucketing edges,
 * percentile determinism, gauge merge policies, and byte-stable
 * serialization.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "sim/metrics.hh"

namespace {

using namespace snaple::sim;

TEST(MetricHistogramTest, BucketEdgesFollowBitWidth)
{
    // Bucket 0 is exactly {0}; bucket b >= 1 is [2^(b-1), 2^b - 1].
    EXPECT_EQ(MetricHistogram::bucketOf(0), 0u);
    EXPECT_EQ(MetricHistogram::bucketOf(1), 1u);
    EXPECT_EQ(MetricHistogram::bucketOf(2), 2u);
    EXPECT_EQ(MetricHistogram::bucketOf(3), 2u);
    EXPECT_EQ(MetricHistogram::bucketOf(4), 3u);
    for (std::size_t k = 1; k < 64; ++k) {
        const std::uint64_t p = std::uint64_t{1} << k;
        EXPECT_EQ(MetricHistogram::bucketOf(p - 1), k);
        EXPECT_EQ(MetricHistogram::bucketOf(p), k + 1);
    }
    EXPECT_EQ(MetricHistogram::bucketOf(~std::uint64_t{0}), 64u);
}

TEST(MetricHistogramTest, BucketBoundsRoundTripThroughBucketOf)
{
    for (std::size_t b = 0; b < MetricHistogram::kNumBuckets; ++b) {
        EXPECT_EQ(MetricHistogram::bucketOf(MetricHistogram::bucketLo(b)),
                  b);
        EXPECT_EQ(MetricHistogram::bucketOf(MetricHistogram::bucketHi(b)),
                  b);
    }
}

TEST(MetricHistogramTest, RecordTracksMoments)
{
    MetricHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    h.record(7);
    h.record(100);
    h.record(3);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.sum(), 110u);
    EXPECT_EQ(h.min(), 3u);
    EXPECT_EQ(h.max(), 100u);
    EXPECT_DOUBLE_EQ(h.mean(), 110.0 / 3.0);
}

TEST(MetricHistogramTest, PercentileIsClampedAndMonotone)
{
    MetricHistogram h;
    for (std::uint64_t v : {5u, 9u, 17u, 33u, 1000u, 1001u})
        h.record(v);
    EXPECT_DOUBLE_EQ(h.percentile(0), 5.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 1001.0);
    double prev = -1.0;
    for (double p = 0; p <= 100; p += 2.5) {
        double v = h.percentile(p);
        EXPECT_GE(v, prev) << "p=" << p;
        EXPECT_GE(v, 5.0);
        EXPECT_LE(v, 1001.0);
        prev = v;
    }
}

TEST(MetricHistogramTest, PercentileIsExactWhenAllSamplesEqual)
{
    // min == max tightens the interpolation span to a point.
    MetricHistogram h;
    for (int i = 0; i < 50; ++i)
        h.record(42);
    EXPECT_DOUBLE_EQ(h.percentile(1), 42.0);
    EXPECT_DOUBLE_EQ(h.percentile(50), 42.0);
    EXPECT_DOUBLE_EQ(h.percentile(99), 42.0);
}

TEST(MetricHistogramTest, MergeMatchesRecordingEverythingInOne)
{
    MetricHistogram a, b, both;
    for (std::uint64_t v : {0u, 1u, 6u, 900u}) {
        a.record(v);
        both.record(v);
    }
    for (std::uint64_t v : {2u, 2u, 70000u}) {
        b.record(v);
        both.record(v);
    }
    a.mergeFrom(b);
    EXPECT_EQ(a.count(), both.count());
    EXPECT_EQ(a.sum(), both.sum());
    EXPECT_EQ(a.min(), both.min());
    EXPECT_EQ(a.max(), both.max());
    for (std::size_t bkt = 0; bkt < MetricHistogram::kNumBuckets; ++bkt)
        EXPECT_EQ(a.bucket(bkt), both.bucket(bkt)) << "bucket " << bkt;
    EXPECT_DOUBLE_EQ(a.percentile(50), both.percentile(50));
}

TEST(MetricHistogramTest, RestoreReproducesPercentiles)
{
    MetricHistogram h;
    for (std::uint64_t v : {3u, 19u, 21u, 500u, 8000u})
        h.record(v);
    std::vector<std::pair<std::size_t, std::uint64_t>> buckets;
    for (std::size_t b = 0; b < MetricHistogram::kNumBuckets; ++b)
        if (h.bucket(b))
            buckets.emplace_back(b, h.bucket(b));
    MetricHistogram r;
    r.restore(h.count(), h.sum(), h.min(), h.max(), buckets);
    EXPECT_DOUBLE_EQ(r.percentile(50), h.percentile(50));
    EXPECT_DOUBLE_EQ(r.percentile(99), h.percentile(99));
    EXPECT_EQ(r.mean(), h.mean());
}

TEST(MetricsRegistryTest, CountersAndGaugesKeepStableReferences)
{
    MetricsRegistry reg;
    MetricCounter &c = reg.counter("a.count");
    c.inc(3);
    // Creating more instruments must not invalidate c.
    for (int i = 0; i < 100; ++i)
        reg.counter("filler." + std::to_string(i));
    c.inc();
    EXPECT_EQ(reg.counter("a.count").value(), 4u);
}

TEST(MetricsRegistryTest, MergePoliciesSumMeanSkip)
{
    MetricsRegistry a, b, dst;
    a.counter("n").inc(10);
    b.counter("n").inc(5);
    a.gauge("sum", GaugeMerge::Sum).set(2.0);
    b.gauge("sum", GaugeMerge::Sum).set(4.0);
    a.gauge("mean", GaugeMerge::Mean).set(0.5);
    b.gauge("mean", GaugeMerge::Mean).set(0.25);
    a.gauge("skip", GaugeMerge::Skip).set(7.0);
    b.gauge("skip", GaugeMerge::Skip).set(9.0);

    dst.mergeFrom(a);
    dst.mergeFrom(b);
    EXPECT_EQ(dst.counter("n").value(), 15u);
    EXPECT_DOUBLE_EQ(dst.gauge("sum").value(), 6.0);
    EXPECT_DOUBLE_EQ(dst.gauge("mean").value(), 0.375);
    EXPECT_DOUBLE_EQ(dst.gauge("skip").value(), 0.0);
}

TEST(MetricsRegistryTest, ResetThenRemergeIsIdempotent)
{
    MetricsRegistry src, dst;
    src.counter("c").inc(2);
    src.gauge("g", GaugeMerge::Mean).set(1.0);
    src.histogram("h").record(9);
    for (int round = 0; round < 3; ++round) {
        dst.resetValues();
        dst.mergeFrom(src);
        EXPECT_EQ(dst.counter("c").value(), 2u);
        EXPECT_DOUBLE_EQ(dst.gauge("g").value(), 1.0);
        EXPECT_EQ(dst.histogram("h").count(), 1u);
    }
}

TEST(MetricsRegistryTest, JsonlSnapshotsAreByteStable)
{
    MetricsRegistry reg;
    reg.counter("z.last").inc(1);
    reg.counter("a.first").inc(42);
    reg.gauge("m.duty", GaugeMerge::Mean).set(0.125);
    reg.histogram("h.wait").record(0);
    reg.histogram("h.wait").record(300);

    std::ostringstream s1, s2;
    reg.writeJsonl(s1, 777, "n0");
    reg.writeJsonl(s2, 777, "n0");
    EXPECT_EQ(s1.str(), s2.str());
    // Name-sorted order, not insertion order.
    EXPECT_LT(s1.str().find("a.first"), s1.str().find("z.last"));
    EXPECT_NE(s1.str().find("\"type\":\"hist\""), std::string::npos);
    EXPECT_NE(s1.str().find("\"v\":0.125"), std::string::npos);
}

TEST(MetricsRegistryTest, FormatDoubleIsShortestRoundTrip)
{
    EXPECT_EQ(formatDouble(0.0), "0");
    EXPECT_EQ(formatDouble(0.5), "0.5");
    EXPECT_EQ(formatDouble(0.125), "0.125");
    EXPECT_EQ(formatDouble(3.0), "3");
}

} // namespace
