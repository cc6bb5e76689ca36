/**
 * @file
 * The metrics registry (src/sim/metrics.hh): binding semantics, bound
 * counters and histograms read through value() and snapshot(),
 * snapshot order, histogram math and bucket edges, and the
 * accounting record.
 */

#include <gtest/gtest.h>

#include "sim/metrics.hh"

namespace mach
{
namespace
{

TEST(MetricsRegistryTest, RegistrationFindsOrCreates)
{
    std::uint64_t faults = 0, pageins = 0;
    MetricsRegistry reg;
    MetricId a = reg.bind("vm.faults", &faults);
    MetricId b = reg.bind("vm.faults", &faults);
    MetricId c = reg.bind("vm.pageins", &pageins);
    EXPECT_TRUE(a.valid());
    EXPECT_EQ(a.index, b.index);
    EXPECT_NE(a.index, c.index);
    EXPECT_EQ(reg.size(), 2u);

    EXPECT_EQ(reg.find("vm.faults").index, a.index);
    EXPECT_FALSE(reg.find("no.such").valid());
    EXPECT_EQ(reg.value(MetricId{}), 0u);
}

TEST(MetricsRegistryTest, BoundMetricReadsExternalStorage)
{
    std::uint64_t external = 0;
    MetricsRegistry reg;
    MetricId id = reg.bind("vm.external", &external);
    EXPECT_EQ(reg.value(id), 0u);
    external = 42; // the ++stats.x hot path, unchanged
    EXPECT_EQ(reg.value(id), 42u);
}

TEST(MetricsRegistryTest, BoundHistogramKeepsBucketEdges)
{
    LatencyHistogram hist;
    MetricsRegistry reg;
    reg.bind("h", &hist);
    // Exact bucket-edge values: bucket index is bit_width(v), so 7
    // and 8 land in different buckets (upper bounds 7 and 15).
    hist.record(7);
    hist.record(8);
    hist.record(8);

    LatencyHistogram h = reg.snapshot().histogram("h");
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.min(), 7u);
    EXPECT_EQ(h.max(), 8u);
    EXPECT_EQ(h.bucketCount(3), 1u); // 7 -> bucket 3 [4,7]
    EXPECT_EQ(h.bucketCount(4), 2u); // 8 -> bucket 4 [8,15]
    EXPECT_EQ(LatencyHistogram::bucketUpperBound(3), 7u);
    EXPECT_EQ(LatencyHistogram::bucketUpperBound(4), 15u);
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndComplete)
{
    std::uint64_t b = 9, a = 3;
    LatencyHistogram z, m;
    MetricsRegistry reg;
    reg.bind("b.bound", &b);
    reg.bind("z.hist", &z);
    reg.bind("a.counter", &a);
    reg.bind("m.hist", &m);
    m.record(100);

    MetricsRegistry::Snapshot s = reg.snapshot();
    ASSERT_EQ(s.counters.size(), 2u);
    EXPECT_EQ(s.counters[0].first, "a.counter");
    EXPECT_EQ(s.counters[0].second, 3u);
    EXPECT_EQ(s.counters[1].first, "b.bound");
    EXPECT_EQ(s.counters[1].second, 9u);
    ASSERT_EQ(s.histograms.size(), 2u);
    EXPECT_EQ(s.histograms[0].first, "m.hist");
    EXPECT_EQ(s.histograms[0].second.count(), 1u);
    EXPECT_EQ(s.histograms[1].first, "z.hist");
    EXPECT_EQ(s.histograms[1].second.count(), 0u);

    EXPECT_EQ(s.counterValue("b.bound"), 9u);
    EXPECT_EQ(s.counterValue("missing"), 0u);
    EXPECT_EQ(s.histogram("missing").count(), 0u);

    // A snapshot is a copy: later updates do not reach it.
    ++a;
    m.record(5);
    EXPECT_EQ(s.counterValue("a.counter"), 3u);
    EXPECT_EQ(s.histogram("m.hist").count(), 1u);
    EXPECT_EQ(reg.snapshot().counterValue("a.counter"), 4u);
    EXPECT_EQ(reg.snapshot().histogram("m.hist").count(), 2u);
}

TEST(LatencyHistogramTest, CountsTotalsAndExtremes)
{
    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.mean(), 0u);

    h.record(100);
    h.record(300);
    h.record(200);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.total(), 600u);
    EXPECT_EQ(h.min(), 100u);
    EXPECT_EQ(h.max(), 300u);
    EXPECT_EQ(h.mean(), 200u);
}

TEST(LatencyHistogramTest, BucketsAreLog2)
{
    LatencyHistogram h;
    h.record(0);    // bucket 0
    h.record(1);    // bucket 1
    h.record(5);    // bucket 3: bit_width(5) == 3
    h.record(1024); // bucket 11
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(3), 1u);
    EXPECT_EQ(h.bucketCount(11), 1u);
    EXPECT_EQ(LatencyHistogram::bucketUpperBound(0), 0u);
    EXPECT_EQ(LatencyHistogram::bucketUpperBound(3), 7u);
    EXPECT_EQ(LatencyHistogram::bucketUpperBound(11), 2047u);
}

TEST(LatencyHistogramTest, QuantileMergeAndReset)
{
    LatencyHistogram h;
    for (int i = 0; i < 90; ++i)
        h.record(4);       // bucket 3, upper bound 7
    for (int i = 0; i < 10; ++i)
        h.record(1000);    // bucket 10, upper bound 1023
    EXPECT_EQ(h.quantile(0.5), 7u);
    // The p99 bucket's upper bound (1023) is clamped to the max seen.
    EXPECT_EQ(h.quantile(0.99), 1000u);

    LatencyHistogram other;
    other.record(1u << 20);
    h.merge(other);
    EXPECT_EQ(h.count(), 101u);
    EXPECT_EQ(h.max(), 1u << 20);
    EXPECT_EQ(h.min(), 4u);

    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.quantile(0.5), 0u);
}

TEST(VmAccountingTest, CountFaultTalliesByKind)
{
    VmAccounting acct;
    acct.countFault(TraceFaultKind::Cow);
    acct.countFault(TraceFaultKind::Cow);
    acct.countFault(TraceFaultKind::Pagein);
    ++acct.pageouts;
    EXPECT_EQ(acct.faults(), 3u);
    EXPECT_EQ(acct.cowFaults(), 2u);
    EXPECT_EQ(acct.pageins(), 1u);
    EXPECT_EQ(acct.zeroFills(), 0u);
    EXPECT_EQ(acct.pageouts, 1u);
}

TEST(VmAccountingTest, MergeSumsEveryKind)
{
    VmAccounting a, b;
    a.faultsByKind[static_cast<unsigned>(TraceFaultKind::ZeroFill)] =
        3;
    a.pageouts = 1;
    b.faultsByKind[static_cast<unsigned>(TraceFaultKind::Cow)] = 2;
    b.pageouts = 4;
    a.merge(b);
    EXPECT_EQ(a.faults(), 5u);
    EXPECT_EQ(a.zeroFills(), 3u);
    EXPECT_EQ(a.cowFaults(), 2u);
    EXPECT_EQ(a.pageouts, 5u);
}

} // namespace
} // namespace mach
