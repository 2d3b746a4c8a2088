/**
 * @file
 * Histogram and SLO tracker tests, including the selection-based
 * summary's agreement with sorted percentiles.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "stats/histogram.hh"
#include "stats/slo.hh"

using namespace altoc;
using namespace altoc::stats;

TEST(SampleHistogram, EmptyIsZero)
{
    SampleHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentile(0.99), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.max(), 0u);
}

TEST(SampleHistogram, SingleSample)
{
    SampleHistogram h;
    h.record(42);
    EXPECT_EQ(h.percentile(0.0), 42u);
    EXPECT_EQ(h.percentile(0.5), 42u);
    EXPECT_EQ(h.percentile(1.0), 42u);
    EXPECT_EQ(h.max(), 42u);
    EXPECT_EQ(h.mean(), 42.0);
}

TEST(SampleHistogram, PercentilesOfKnownSequence)
{
    SampleHistogram h;
    for (Tick v = 1; v <= 100; ++v)
        h.record(v);
    EXPECT_EQ(h.percentile(0.50), 50u);
    EXPECT_EQ(h.percentile(0.99), 99u);
    EXPECT_EQ(h.percentile(1.00), 100u);
    EXPECT_EQ(h.percentile(0.01), 1u);
}

TEST(SampleHistogram, CountAboveExact)
{
    SampleHistogram h;
    for (Tick v = 1; v <= 10; ++v)
        h.record(v);
    EXPECT_EQ(h.countAbove(7), 3u);
    EXPECT_EQ(h.countAbove(10), 0u);
    EXPECT_EQ(h.countAbove(0), 10u);
    EXPECT_DOUBLE_EQ(h.fractionAbove(5), 0.5);
}

TEST(SampleHistogram, RecordAfterQueryStillCorrect)
{
    SampleHistogram h;
    h.record(10);
    EXPECT_EQ(h.percentile(0.5), 10u);
    h.record(5);
    EXPECT_EQ(h.percentile(0.01), 5u);
    EXPECT_EQ(h.max(), 10u);
}

TEST(SampleHistogram, ResetClears)
{
    SampleHistogram h;
    h.record(3);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
}

TEST(SampleHistogram, SummarySelectionMatchesSorting)
{
    // summary() selects its order statistics; an identical store
    // answers percentile()/max() by sorting. Few distinct values put
    // many ties at every rank.
    constexpr std::size_t kSizes[] = {1, 2, 3, 999, 1000, 1001, 100000};
    for (const std::size_t n : kSizes) {
        SCOPED_TRACE(n);
        Rng rng(n);
        auto draw = [&rng] {
            return rng.below(4) == 0 ? Tick{1000} + rng.below(100)
                                     : Tick{10} * rng.below(8);
        };
        SampleHistogram selected;
        SampleHistogram sorted;
        for (std::size_t i = 0; i < n; ++i) {
            const Tick v = draw();
            selected.record(v);
            sorted.record(v);
        }
        auto expectAgrees = [&sorted](const Summary &s) {
            EXPECT_EQ(s.count, sorted.count());
            EXPECT_DOUBLE_EQ(s.mean, sorted.mean());
            EXPECT_EQ(s.p50, sorted.percentile(0.50));
            EXPECT_EQ(s.p90, sorted.percentile(0.90));
            EXPECT_EQ(s.p99, sorted.percentile(0.99));
            EXPECT_EQ(s.p999, sorted.percentile(0.999));
            EXPECT_EQ(s.max, sorted.max());
        };
        // Each summary() leaves the store partitioned, not sorted; the
        // queries after it must still answer as if sorted.
        expectAgrees(selected.summary());
        EXPECT_EQ(selected.percentile(0.25), sorted.percentile(0.25));
        EXPECT_EQ(selected.percentile(0.0), sorted.percentile(0.0));

        // Those queries sorted the store; summary() partitions it anew.
        expectAgrees(selected.summary());
        EXPECT_EQ(selected.percentile(0.0), sorted.percentile(0.0));
        EXPECT_EQ(selected.percentile(0.75), sorted.percentile(0.75));

        const Tick extra = draw();
        selected.record(extra);
        sorted.record(extra);
        expectAgrees(selected.summary());
        const Tick p90 = sorted.percentile(0.90);
        EXPECT_EQ(selected.countAbove(p90), sorted.countAbove(p90));
        EXPECT_EQ(selected.countAbove(0), sorted.countAbove(0));
    }
}

TEST(SloTracker, CountsViolations)
{
    SloTracker t(100);
    t.record(50);
    t.record(100); // boundary: not a violation
    t.record(101);
    t.record(500);
    EXPECT_EQ(t.completed(), 4u);
    EXPECT_EQ(t.violations(), 2u);
    EXPECT_DOUBLE_EQ(t.violationRatio(), 0.5);
}

TEST(SloTracker, MeetsSloUsesP99)
{
    SloTracker t(100);
    // 1% of samples above target -> p99 exactly at the boundary.
    for (int i = 0; i < 99; ++i)
        t.record(50);
    t.record(1000);
    EXPECT_TRUE(t.meetsSlo());
    t.record(1000);
    t.record(1000);
    EXPECT_FALSE(t.meetsSlo());
}

TEST(SloTracker, TargetHelper)
{
    EXPECT_EQ(sloTarget(850, 10.0), 8500u);
    EXPECT_EQ(sloTarget(1000, 5.0), 5000u);
}
