/**
 * @file
 * Erlang formula, threshold model and load estimator tests.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/erlang.hh"
#include "core/prediction.hh"

using namespace altoc;
using namespace altoc::core;

TEST(Erlang, ErlangBKnownValues)
{
    // Classic telephony table values.
    EXPECT_NEAR(erlangB(1, 1.0), 0.5, 1e-9);
    EXPECT_NEAR(erlangB(2, 1.0), 1.0 / 5.0, 1e-9);
    // B(k, 0) = 0 for any k >= 1.
    EXPECT_NEAR(erlangB(4, 0.0), 0.0, 1e-12);
}

TEST(Erlang, ErlangCSingleServerIsUtilization)
{
    // For M/M/1, C_1(rho) = rho.
    for (double rho : {0.1, 0.5, 0.9, 0.99})
        EXPECT_NEAR(erlangC(1, rho), rho, 1e-9);
}

TEST(Erlang, ErlangCBounds)
{
    for (unsigned k : {2u, 8u, 64u, 256u}) {
        for (double rho : {0.3, 0.7, 0.95, 0.999}) {
            const double c = erlangC(k, rho * k);
            EXPECT_GE(c, 0.0);
            EXPECT_LE(c, 1.0);
        }
    }
}

TEST(Erlang, ErlangCSaturates)
{
    EXPECT_EQ(erlangC(4, 4.0), 1.0);
    EXPECT_EQ(erlangC(4, 10.0), 1.0);
    EXPECT_EQ(erlangC(4, 0.0), 0.0);
}

TEST(Erlang, MoreServersWaitLess)
{
    // Same utilization, more servers -> lower wait probability.
    double prev = 1.1;
    for (unsigned k : {1u, 2u, 4u, 16u, 64u}) {
        const double c = erlangC(k, 0.9 * k);
        EXPECT_LT(c, prev);
        prev = c;
    }
}

TEST(Erlang, QueueLengthMM1ClosedForm)
{
    // M/M/1: E[Nq] = rho^2 / (1 - rho).
    for (double rho : {0.5, 0.8, 0.95}) {
        EXPECT_NEAR(expectedQueueLength(1, rho),
                    rho * rho / (1.0 - rho), 1e-9);
    }
}

TEST(Erlang, QueueLengthGrowsWithLoad)
{
    double prev = -1.0;
    for (double rho : {0.90, 0.95, 0.97, 0.99, 0.995}) {
        const double nq = expectedQueueLength(64, rho * 64);
        EXPECT_GT(nq, prev);
        prev = nq;
    }
}

TEST(Erlang, PaperMrSizingHolds)
{
    // Sec. V-B sizes the MR bank at 11 entries from "the mean of
    // E[Nq] for each group ... when system load is near 1". For a
    // 15-worker group that magnitude corresponds to high (but not
    // critical) load around rho ~ 0.95; E[Nq] then sits in the
    // 10-20 range that justifies an 11-entry bank.
    const double nq = expectedQueueLength(15, 0.95 * 15);
    EXPECT_GT(nq, 4.0);
    EXPECT_LT(nq, 25.0);
}

TEST(Erlang, NumericallyStableAt256Servers)
{
    const double c = erlangC(256, 0.99 * 256);
    EXPECT_TRUE(std::isfinite(c));
    EXPECT_GT(c, 0.0);
    EXPECT_LT(c, 1.0);
    EXPECT_TRUE(std::isfinite(expectedQueueLength(256, 0.999 * 256)));
}

TEST(ThresholdModel, Fig7dConstantsReproduceShape)
{
    // With a=1.01, c=0.998, b=d=0 the threshold tracks E[Nq] closely
    // (Fig. 7d's two curves nearly coincide).
    ThresholdModel m(64, 10.0, ModelConstants{1.01, 0.0, 0.998, 0.0});
    for (double rho : {0.95, 0.97, 0.99}) {
        const double t = m.expectedThreshold(rho * 64);
        const double nq = expectedQueueLength(64, rho * 64);
        EXPECT_NEAR(t, nq, nq * 0.02 + 1.0);
    }
}

TEST(ThresholdModel, ClampsToBounds)
{
    ThresholdModel m(64, 10.0, ModelConstants{});
    EXPECT_GE(m.threshold(0.1), 1u);
    // Saturated load clamps to the naive upper bound k*L + 1.
    EXPECT_EQ(m.threshold(64.0), m.upperBound());
    EXPECT_EQ(m.upperBound(), 641u);
}

TEST(ThresholdModel, ThresholdMonotoneInLoad)
{
    ThresholdModel m(16, 10.0, ModelConstants{});
    unsigned prev = 0;
    for (double rho : {0.8, 0.9, 0.95, 0.99}) {
        const unsigned t = m.threshold(rho * 16);
        EXPECT_GE(t, prev);
        prev = t;
    }
}

TEST(LoadEstimator, ConvergesToOfferedLoad)
{
    // 1 arrival per 100 ns with 400 ns mean service = 4 Erlangs.
    LoadEstimator est(400);
    Tick now = 0;
    for (int i = 0; i < 5000; ++i) {
        now += 100;
        est.onArrival(now);
    }
    EXPECT_NEAR(est.offeredLoad(now), 4.0, 0.4);
}

TEST(LoadEstimator, DecaysWhenIdle)
{
    LoadEstimator est(400);
    Tick now = 0;
    for (int i = 0; i < 2000; ++i) {
        now += 100;
        est.onArrival(now);
    }
    const double busy = est.offeredLoad(now);
    const double later = est.offeredLoad(now + 1000 * kUs);
    EXPECT_LT(later, busy * 0.05);
}

TEST(LoadEstimator, TracksRateChanges)
{
    LoadEstimator est(400);
    Tick now = 0;
    for (int i = 0; i < 2000; ++i) {
        now += 200; // 2 Erlangs
        est.onArrival(now);
    }
    for (int i = 0; i < 2000; ++i) {
        now += 50; // 8 Erlangs
        est.onArrival(now);
    }
    EXPECT_NEAR(est.offeredLoad(now), 8.0, 0.8);
}
