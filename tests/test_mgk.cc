/**
 * @file
 * M/G/k analytics tests, including simulator-vs-theory agreement:
 * the discrete-event substrate must reproduce the analytic mean
 * waits within tolerance across distributions and loads.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "core/mgk.hh"
#include "system/rack.hh"
#include "workload/distributions.hh"

using namespace altoc;
using namespace altoc::core;
using namespace altoc::system;

TEST(Moments, FixedHasZeroVariance)
{
    workload::FixedDist d(1000);
    const ServiceMoments m = momentsOf(d);
    EXPECT_DOUBLE_EQ(m.mean, 1000.0);
    EXPECT_NEAR(m.scv(), 0.0, 1e-12);
}

TEST(Moments, ExponentialScvIsOne)
{
    workload::ExponentialDist d(700);
    EXPECT_NEAR(momentsOf(d).scv(), 1.0, 1e-12);
}

TEST(Moments, UniformBandScv)
{
    auto d = workload::makeUniformAround(1200);
    // U(m/2, 3m/2): variance = (b-a)^2/12 = m^2/12 -> SCV = 1/12.
    EXPECT_NEAR(momentsOf(*d).scv(), 1.0 / 12.0, 0.01);
}

TEST(Moments, BimodalScvLarge)
{
    workload::BimodalDist d(0.005, 500, 500000);
    const double scv = momentsOf(d).scv();
    EXPECT_GT(scv, 50.0);
}

TEST(Moments, SampledMatchesAnalytic)
{
    workload::BimodalDist d(0.01, 100, 10000);
    const ServiceMoments exact = momentsOf(d);
    const ServiceMoments est = sampleMoments(d, 400000, 9);
    EXPECT_NEAR(est.mean, exact.mean, exact.mean * 0.03);
    EXPECT_NEAR(est.scv(), exact.scv(), exact.scv() * 0.1);
}

TEST(Mgk, Mm1ClosedForm)
{
    // M/M/1: E[Wq] = rho/(1-rho) * s.
    workload::ExponentialDist d(1000);
    const ServiceMoments m = momentsOf(d);
    for (double rho : {0.3, 0.6, 0.9}) {
        EXPECT_NEAR(mgkMeanWait(1, rho, m),
                    rho / (1.0 - rho) * 1000.0, 1e-6);
    }
}

TEST(Mgk, MD1HalvesTheWait)
{
    // M/D/1 waits are half of M/M/1 at equal load.
    workload::FixedDist fixed(1000);
    workload::ExponentialDist expo(1000);
    const double wd = mgkMeanWait(1, 0.8, momentsOf(fixed));
    const double wm = mgkMeanWait(1, 0.8, momentsOf(expo));
    EXPECT_NEAR(wd, wm / 2.0, 1e-6);
}

TEST(Mgk, KingmanMatchesMm1AtCa1)
{
    workload::ExponentialDist d(1000);
    EXPECT_NEAR(kingmanWait(0.7, 1.0, momentsOf(d)),
                mgkMeanWait(1, 0.7, momentsOf(d)), 1e-6);
}

TEST(Mgk, QuantileZeroWhenRarelyWaiting)
{
    workload::ExponentialDist d(1000);
    // 16 servers at 30% load: p50 wait must be 0 (most arrivals find
    // an idle server).
    EXPECT_DOUBLE_EQ(mgkWaitQuantile(16, 0.3, momentsOf(d), 0.5), 0.0);
    EXPECT_GT(mgkWaitQuantile(16, 0.95, momentsOf(d), 0.99), 0.0);
}

// ---------------------------------------------------------------------
// Simulator-vs-theory agreement
// ---------------------------------------------------------------------

namespace {

using AgreeParam = std::tuple<int /*dist*/, double /*rho*/>;

class SimTheoryAgree : public ::testing::TestWithParam<AgreeParam>
{
};

std::shared_ptr<workload::ServiceDist>
distFor(int kind)
{
    switch (kind) {
      case 0:
        return workload::makeFixed(1000);
      case 1:
        return workload::makeExponential(1000);
      default:
        return workload::makeUniformAround(1000);
    }
}

} // namespace

TEST_P(SimTheoryAgree, MeanWaitWithinTolerance)
{
    const auto [kind, rho] = GetParam();
    auto dist = distFor(kind);
    const ServiceMoments moments = momentsOf(*dist);

    // 8-core JBSQ(1) (push-to-idle) with near-zero scheduling cost
    // is the closest physical realization of M/G/k in the library;
    // JBSQ(2) would add prefetch-parking wait the formula excludes.
    DesignConfig cfg;
    cfg.design = Design::RpcValet;
    cfg.cores = 8;
    cfg.lineRateGbps = 1600.0;

    WorkloadSpec spec;
    spec.service = dist;
    spec.rateMrps = rho * 8.0 / (moments.mean / 1000.0);
    spec.requests = 400000;
    spec.requestBytes = 64;
    spec.seed = 77;
    const RunResult res = runExperiment(cfg, spec);

    // Wait = latency - service - fixed NIC transit - the JBSQ push
    // flight (30 ns). Derive the mean wait from the mean latency.
    Rack rack(cfg, spec);
    net::Nic &nic = rack.server(0).nic();
    const double push = static_cast<double>(lat::kLlc);
    const double overhead =
        static_cast<double>(nic.deliveryLatency(64) +
                            nic.responseLatency(net::kResponseBytes)) +
        push;
    const double sim_wait = res.latency.mean - moments.mean - overhead;

    // The push flight also holds the core's slot, inflating the
    // effective service time; fold it into the theory's moments.
    ServiceMoments eff = moments;
    const double var = moments.secondMoment - moments.mean * moments.mean;
    eff.mean = moments.mean + push;
    eff.secondMoment = var + eff.mean * eff.mean;
    const double rho_eff = rho * eff.mean / moments.mean;
    const double theory = mgkMeanWait(8, rho_eff, eff);

    // Allen-Cunneen is approximate; demand agreement within 30%
    // plus a small absolute floor for the near-idle points.
    EXPECT_NEAR(sim_wait, theory, std::max(theory * 0.30, 25.0))
        << dist->name() << " rho=" << rho;
}

namespace {

std::string
agreeName(const ::testing::TestParamInfo<AgreeParam> &info)
{
    const char *kind = std::get<0>(info.param) == 0
                           ? "Fixed"
                           : std::get<0>(info.param) == 1 ? "Expo"
                                                          : "Uniform";
    std::string name = kind;
    name += "_rho";
    name +=
        std::to_string(static_cast<int>(std::get<1>(info.param) * 100));
    return name;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(
    Grid, SimTheoryAgree,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(0.5, 0.7, 0.85)),
    agreeName);
