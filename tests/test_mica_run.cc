/**
 * @file
 * End-to-end MICA experiment runner tests.
 */

#include <gtest/gtest.h>

#include "system/mica_run.hh"

using namespace altoc;
using namespace altoc::system;

namespace {

MicaRunConfig
smallConfig(Design design)
{
    MicaRunConfig cfg;
    cfg.design.design = design;
    cfg.design.cores = 32;
    cfg.design.groups = 2;
    cfg.design.lineRateGbps = 1600.0;
    cfg.workload.rateMrps = 30.0;
    cfg.workload.requests = 30000;
    cfg.store.keysPerPartition = 2000;
    cfg.store.buckets = 1 << 12;
    // Large enough that the circular log does not wrap during the
    // run; the log is lossy by design (see CircularLog), so a
    // wrapped log would make GET misses legitimate.
    cfg.store.logBytes = 64u << 20;
    cfg.workload.sloAbsolute = 10 * kUs;
    cfg.workload.seed = 4;
    return cfg;
}

} // namespace

TEST(MicaRun, CompletesAllRequests)
{
    const MicaRunResult res = runMicaExperiment(smallConfig(Design::AcInt));
    EXPECT_EQ(res.run.completed, 30000u);
    // Query mix: ~0.5% scans, rest split between GETs and SETs.
    EXPECT_GT(res.scans, 50u);
    EXPECT_LT(res.scans, 400u);
    EXPECT_NEAR(static_cast<double>(res.gets),
                static_cast<double>(res.sets), 30000 * 0.03);
}

// Values recorded before the MICA runner moved onto runExperiment,
// which now also reports the run's fingerprint: the move changes how
// the run is driven, not what it computes.
TEST(MicaRun, PinnedAcIntRun)
{
    const MicaRunResult res = runMicaExperiment(smallConfig(Design::AcInt));
    EXPECT_EQ(res.run.completed, 30000u);
    EXPECT_EQ(res.run.latency.p50, 214u);
    EXPECT_EQ(res.run.latency.p99, 236u);
    EXPECT_EQ(res.run.latency.p999, 36967u);
    EXPECT_EQ(res.run.violations, 142u);
    EXPECT_EQ(res.run.migrated, 0u);
    EXPECT_EQ(res.gets, 14830u);
    EXPECT_EQ(res.sets, 15020u);
    EXPECT_EQ(res.scans, 150u);
    EXPECT_EQ(res.misses, 0u);
    EXPECT_EQ(res.remoteExecutions, 14999u);
    EXPECT_EQ(res.run.fingerprint, 0x593052c188446b4du);
}

TEST(MicaRun, NoMissesOnPopulatedStore)
{
    const MicaRunResult res = runMicaExperiment(smallConfig(Design::Nebula));
    EXPECT_EQ(res.misses, 0u);
}

TEST(MicaRun, RemoteExecutionsTracked)
{
    // Nebula schedules without partition affinity, so roughly half of
    // the requests in a 2-partition store execute remotely.
    const MicaRunResult res = runMicaExperiment(smallConfig(Design::Nebula));
    EXPECT_GT(res.remoteExecutions, res.run.completed / 4);
}

TEST(MicaRun, ServiceTimesComeFromExecution)
{
    const MicaRunResult res = runMicaExperiment(smallConfig(Design::AcInt));
    // GET/SET dominate: median latency must sit at nanosecond scale
    // (well below the 50 us SCAN nominal the generator pre-stamps),
    // proving the resolver replaced nominal demands with executed
    // operation times.
    EXPECT_LT(res.run.latency.p50, 2 * kUs);
    EXPECT_GT(res.run.latency.p50, 50u);
}

TEST(MicaRun, DeterministicAcrossRuns)
{
    const MicaRunResult a = runMicaExperiment(smallConfig(Design::AcRss));
    const MicaRunResult b = runMicaExperiment(smallConfig(Design::AcRss));
    EXPECT_EQ(a.run.latency.p99, b.run.latency.p99);
    EXPECT_EQ(a.run.migrated, b.run.migrated);
    EXPECT_EQ(a.gets, b.gets);
    EXPECT_EQ(a.remoteExecutions, b.remoteExecutions);
}

TEST(MicaRun, CapturePerRequestJoinsWithIds)
{
    MicaRunConfig cfg = smallConfig(Design::AcInt);
    cfg.workload.capturePerRequest = true;
    const MicaRunResult res = runMicaExperiment(cfg);
    ASSERT_EQ(res.run.perRequest.size(), cfg.workload.requests);
    std::vector<bool> seen(cfg.workload.requests, false);
    for (const auto &o : res.run.perRequest) {
        ASSERT_LT(o.id, cfg.workload.requests);
        EXPECT_FALSE(seen[o.id]);
        seen[o.id] = true;
    }
}

TEST(MicaRun, CrewReadsSkipRemotePenalty)
{
    // Under CREW only SETs pay the owner access, so remote
    // executions drop to roughly the SET share of EREW's count.
    MicaRunConfig erew = smallConfig(Design::Nebula);
    MicaRunConfig crew = smallConfig(Design::Nebula);
    crew.mode = mica::ConcurrencyMode::Crew;
    const MicaRunResult r_erew = runMicaExperiment(erew);
    const MicaRunResult r_crew = runMicaExperiment(crew);
    EXPECT_LT(r_crew.remoteExecutions, r_erew.remoteExecutions);
    EXPECT_GT(r_crew.remoteExecutions, 0u);
    // Roughly half of the GET/SET mix is SETs.
    EXPECT_NEAR(static_cast<double>(r_crew.remoteExecutions),
                static_cast<double>(r_erew.remoteExecutions) / 2.0,
                static_cast<double>(r_erew.remoteExecutions) * 0.15);
}

TEST(MicaRun, ZipfSkewConcentratesPartitions)
{
    // Hot keys pile onto their EREW owner groups. At 4 groups and
    // 60 MRPS those groups' queues pass the migration threshold, so
    // the runtime migrates and cuts the tail the same run has with
    // migration off (618 vs 14,678 ns at seed 4). At smallConfig's
    // 30 MRPS nothing migrates at any skew, and skew does not raise
    // migration in general: at 2 groups and 90 MRPS skew 1.2
    // migrates 180 requests, the uniform run 796.
    MicaRunConfig skewed = smallConfig(Design::AcInt);
    skewed.design.groups = 4;
    skewed.workload.rateMrps = 60.0;
    skewed.keySkew = 1.2;
    MicaRunConfig stay = skewed;
    stay.design.params.migrationEnabled = false;
    const MicaRunResult z = runMicaExperiment(skewed);
    const MicaRunResult off = runMicaExperiment(stay);
    EXPECT_EQ(z.run.completed, off.run.completed);
    EXPECT_GT(z.run.migrated, 0u);
    EXPECT_EQ(off.run.migrated, 0u);
    EXPECT_LT(4 * z.run.latency.p99, off.run.latency.p99);
}

TEST(MicaRun, PartitionsMatchGroups)
{
    MicaRunConfig cfg = smallConfig(Design::AcInt);
    cfg.design.groups = 4;
    cfg.design.cores = 32;
    const MicaRunResult res = runMicaExperiment(cfg);
    EXPECT_EQ(res.run.completed, cfg.workload.requests);
}
