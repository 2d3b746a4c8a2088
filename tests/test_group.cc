/**
 * @file
 * GroupScheduler (ALTOCUMULUS) behavioral tests.
 */

#include <gtest/gtest.h>

#include <array>

#include "core/group.hh"
#include "system/experiment.hh"
#include "system/rack.hh"
#include "trace/trace.hh"
#include "workload/distributions.hh"

using namespace altoc;
using namespace altoc::system;

namespace {

DesignConfig
acConfig(Design d, unsigned cores = 16, unsigned groups = 2)
{
    DesignConfig cfg;
    cfg.design = d;
    cfg.cores = cores;
    cfg.groups = groups;
    return cfg;
}

WorkloadSpec
fixedSpec(double mrps, std::uint64_t requests = 20000)
{
    WorkloadSpec spec;
    spec.service = workload::makeFixed(1 * kUs);
    spec.rateMrps = mrps;
    spec.requests = requests;
    spec.seed = 5;
    return spec;
}

/** Run @p spec on @p rack until every request has completed. */
void
runAll(Rack &rack, const WorkloadSpec &spec)
{
    rack.stopAfterCompletions(spec.requests);
    LoadGenerator gen(rack, spec);
    gen.start();
    rack.run();
}

const core::GroupScheduler &
groupSched(const Server &server)
{
    auto *g = dynamic_cast<const core::GroupScheduler *>(
        &server.scheduler());
    EXPECT_NE(g, nullptr);
    return *g;
}

} // namespace

TEST(GroupScheduler, ManagerCoresNeverExecute)
{
    WorkloadSpec spec = fixedSpec(8.0, 5000);
    spec.warmupFraction = 0.0;
    Rack rack(acConfig(Design::AcRss), spec);
    runAll(rack, spec);
    const Server &server = rack.server(0);
    EXPECT_EQ(server.completed(), 5000u);
    // Cores 0 and 8 are managers in a 2x8 layout.
    EXPECT_EQ(server.cores()[0]->completed(), 0u);
    EXPECT_EQ(server.cores()[8]->completed(), 0u);
    EXPECT_GT(server.cores()[1]->completed(), 0u);
}

TEST(GroupScheduler, WorkerCorePredicate)
{
    Rack rack(acConfig(Design::AcInt), fixedSpec(8.0));
    const auto &sched = rack.server(0).scheduler();
    EXPECT_FALSE(sched.isWorkerCore(0));
    EXPECT_TRUE(sched.isWorkerCore(1));
    EXPECT_TRUE(sched.isWorkerCore(7));
    EXPECT_FALSE(sched.isWorkerCore(8));
    EXPECT_TRUE(sched.isWorkerCore(15));
}

TEST(GroupScheduler, RuntimeTicksAtConfiguredPeriod)
{
    DesignConfig cfg = acConfig(Design::AcInt);
    cfg.params.period = 100;
    WorkloadSpec spec = fixedSpec(4.0, 2000);
    spec.warmupFraction = 0.0;
    Rack rack(cfg, spec);
    runAll(rack, spec);
    const auto &g = groupSched(rack.server(0));
    // ~2000 requests at 4 MRPS span ~500 us -> ~5000 ticks per
    // manager, 2 managers.
    EXPECT_GT(g.runtimeTicks(), 2000u);
}

TEST(GroupScheduler, UpdatesSynchronizeQueueViews)
{
    DesignConfig cfg = acConfig(Design::AcRss);
    WorkloadSpec spec = fixedSpec(10.0, 10000);
    spec.connections = 8; // lumpy
    spec.warmupFraction = 0.0;
    Rack rack(cfg, spec);
    runAll(rack, spec);
    const auto &g = groupSched(rack.server(0));
    EXPECT_GT(g.messagingStats().updatesSent, 100u);
}

TEST(GroupScheduler, MigrationReducesTailUnderImbalance)
{
    // Two groups with skewed steering: migration must cut p99
    // relative to the no-migration configuration.
    WorkloadSpec spec = fixedSpec(11.0, 40000);
    spec.connections = 3; // extreme hash lumpiness across 2 groups

    DesignConfig with_mig = acConfig(Design::AcInt);
    DesignConfig without_mig = acConfig(Design::AcInt);
    without_mig.params.migrationEnabled = false;

    const RunResult on = runExperiment(with_mig, spec);
    const RunResult off = runExperiment(without_mig, spec);
    EXPECT_GT(on.migrated, 0u);
    EXPECT_LT(on.latency.p99, off.latency.p99)
        << "migration should relieve the overloaded group";
}

TEST(GroupScheduler, MigrateAtMostOnce)
{
    DesignConfig cfg = acConfig(Design::AcInt, 24, 3);
    WorkloadSpec spec = fixedSpec(10.0, 30000);
    spec.connections = 4;
    spec.capturePerRequest = true;
    const RunResult res = runExperiment(cfg, spec);
    // Descriptors sent equals requests migrated: a request never
    // contributes to two MIGRATEs.
    EXPECT_LE(res.messaging.descriptorsDelivered +
                  res.messaging.descriptorsReturned,
              res.messaging.descriptorsSent);
    EXPECT_EQ(res.migrated, res.messaging.descriptorsSent);
}

TEST(GroupScheduler, RssVariantManagerBoundsThroughput)
{
    // One group of 1 manager + 3 workers, 35 ns per dispatch: the
    // manager caps throughput near 28 MRPS regardless of workers.
    DesignConfig cfg = acConfig(Design::AcRss, 4, 1);
    WorkloadSpec spec;
    spec.service = workload::makeFixed(50);
    spec.rateMrps = 50.0; // beyond the manager bound
    spec.requests = 50000;
    spec.seed = 6;
    const RunResult res = runExperiment(cfg, spec);
    // Achieved throughput is manager-limited: clearly below offered,
    // at most ~28.5 MRPS.
    EXPECT_LT(res.achievedMrps, 30.0);
    EXPECT_GT(res.achievedMrps, 15.0);
}

TEST(GroupScheduler, IntVariantNotManagerBound)
{
    DesignConfig cfg = acConfig(Design::AcInt, 4, 1);
    WorkloadSpec spec;
    spec.service = workload::makeFixed(50);
    spec.rateMrps = 50.0;
    spec.requests = 50000;
    spec.seed = 6;
    const RunResult res = runExperiment(cfg, spec);
    // 3 workers at 50 ns saturate at 60 MRPS; hardware dispatch must
    // get well past the software manager bound.
    EXPECT_GT(res.achievedMrps, 35.0);
}

TEST(GroupScheduler, MsrInterfaceCostsThroughput)
{
    // Fig. 14: AC_rss-MSR reaches ~91% of AC_rss-ISA's max.
    WorkloadSpec spec;
    spec.service = workload::makeFixed(100);
    spec.rateMrps = 35.0;
    spec.requests = 60000;
    spec.seed = 7;
    spec.connections = 8;

    DesignConfig isa = acConfig(Design::AcRss, 16, 2);
    isa.params.iface = core::Interface::Isa;
    isa.params.period = 200;
    DesignConfig msr = isa;
    msr.params.iface = core::Interface::Msr;

    const RunResult r_isa = runExperiment(isa, spec);
    const RunResult r_msr = runExperiment(msr, spec);
    EXPECT_LE(r_msr.achievedMrps, r_isa.achievedMrps * 1.001);
}

TEST(GroupScheduler, PredictionsAreRecorded)
{
    DesignConfig cfg = acConfig(Design::AcInt);
    cfg.params.loadOverride = 0.95;
    WorkloadSpec spec = fixedSpec(13.0, 40000);
    spec.connections = 3;
    const RunResult res = runExperiment(cfg, spec);
    if (res.violations > 0) {
        // Some predictions should have been made under overload.
        EXPECT_GT(res.predictions.predicted +
                      res.predictions.falsePositives,
                  0u);
    }
}

TEST(GroupScheduler, PatternCountsPopulated)
{
    DesignConfig cfg = acConfig(Design::AcInt);
    WorkloadSpec spec = fixedSpec(12.0, 30000);
    spec.connections = 3;
    spec.warmupFraction = 0.0;
    Rack rack(cfg, spec);
    runAll(rack, spec);
    const auto &g = groupSched(rack.server(0));
    std::uint64_t total = 0;
    for (std::uint64_t c : g.patternCounts())
        total += c;
    EXPECT_EQ(total, g.runtimeTicks());
}

// ---------------------------------------------------------------------
// Pinned runtime counters. PinnedFingerprints (test_golden_results.cc)
// pin completions only, so a runtime shortcut that dropped a period's
// classification or UPDATE would pass them unseen. These values were
// recorded before the runtime began skipping the threshold solve and
// the decision in periods whose local queue cannot fill one MIGRATE;
// that shortcut is exact, so none of them may move.
// ---------------------------------------------------------------------

namespace {

struct RuntimeCounters
{
    std::uint64_t ticks = 0;
    std::array<std::uint64_t, 4> patterns{};
    std::uint64_t migrated = 0;
    std::uint64_t updatesSent = 0;
    std::uint64_t migratesSent = 0;
    std::uint64_t descriptorsSent = 0;
    std::uint64_t bytesOnNoc = 0;
    std::uint64_t fingerprint = 0;
};

/** AC_rss, 16 cores in 4 groups (acrss16_lossy's design). */
DesignConfig
lossyRssConfig()
{
    return acConfig(Design::AcRss, 16, 4);
}

/** acrss16_lossy's traffic at 20,000 requests, seed 10. */
WorkloadSpec
lossyRssSpec()
{
    WorkloadSpec spec;
    spec.service =
        std::make_shared<workload::BimodalDist>(0.005, 500, 50 * kUs);
    spec.rateMrps = 8.0;
    spec.requests = 20000;
    spec.connections = 8;
    spec.sloAbsolute = 300 * kUs;
    spec.seed = 10;
    spec.faults = sim::FaultSpec::parse("drop=0.02,dup=0.01");
    spec.faults.seed = 10;
    spec.timeLimit = 5 * kMs; // twice the nominal 2.5 ms
    return spec;
}

/** The counters come from a rack driven as runExperiment drives it
 *  (its scheduler is reachable afterwards), the fingerprint from
 *  runExperiment itself; the shared counters tie the two runs. */
RuntimeCounters
runtimeCounters(const DesignConfig &cfg, const WorkloadSpec &spec)
{
    Rack rack(cfg, spec);
    rack.stopAfterCompletions(deriveSpec(spec).total);
    LoadGenerator gen(rack, spec);
    gen.start();
    rack.run(spec.timeLimit);
    const core::GroupScheduler &g = groupSched(rack.server(0));
    const core::MessagingStats &m = g.messagingStats();

    RuntimeCounters c;
    c.ticks = g.runtimeTicks();
    c.patterns = g.patternCounts();
    c.migrated = g.requestsMigrated();
    c.updatesSent = m.updatesSent;
    c.migratesSent = m.migratesSent;
    c.descriptorsSent = m.descriptorsSent;
    c.bytesOnNoc = m.bytesOnNoc;

    const RunResult res = runExperiment(cfg, spec);
    EXPECT_EQ(res.migrated, c.migrated);
    EXPECT_EQ(res.messaging.updatesSent, c.updatesSent);
    c.fingerprint = res.fingerprint;
    return c;
}

} // namespace

// AC_rss, 16 cores in 4 groups, the Fig. 10 mix at 8 MRPS over 8
// connections with 2% drops and 1% dups: nine periods in ten find a
// local queue shorter than one batch.
TEST(PinnedRuntimeCounters, AcRssLossyQuietPeriods)
{
    const RuntimeCounters c =
        runtimeCounters(lossyRssConfig(), lossyRssSpec());
    EXPECT_EQ(c.ticks, 51100u);
    EXPECT_EQ(c.patterns, (std::array<std::uint64_t, 4>{51100, 0, 0, 0}));
    EXPECT_EQ(c.migrated, 558u);
    EXPECT_EQ(c.updatesSent, 153300u);
    EXPECT_EQ(c.migratesSent, 284u);
    EXPECT_EQ(c.descriptorsSent, 568u);
    EXPECT_EQ(c.bytesOnNoc, 1238840u);
    EXPECT_EQ(c.fingerprint, 0x6446182c442f7b35u);
}

// AC_int, 64 cores in 8 groups, ac256_fig11's mix and runtime
// parameters (Bulk 16, Concurrency 8, Period 200 ns) at 80 MRPS over
// 64 connections: most periods classify as Pairing.
TEST(PinnedRuntimeCounters, AcIntPairingPeriods)
{
    DesignConfig cfg = acConfig(Design::AcInt, 64, 8);
    cfg.lineRateGbps = 1600.0;
    cfg.params.period = 200;
    cfg.params.bulk = 16;
    cfg.params.concurrency = 8;
    WorkloadSpec spec;
    spec.service =
        std::make_shared<workload::BimodalDist>(0.005, 500, 26 * kUs);
    spec.rateMrps = 80.0;
    spec.requests = 20000;
    spec.requestBytes = 64;
    spec.connections = 64;
    spec.seed = 10;

    const RuntimeCounters c = runtimeCounters(cfg, spec);
    EXPECT_EQ(c.ticks, 11096u);
    EXPECT_EQ(c.patterns,
              (std::array<std::uint64_t, 4>{2825, 0, 0, 8271}));
    EXPECT_EQ(c.migrated, 4019u);
    EXPECT_EQ(c.updatesSent, 77672u);
    EXPECT_EQ(c.migratesSent, 2041u);
    EXPECT_EQ(c.descriptorsSent, 4019u);
    EXPECT_EQ(c.bytesOnNoc, 710298u);
    EXPECT_EQ(c.fingerprint, 0xb73180806088c8a9u);
}

#if ALTOC_TRACE_ENABLED

// A period too short to send still records its threshold while a
// tracer is attached, so a trace holds one ThresholdRecompute per
// runtime period, quiet or not.
TEST(GroupTrace, OneThresholdRecordPerPeriod)
{
    WorkloadSpec spec = lossyRssSpec();
    spec.tracing.enabled = true;
    spec.tracing.ringSlots = std::size_t{1} << 15; // nothing evicted
    Rack rack(lossyRssConfig(), spec);
    rack.stopAfterCompletions(deriveSpec(spec).total);
    LoadGenerator gen(rack, spec);
    gen.start();
    rack.run(spec.timeLimit);

    const core::GroupScheduler &g = groupSched(rack.server(0));
    const trace::Tracer *tracer = rack.server(0).tracer();
    ASSERT_NE(tracer, nullptr);
    ASSERT_EQ(tracer->totalDropped(), 0u);
    std::uint64_t thresholds = 0;
    for (unsigned ring = 0; ring < tracer->numRings(); ++ring) {
        for (const trace::TraceRecord &rec : tracer->snapshot(ring)) {
            if (static_cast<trace::TraceKind>(rec.kind) ==
                trace::TraceKind::ThresholdRecompute) {
                ++thresholds;
            }
        }
    }
    EXPECT_GT(g.periodsBelowBatch(), g.runtimeTicks() / 2);
    EXPECT_EQ(thresholds, g.runtimeTicks());
}

#else // !ALTOC_TRACE_ENABLED

TEST(GroupTrace, DISABLED_TraceHooksCompiledOut) {}

#endif // ALTOC_TRACE_ENABLED
