/**
 * @file
 * Chaos suite: whole-system runs under a combined fault schedule
 * (message loss / duplication / delay, receive exhaustion, straggler
 * and frozen cores, manager stalls). The hardened migration protocol
 * must never lose or duplicate a request -- every injected run still
 * completes every request, and in audit builds the Server-installed
 * auditor verifies descriptor conservation and migrate-at-most-once
 * while the faults fire.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/group.hh"
#include "sim/fault_spec.hh"
#include "system/rack.hh"
#include "trace/reader.hh"
#include "trace/trace.hh"
#include "workload/distributions.hh"

using namespace altoc;
using namespace altoc::system;
using sim::FaultSpec;

namespace {

/** Everything at once, at survivable-but-noticeable intensity. */
constexpr const char *kChaosSpec =
    "drop=0.05,dup=0.03,delay=0.1:200,exhaust=0.05:2000,"
    "straggle=0.02:3,freeze=0.01:500,stallp=0.005:2000";

/** CI sweeps fault seeds via ALTOC_CHAOS_SEED (default 1). */
std::uint64_t
chaosSeedBase()
{
    const char *env = std::getenv("ALTOC_CHAOS_SEED");
    if (env == nullptr || env[0] == '\0')
        return 1;
    return std::strtoull(env, nullptr, 10);
}

WorkloadSpec
chaosWorkload(std::uint64_t fault_seed)
{
    WorkloadSpec spec;
    spec.service = workload::makeFixed(1 * kUs);
    spec.rateMrps = 6.0;
    spec.requests = 15000;
    spec.connections = 8; // lumpy steering -> real migration traffic
    spec.seed = 42;
    spec.faults = FaultSpec::parse(kChaosSpec);
    spec.faults.seed = fault_seed;
    spec.timeLimit = 500 * kMs;
    return spec;
}

DesignConfig
chaosConfig(Design d)
{
    DesignConfig cfg;
    cfg.design = d;
    cfg.cores = 16;
    cfg.groups = 2;
    return cfg;
}

class ChaosDesigns : public ::testing::TestWithParam<Design>
{
};

} // namespace

/**
 * Conservation under chaos: across three fault seeds, no design ever
 * loses or duplicates a request. (In audit builds the Server panics
 * on any conservation / migrate-at-most-once violation, so passing
 * here also certifies the auditor's fault-aware invariants.)
 */
TEST_P(ChaosDesigns, CompletesEveryRequestUnderChaos)
{
    const std::uint64_t base = chaosSeedBase();
    for (std::uint64_t s = base; s < base + 3; ++s) {
        const RunResult res =
            runExperiment(chaosConfig(GetParam()), chaosWorkload(s));
        EXPECT_EQ(res.completed, 15000u)
            << res.design << " fault seed " << s;
        EXPECT_GT(res.faultsInjected, 0u)
            << res.design << " fault seed " << s;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Designs, ChaosDesigns,
    ::testing::Values(Design::Rss, Design::ZygOs, Design::AcInt,
                      Design::AcRss),
    [](const ::testing::TestParamInfo<Design> &info) {
        std::string name = designName(info.param);
        for (char &c : name) {
            if (c == '_' || c == '-')
                c = 'x';
        }
        return name;
    });

/**
 * The AC designs keep exercising the hardened protocol under chaos:
 * migrations still happen, and at this drop rate some of them retry
 * or time out without ever duplicating work.
 */
TEST(Chaos, HardenedProtocolEngagesUnderChaos)
{
    const RunResult res = runExperiment(chaosConfig(Design::AcRss),
                                        chaosWorkload(chaosSeedBase()));
    EXPECT_EQ(res.completed, 15000u);
    EXPECT_GT(res.messaging.migratesSent, 0u);
    // Dropped MIGRATEs / ACKs / NACKs surface as timeouts.
    EXPECT_GT(res.migratesTimedOut, 0u);
    EXPECT_EQ(res.messaging.migratesTimedOut, res.migratesTimedOut);
}

/**
 * Chaos runs stay bit-reproducible: the fault schedule is a pure
 * function of (workload seed, fault spec), and fault events are mixed
 * into the completion fingerprint.
 */
TEST(Chaos, ChaosRunsAreBitReproducible)
{
    const DesignConfig cfg = chaosConfig(Design::AcInt);
    const WorkloadSpec spec = chaosWorkload(chaosSeedBase());
    const RunResult a = runExperiment(cfg, spec);
    const RunResult b = runExperiment(cfg, spec);
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_EQ(a.fingerprintEvents, b.fingerprintEvents);
    EXPECT_EQ(a.faultsInjected, b.faultsInjected);
    EXPECT_EQ(a.migratesRetried, b.migratesRetried);
    EXPECT_EQ(a.peersQuarantined, b.peersQuarantined);
    EXPECT_EQ(a.latency.p99, b.latency.p99);
}

/**
 * The chaos suite's headline scenario (ISSUE acceptance): one manager
 * suffers a transient runtime stall mid-run. Peers observe timeouts /
 * NACKs, quarantine the stalled group, route around it, and -- once
 * probation expires after the stall ends -- resume migrating to it.
 * Recovery means every request still completes.
 */
TEST(Chaos, RecoversFromTransientManagerStall)
{
    DesignConfig cfg;
    cfg.design = Design::AcRss;
    cfg.cores = 16;
    cfg.groups = 4;
    // Quarantine quickly and probe again soon after: the run is only
    // a few milliseconds long.
    cfg.params.hardening.quarantineAfter = 2;
    cfg.params.hardening.probation = 50 * kUs;

    WorkloadSpec spec;
    spec.service = workload::makeFixed(1 * kUs);
    spec.rateMrps = 8.0;
    spec.requests = 20000;
    spec.connections = 8;
    spec.seed = 42;
    // Manager 1 freezes for 1 ms starting at 200 us -- roughly the
    // middle 40% of the ~2.5 ms run.
    spec.faults = FaultSpec::parse("stall=1@200000+1000000");
    spec.timeLimit = 500 * kMs;

    const RunResult res = runExperiment(cfg, spec);
    // Full recovery: nothing lost to the outage.
    EXPECT_EQ(res.completed, 20000u);
    EXPECT_EQ(res.faultsInjected, 1u); // exactly the scripted stall
    // The outage was noticed: MIGRATEs toward the stalled manager
    // NACKed or timed out until peers quarantined it.
    EXPECT_GT(res.migratesTimedOut + res.messaging.migratesNacked, 0u);
    EXPECT_GE(res.peersQuarantined, 1u);
    // Service kept flowing through the outage.
    EXPECT_GT(res.migrated, 0u);
}

/**
 * The quarantine is transient too: after the stall ends and
 * probation expires, a half-open probe readmits the peer. At the end
 * of the run no (observer, peer) pair is still masked, and migration
 * traffic kept flowing after the quarantine opened.
 */
TEST(Chaos, QuarantinedPeerRejoinsAfterProbation)
{
    DesignConfig cfg;
    cfg.design = Design::AcRss;
    cfg.cores = 16;
    cfg.groups = 4;
    cfg.params.hardening.quarantineAfter = 2;
    cfg.params.hardening.probation = 50 * kUs;

    WorkloadSpec spec;
    spec.service = workload::makeFixed(1 * kUs);
    spec.rateMrps = 8.0;
    spec.requests = 20000;
    spec.connections = 8;
    spec.seed = 42;
    spec.faults = FaultSpec::parse("stall=1@200000+1000000");
    spec.timeLimit = 500 * kMs;
    spec.warmupFraction = 0.0;

    Rack rack(cfg, spec);
    LoadGenerator gen(rack, spec);
    gen.start();
    rack.stopAfterCompletions(spec.requests);
    rack.run(spec.timeLimit);

    const auto *gs = dynamic_cast<const core::GroupScheduler *>(
        &rack.server(0).scheduler());
    ASSERT_NE(gs, nullptr);
    EXPECT_EQ(rack.server(0).completed(), 20000u);
    // The outage opened at least one quarantine entry...
    EXPECT_GE(gs->peersQuarantined(), 1u);
    // ...and none is still masking a peer by the end of the run: the
    // stall ended at 1.2 ms, probation expired, the probe succeeded.
    EXPECT_EQ(gs->quarantinedNow(), 0u);
    // Migrations kept flowing across the episode.
    EXPECT_GT(gs->messagingStats().migratesAcked, 0u);
    EXPECT_GT(gs->requestsMigrated(), 0u);
}

/**
 * Same scenario, driven through a Rack so the auditor's verdict is
 * inspectable: in audit builds, descriptor conservation and
 * migrate-at-most-once must hold across the stall, the timeouts and
 * the retries. Elsewhere the hooks compile away.
 */
TEST(Chaos, AuditorHoldsUnderStallAndRetry)
{
#if ALTOC_AUDIT_ENABLED
    DesignConfig cfg;
    cfg.design = Design::AcRss;
    cfg.cores = 16;
    cfg.groups = 4;
    cfg.params.hardening.quarantineAfter = 2;
    cfg.params.hardening.probation = 50 * kUs;

    WorkloadSpec spec;
    spec.service = workload::makeFixed(1 * kUs);
    spec.rateMrps = 8.0;
    spec.requests = 10000;
    spec.connections = 8;
    spec.seed = 42;
    spec.faults =
        FaultSpec::parse("drop=0.05,dup=0.03,stall=1@200000+500000");
    spec.timeLimit = 500 * kMs;
    spec.warmupFraction = 0.0;

    Rack rack(cfg, spec);
    LoadGenerator gen(rack, spec);
    gen.start();
    rack.stopAfterCompletions(spec.requests);
    rack.run(spec.timeLimit);

    const core::InvariantAuditor *aud = rack.server(0).auditor();
    ASSERT_NE(aud, nullptr);
    EXPECT_TRUE(aud->ok());
    EXPECT_EQ(aud->counters().injected, spec.requests);
#else
    GTEST_SKIP() << "build has ALTOC_AUDIT off; run the Debug config";
#endif
}

// ---------------------------------------------------------------------
// Fail-stop crashes: cores and managers die mid-run and never come
// back. Orphaned descriptors are rescued to live peers, dead
// managers' groups fail over to a successor, and arrivals the shrunk
// machine cannot absorb are shed at admission. Conservation becomes
//     completed + shed == issued
// under any kill spec (in audit builds the auditor enforces the same
// identity at drain and panics on any leak).
// ---------------------------------------------------------------------

namespace {

/** One scripted worker death plus a windowed crash storm. */
constexpr const char *kCrashSpec = "kill=3@200000,killp=0.05:1000000";

WorkloadSpec
crashWorkload(std::uint64_t fault_seed)
{
    WorkloadSpec spec = chaosWorkload(fault_seed);
    spec.faults = FaultSpec::parse(kCrashSpec);
    spec.faults.seed = fault_seed;
    // A backstop: sheds count toward the stop, so the run ends once
    // every request completed or was shed, well within this bound.
    spec.timeLimit = 50 * kMs;
    return spec;
}

class CrashDesigns : public ::testing::TestWithParam<Design>
{
};

} // namespace

/**
 * Every issued descriptor is accounted for under kills, across three
 * fault seeds and four designs: completed + shed == issued, with the
 * scripted death guaranteeing at least one kill per run.
 */
TEST_P(CrashDesigns, EveryDescriptorAccountedUnderKills)
{
    const std::uint64_t base = chaosSeedBase();
    for (std::uint64_t s = base; s < base + 3; ++s) {
        const RunResult res =
            runExperiment(chaosConfig(GetParam()), crashWorkload(s));
        EXPECT_EQ(res.completed + res.requestsShed, 15000u)
            << res.design << " fault seed " << s;
        EXPECT_GE(res.coresKilled, 1u)
            << res.design << " fault seed " << s;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Designs, CrashDesigns,
    ::testing::Values(Design::Rss, Design::ZygOs, Design::AcInt,
                      Design::AcRss),
    [](const ::testing::TestParamInfo<Design> &info) {
        std::string name = designName(info.param);
        for (char &c : name) {
            if (c == '_' || c == '-')
                c = 'x';
        }
        return name;
    });

/**
 * Crash runs stay bit-reproducible: kill decisions are pure hashes of
 * (seed, core, window), scripted deaths are simulator events, and
 * every kill is mixed into the completion fingerprint.
 */
TEST(Crash, CrashRunsAreBitReproducible)
{
    for (Design d : {Design::ZygOs, Design::AcInt}) {
        const DesignConfig cfg = chaosConfig(d);
        const WorkloadSpec spec = crashWorkload(chaosSeedBase());
        const RunResult a = runExperiment(cfg, spec);
        const RunResult b = runExperiment(cfg, spec);
        EXPECT_EQ(a.fingerprint, b.fingerprint) << designName(d);
        EXPECT_EQ(a.fingerprintEvents, b.fingerprintEvents)
            << designName(d);
        EXPECT_EQ(a.coresKilled, b.coresKilled) << designName(d);
        EXPECT_EQ(a.requestsRescued, b.requestsRescued)
            << designName(d);
        EXPECT_EQ(a.requestsShed, b.requestsShed) << designName(d);
        EXPECT_EQ(a.managersFailedOver, b.managersFailedOver)
            << designName(d);
        EXPECT_GE(a.coresKilled, 1u) << designName(d);
    }
}

/**
 * A dead core's backlog moves to a live peer: killing a worker whose
 * queue holds requests must strand nothing. The flat d-FCFS design
 * makes the rescue observable -- core 3's queue is rescued to core 4
 * and the shrunk machine sheds what it can no longer absorb.
 */
TEST(Crash, DeadCoreBacklogIsRescuedNotLost)
{
    DesignConfig cfg;
    cfg.design = Design::Rss;
    cfg.cores = 8;

    WorkloadSpec spec;
    spec.service = workload::makeFixed(1 * kUs);
    // Overloaded on purpose (8 cores x 1 us serve 8 MRPS): queues
    // grow until the kill, so core 3 is guaranteed a backlog to
    // rescue when it dies.
    spec.rateMrps = 10.0;
    spec.requests = 10000;
    spec.connections = 64;
    spec.seed = 7;
    spec.faults = FaultSpec::parse("kill=3@800000");
    spec.timeLimit = 50 * kMs;

    const RunResult res = runExperiment(cfg, spec);
    EXPECT_EQ(res.coresKilled, 1u);
    EXPECT_EQ(res.completed + res.requestsShed, 10000u);
    EXPECT_GT(res.requestsRescued, 0u);
}

/**
 * Manager failover: killing an AC manager fails its whole group over
 * to a deterministic successor, which adopts the dead group's queue
 * and keeps serving. Nothing is lost and the machine keeps meeting
 * its offered load on the surviving groups.
 */
TEST(Crash, ManagerDeathFailsOverToSuccessor)
{
    for (Design d : {Design::AcInt, Design::AcRss}) {
        DesignConfig cfg;
        cfg.design = d;
        cfg.cores = 16;
        cfg.groups = 4;
        cfg.params.hardening.quarantineAfter = 2;
        cfg.params.hardening.probation = 100 * kUs;

        WorkloadSpec spec;
        spec.service = workload::makeFixed(1 * kUs);
        spec.rateMrps = 8.0;
        spec.requests = 20000;
        spec.connections = 8;
        spec.seed = 42;
        spec.faults = FaultSpec::parse("killm=1@200000");
        spec.timeLimit = 50 * kMs;

        const RunResult res = runExperiment(cfg, spec);
        EXPECT_EQ(res.coresKilled, 1u) << designName(d);
        EXPECT_EQ(res.managersFailedOver, 1u) << designName(d);
        EXPECT_EQ(res.completed + res.requestsShed, 20000u)
            << designName(d);
        // Three groups absorb the work the dead group would have
        // taken; the run keeps completing at the offered rate.
        EXPECT_GT(res.achievedMrps, 6.0) << designName(d);
    }
}

// ---------------------------------------------------------------------
// Trace semantics under chaos: the binary event trace of a seeded
// chaos run must decode into a causally ordered timeline whose
// event counts agree with the scheduler's own counters.
// ---------------------------------------------------------------------

#if ALTOC_TRACE_ENABLED

namespace {

/** Count timeline records of one kind. */
std::uint64_t
countKind(const std::vector<trace::TraceRecord> &timeline,
          trace::TraceKind kind)
{
    std::uint64_t n = 0;
    for (const trace::TraceRecord &rec : timeline) {
        if (static_cast<trace::TraceKind>(rec.kind) == kind)
            ++n;
    }
    return n;
}

/** First timeline position of @p kind, or timeline.size() if absent. */
std::size_t
firstOf(const std::vector<trace::TraceRecord> &timeline,
        trace::TraceKind kind)
{
    for (std::size_t i = 0; i < timeline.size(); ++i) {
        if (static_cast<trace::TraceKind>(timeline[i].kind) == kind)
            return i;
    }
    return timeline.size();
}

/** Chaos workload with in-memory tracing attached. Rings are sized
 *  so nothing is evicted (ThresholdRecompute alone logs ~12.5k
 *  records per manager over the ~2.5 ms run). */
WorkloadSpec
tracedChaosWorkload(std::uint64_t fault_seed)
{
    WorkloadSpec spec = chaosWorkload(fault_seed);
    spec.tracing.enabled = true;
    spec.tracing.ringSlots = std::size_t{1} << 15;
    return spec;
}

} // namespace

/**
 * A traced chaos run reconstructs a causally ordered timeline:
 * non-decreasing ticks, MIGRATE resolutions never ahead of their
 * sends, quarantine probes/rejoins only after an enter -- verified by
 * the same validator `altoc-trace --check` runs.
 */
TEST(ChaosTrace, TimelineIsCausallyOrdered)
{
    const std::string path =
        ::testing::TempDir() + "altoc_chaos_causal.trace";
    WorkloadSpec spec = tracedChaosWorkload(chaosSeedBase());
    spec.tracing.file = path;
    const RunResult res =
        runExperiment(chaosConfig(Design::AcRss), spec);
    EXPECT_EQ(res.completed, 15000u);
    ASSERT_GT(res.traceRecords, 0u);
    // Nothing evicted, so causal gaps cannot be ring artifacts.
    ASSERT_EQ(res.traceDropped, 0u);

    trace::TraceFileImage image;
    ASSERT_EQ(trace::readTraceFile(path, image),
              trace::TraceReadStatus::Ok);
    EXPECT_EQ(image.totalWritten(), res.traceRecords);

    const std::vector<trace::TraceRecord> timeline =
        trace::mergeTimeline(image);
    EXPECT_EQ(timeline.size(), res.traceRecords);

    std::vector<std::string> errors;
    EXPECT_TRUE(trace::validateTimeline(timeline, errors))
        << errors.front();

    // The protocol engaged under chaos, and the first send precedes
    // the first resolution of any kind.
    const std::size_t send =
        firstOf(timeline, trace::TraceKind::MigrateSend);
    ASSERT_LT(send, timeline.size());
    EXPECT_LT(send, firstOf(timeline, trace::TraceKind::MigrateAck));
    EXPECT_LT(send,
              firstOf(timeline, trace::TraceKind::MigrateTimeout));
    std::remove(path.c_str());
}

/**
 * Trace counts are not merely plausible, they equal the scheduler's
 * counters: every retry, timeout and quarantine entry the RunResult
 * reports has exactly one record in the trace.
 */
TEST(ChaosTrace, EventCountsMatchSchedulerCounters)
{
    const std::string path =
        ::testing::TempDir() + "altoc_chaos_counts.trace";
    WorkloadSpec spec = tracedChaosWorkload(chaosSeedBase());
    spec.tracing.file = path;
    // At the baseline chaos intensity, some fault seeds never line a
    // drop up into a lost ACK, leaving the retry equality below
    // vacuous (0 == 0); a lossier VN makes a timed-out batch -- and
    // so a retry -- certain at any seed.
    spec.faults.dropProb = 0.25;
    // Four groups: a timed-out batch has an alternate destination
    // (with two, source and failed peer exhaust the group set and
    // every timeout reclaims locally -- no retries would ever fire).
    DesignConfig cfg = chaosConfig(Design::AcRss);
    cfg.groups = 4;
    const RunResult res = runExperiment(cfg, spec);
    ASSERT_EQ(res.traceDropped, 0u);

    trace::TraceFileImage image;
    ASSERT_EQ(trace::readTraceFile(path, image),
              trace::TraceReadStatus::Ok);
    const std::vector<trace::TraceRecord> timeline =
        trace::mergeTimeline(image);

    EXPECT_EQ(countKind(timeline, trace::TraceKind::MigrateRetry),
              res.migratesRetried);
    EXPECT_EQ(countKind(timeline, trace::TraceKind::MigrateTimeout),
              res.migratesTimedOut);
    EXPECT_EQ(countKind(timeline, trace::TraceKind::QuarantineEnter),
              res.peersQuarantined);
    EXPECT_EQ(countKind(timeline, trace::TraceKind::MigrateSend),
              res.messaging.migratesSent);
    EXPECT_EQ(countKind(timeline, trace::TraceKind::MigrateAck),
              res.messaging.migratesAcked);
    // NACKs are counted where they are generated (the full
    // destination), but recorded where they resolve (back at the
    // source) -- a NACK the VN drops is counted yet never recorded,
    // its batch reclaimed by the timeout instead.
    EXPECT_LE(countKind(timeline, trace::TraceKind::MigrateNack),
              res.messaging.migratesNacked);
    EXPECT_EQ(countKind(timeline, trace::TraceKind::FaultInject),
              res.faultsInjected);
    // This chaos spec drops messages, so the hardened path retried.
    EXPECT_GT(res.migratesRetried, 0u);
    std::remove(path.c_str());
}

/**
 * The stall-recovery scenario leaves its full arc in the trace:
 * the scripted stall, the quarantine it provokes, the half-open
 * probe after probation and the rejoin -- in that causal order.
 */
TEST(ChaosTrace, StallQuarantineRejoinArcIsRecorded)
{
    DesignConfig cfg;
    cfg.design = Design::AcRss;
    cfg.cores = 16;
    cfg.groups = 4;
    cfg.params.hardening.quarantineAfter = 2;
    cfg.params.hardening.probation = 50 * kUs;

    WorkloadSpec spec;
    spec.service = workload::makeFixed(1 * kUs);
    spec.rateMrps = 8.0;
    spec.requests = 20000;
    spec.connections = 8;
    spec.seed = 42;
    spec.faults = FaultSpec::parse("stall=1@200000+1000000");
    spec.timeLimit = 500 * kMs;
    spec.tracing.enabled = true;
    spec.tracing.ringSlots = std::size_t{1} << 15;
    const std::string path =
        ::testing::TempDir() + "altoc_chaos_stall.trace";
    spec.tracing.file = path;

    const RunResult res = runExperiment(cfg, spec);
    EXPECT_EQ(res.completed, 20000u);
    ASSERT_EQ(res.traceDropped, 0u);

    trace::TraceFileImage image;
    ASSERT_EQ(trace::readTraceFile(path, image),
              trace::TraceReadStatus::Ok);
    const std::vector<trace::TraceRecord> timeline =
        trace::mergeTimeline(image);
    std::vector<std::string> errors;
    EXPECT_TRUE(trace::validateTimeline(timeline, errors))
        << errors.front();

    // The scripted fault is the first domino: it appears exactly
    // once, before any quarantine entry.
    EXPECT_EQ(countKind(timeline, trace::TraceKind::FaultInject), 1u);
    const std::size_t fault =
        firstOf(timeline, trace::TraceKind::FaultInject);
    const std::size_t enter =
        firstOf(timeline, trace::TraceKind::QuarantineEnter);
    const std::size_t probe =
        firstOf(timeline, trace::TraceKind::QuarantineProbe);
    const std::size_t rejoin =
        firstOf(timeline, trace::TraceKind::QuarantineRejoin);
    ASSERT_LT(enter, timeline.size());
    ASSERT_LT(probe, timeline.size());
    ASSERT_LT(rejoin, timeline.size());
    EXPECT_LT(fault, enter);
    EXPECT_LT(enter, probe);
    EXPECT_LT(probe, rejoin);
    // The stalled manager also logged its own stall window.
    EXPECT_GE(countKind(timeline, trace::TraceKind::ManagerStall), 1u);
    // Thresholds kept being recomputed throughout.
    EXPECT_GT(countKind(timeline,
                        trace::TraceKind::ThresholdRecompute), 0u);
    std::remove(path.c_str());
}

/**
 * A crash timeline decodes, validates and reconciles: CoreDead /
 * ManagerFailover / DescriptorRescue records agree with the
 * RunResult's counters, and the causal validator (the same one
 * `altoc-trace --check` runs) accepts the timeline -- including its
 * dead-manager rule: once a manager ring logs CoreDead, no later
 * protocol or runtime event may appear on that ring.
 */
TEST(CrashTrace, CrashTimelineValidatesAndReconciles)
{
    DesignConfig cfg;
    cfg.design = Design::AcRss;
    cfg.cores = 16;
    cfg.groups = 4;
    cfg.params.hardening.quarantineAfter = 2;
    cfg.params.hardening.probation = 100 * kUs;

    WorkloadSpec spec;
    spec.service = workload::makeFixed(1 * kUs);
    spec.rateMrps = 8.0;
    spec.requests = 20000;
    spec.connections = 8;
    spec.seed = 42;
    // A worker death then a manager death: both rescue paths and the
    // failover land in one timeline.
    spec.faults = FaultSpec::parse("kill=2@150000,killm=1@200000");
    // Keep the limit short and the rings big enough that the periodic
    // ThresholdRecompute stream (~5 records/us per live manager)
    // evicts nothing.
    spec.timeLimit = 5 * kMs;
    spec.tracing.enabled = true;
    spec.tracing.ringSlots = std::size_t{1} << 16;
    const std::string path =
        ::testing::TempDir() + "altoc_crash_timeline.trace";
    spec.tracing.file = path;

    const RunResult res = runExperiment(cfg, spec);
    EXPECT_EQ(res.completed + res.requestsShed, 20000u);
    EXPECT_EQ(res.coresKilled, 2u);
    EXPECT_EQ(res.managersFailedOver, 1u);
    ASSERT_EQ(res.traceDropped, 0u);

    trace::TraceFileImage image;
    ASSERT_EQ(trace::readTraceFile(path, image),
              trace::TraceReadStatus::Ok);
    const std::vector<trace::TraceRecord> timeline =
        trace::mergeTimeline(image);
    std::vector<std::string> errors;
    EXPECT_TRUE(trace::validateTimeline(timeline, errors))
        << errors.front();

    // Every transition has exactly one record...
    EXPECT_EQ(countKind(timeline, trace::TraceKind::CoreDead),
              res.coresKilled);
    EXPECT_EQ(countKind(timeline, trace::TraceKind::ManagerFailover),
              res.managersFailedOver);
    EXPECT_EQ(countKind(timeline, trace::TraceKind::AdmissionShed),
              res.requestsShed);
    // ...and the rescue records' packed counts sum to exactly the
    // descriptors rescued (failover logs its adopted batch in the
    // ManagerFailover record's count field).
    std::uint64_t rescued_in_trace = 0;
    for (const trace::TraceRecord &rec : timeline) {
        const auto kind = static_cast<trace::TraceKind>(rec.kind);
        if (kind == trace::TraceKind::DescriptorRescue ||
            kind == trace::TraceKind::ManagerFailover)
            rescued_in_trace += trace::traceCount(rec.arg);
    }
    EXPECT_EQ(rescued_in_trace, res.requestsRescued);

    // The worker death precedes the manager death, and the failover
    // never precedes the death that caused it.
    const std::size_t dead =
        firstOf(timeline, trace::TraceKind::CoreDead);
    const std::size_t failover =
        firstOf(timeline, trace::TraceKind::ManagerFailover);
    ASSERT_LT(dead, timeline.size());
    ASSERT_LT(failover, timeline.size());
    EXPECT_LT(dead, failover);
    std::remove(path.c_str());
}

/**
 * Tracing observes without perturbing: the same chaos run with
 * tracing on and off produces bit-identical fingerprints and
 * counters. (The determinism suite covers the parallel engine; this
 * covers the chaos path specifically.)
 */
TEST(ChaosTrace, TracingDoesNotPerturbTheRun)
{
    const DesignConfig cfg = chaosConfig(Design::AcRss);
    const RunResult off =
        runExperiment(cfg, chaosWorkload(chaosSeedBase()));
    const RunResult on =
        runExperiment(cfg, tracedChaosWorkload(chaosSeedBase()));
    EXPECT_EQ(off.fingerprint, on.fingerprint);
    EXPECT_EQ(off.fingerprintEvents, on.fingerprintEvents);
    EXPECT_EQ(off.completed, on.completed);
    EXPECT_EQ(off.migratesRetried, on.migratesRetried);
    EXPECT_EQ(off.migratesTimedOut, on.migratesTimedOut);
    EXPECT_EQ(off.peersQuarantined, on.peersQuarantined);
    EXPECT_EQ(off.latency.p99, on.latency.p99);
    EXPECT_EQ(off.traceRecords, 0u);
    EXPECT_GT(on.traceRecords, 0u);
}

#else // !ALTOC_TRACE_ENABLED

TEST(ChaosTrace, DISABLED_TraceHooksCompiledOut) {}

#endif // ALTOC_TRACE_ENABLED
