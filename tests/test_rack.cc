/**
 * @file
 * Rack federation suite (system/rack.hh).
 *
 * Three contracts are pinned here:
 *  1. A rack of one adds nothing: one server, no ToR dispatch or
 *     shed, no per-server slices, and a trace file in the
 *     single-server format. The Rack is the only way to run a server,
 *     so there is no second path to compare against; the golden
 *     suite (tests/test_golden_results.cc) pins the single-server
 *     fingerprints.
 *  2. Conservation -- on a drained federated run every issued request
 *     either completed on some server, was shed at some server's
 *     admission, or was shed at the ToR; under crash ladders the ToR
 *     stops steering to dead servers.
 *  3. Determinism -- federated runs are pure functions of (config,
 *     spec): repeat runs agree, and a parallel batch (runMany jobs=4)
 *     is bit-identical to the serial batch.
 *
 * Rack goldens (tests/golden/rack_*.txt) pin a representative
 * 4-server power-of-2-choices run; regenerate intentional changes
 * with ./build/tests/test_rack --update-golden.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "system/parallel_run.hh"
#include "system/rack.hh"
#include "trace/reader.hh"
#include "workload/distributions.hh"

using namespace altoc;
using namespace altoc::system;

namespace {

bool g_update = false;

#ifndef ALTOC_GOLDEN_DIR
#error "build must define ALTOC_GOLDEN_DIR (see tests/CMakeLists.txt)"
#endif

/** The golden scenario of test_golden_results.cc, verbatim: the
 *  single-server bit-identity checks run the exact same world. */
WorkloadSpec
goldenSpec()
{
    WorkloadSpec spec;
    spec.service = workload::makeExponential(1 * kUs);
    spec.rateMrps = 8.0;
    spec.requests = 4000;
    spec.seed = 42;
    return spec;
}

DesignConfig
goldenConfig(Design design)
{
    DesignConfig cfg;
    cfg.design = design;
    cfg.cores = 16;
    cfg.groups = 2;
    return cfg;
}

/** A representative federated scenario: 4 servers, power-of-2. */
DesignConfig
rackConfig(Design design, unsigned servers,
           TorPolicy policy = TorPolicy::PowerOfK)
{
    DesignConfig cfg = goldenConfig(design);
    cfg.rack.servers = servers;
    cfg.rack.policy = policy;
    return cfg;
}

std::string
tmpPath(const char *name)
{
    return ::testing::TempDir() + "altoc_rack_" + name;
}

std::string
goldenPath(const char *file)
{
    return std::string(ALTOC_GOLDEN_DIR) + "/" + file + ".txt";
}

std::map<std::string, std::string>
readGolden(const char *file)
{
    std::map<std::string, std::string> kv;
    std::FILE *f = std::fopen(goldenPath(file).c_str(), "r");
    if (f == nullptr)
        return kv;
    char key[64], value[192];
    while (std::fscanf(f, "%63s %191s", key, value) == 2)
        kv[key] = value;
    std::fclose(f);
    return kv;
}

} // namespace

// ---------------------------------------------------------------------
// 1. A rack of one adds nothing
// ---------------------------------------------------------------------

/** runExperiment on a rack of one, for every design the golden suite
 *  pins: one server, no ToR dispatch or shed, no per-server slices. */
TEST(RackBitIdentity, SingleServerAddsNothing)
{
    for (Design d : {Design::Rss, Design::ZygOs, Design::AcInt,
                     Design::AcRss}) {
        const WorkloadSpec spec = goldenSpec();
        const RunResult rack = runExperiment(rackConfig(d, 1), spec);
        EXPECT_EQ(rack.completed, spec.requests) << designName(d);
        EXPECT_EQ(rack.fingerprintEvents, spec.requests) << designName(d);
        EXPECT_EQ(rack.rackServers, 1u);
        EXPECT_EQ(rack.torDispatched, 0u);
        EXPECT_EQ(rack.torShed, 0u);
        EXPECT_TRUE(rack.perServer.empty());
    }
}

/** A rack of one writes the single-server trace format: the header
 *  keeps coresPerServer == 0, and the file decodes. */
TEST(RackBitIdentity, SingleServerTraceKeepsLegacyHeader)
{
    const std::string rackPath = tmpPath("n1.trace");

    WorkloadSpec spec = goldenSpec();
    spec.tracing.enabled = true;
    spec.tracing.file = rackPath;
    runExperiment(rackConfig(Design::AcRss, 1), spec);

    trace::TraceFileImage image;
    ASSERT_EQ(trace::readTraceFile(rackPath, image),
              trace::TraceReadStatus::Ok);
    EXPECT_EQ(image.coresPerServer, 0u) << "N=1 files stay legacy";
    EXPECT_FALSE(image.rings.empty());

    std::remove(rackPath.c_str());
}

// ---------------------------------------------------------------------
// 2. Federated runs: completion, conservation, policies
// ---------------------------------------------------------------------

/** The ISSUE's acceptance run: 4 servers, power-of-2-choices, every
 *  request accounted for, every server exercised. */
TEST(RackRun, FourServerPowerOfTwoCompletesAndConserves)
{
    WorkloadSpec spec = goldenSpec();
    spec.requests = 8000;
    const RunResult res =
        runExperiment(rackConfig(Design::AcInt, 4), spec);

    EXPECT_EQ(res.rackServers, 4u);
    EXPECT_EQ(res.completed + res.requestsShed + res.torShed,
              spec.requests);
    EXPECT_EQ(res.torShed, 0u) << "no server died";
    EXPECT_EQ(res.torDispatched, spec.requests);
    ASSERT_EQ(res.perServer.size(), 4u);
    std::uint64_t sum = 0;
    for (const PerServerResult &ps : res.perServer) {
        EXPECT_GT(ps.completed, 0u)
            << "p2c starved a server of an 8k-request run";
        EXPECT_FALSE(ps.dead);
        sum += ps.completed + ps.requestsShed;
    }
    EXPECT_EQ(sum, res.completed + res.requestsShed);
}

/** Every ToR policy completes the workload, conserves requests, and
 *  reproduces its own fingerprint on a repeat run. */
TEST(RackRun, AllPoliciesCompleteAndAreDeterministic)
{
    for (TorPolicy p : {TorPolicy::Random, TorPolicy::RoundRobin,
                        TorPolicy::PowerOfK, TorPolicy::LeastLoaded}) {
        WorkloadSpec spec = goldenSpec();
        spec.requests = 2000;
        const DesignConfig cfg = rackConfig(Design::Rss, 3, p);
        const RunResult a = runExperiment(cfg, spec);
        const RunResult b = runExperiment(cfg, spec);
        EXPECT_EQ(a.completed + a.requestsShed, spec.requests)
            << torPolicyName(p);
        EXPECT_EQ(a.fingerprint, b.fingerprint) << torPolicyName(p);
        EXPECT_EQ(a.fingerprintEvents, b.fingerprintEvents)
            << torPolicyName(p);
    }
}

/** A run stopped by its request bound ends at its last dispatched
 *  event whether or not a time limit also bounds it. RSS has no
 *  periodic events, so the stopping completion leaves the queue
 *  empty: the same run with a 500 ms limit reports the same rate,
 *  utilization and fingerprint as without one, on one server and on
 *  a round-robin rack. */
TEST(RackRun, TimeLimitDoesNotStretchAStoppedRun)
{
    for (unsigned servers : {1u, 4u}) {
        const DesignConfig cfg =
            rackConfig(Design::Rss, servers, TorPolicy::RoundRobin);
        WorkloadSpec spec = goldenSpec();
        const RunResult open = runExperiment(cfg, spec);
        spec.timeLimit = 500 * kMs;
        const RunResult bounded = runExperiment(cfg, spec);
        EXPECT_EQ(bounded.completed, spec.requests) << servers;
        EXPECT_GT(open.achievedMrps, 0.9 * spec.rateMrps) << servers;
        EXPECT_EQ(bounded.achievedMrps, open.achievedMrps) << servers;
        EXPECT_EQ(bounded.utilization, open.utilization) << servers;
        EXPECT_EQ(bounded.fingerprint, open.fingerprint) << servers;
    }
}

/** Different policies make different placement decisions: with load
 *  information (p2c) the completion stream diverges from blind
 *  rotation (rr) on the same seed. */
TEST(RackRun, PoliciesProduceDistinctSchedules)
{
    WorkloadSpec spec = goldenSpec();
    spec.requests = 2000;
    const RunResult rr = runExperiment(
        rackConfig(Design::Rss, 3, TorPolicy::RoundRobin), spec);
    const RunResult p2c = runExperiment(
        rackConfig(Design::Rss, 3, TorPolicy::PowerOfK), spec);
    EXPECT_NE(rr.fingerprint, p2c.fingerprint);
}

// ---------------------------------------------------------------------
// 3. Crash ladders: scoped faults, server death, ToR shedding
// ---------------------------------------------------------------------

/** Scoped kills land only on their server; rack-wide conservation
 *  holds across a ladder that degrades two of four machines. */
TEST(RackChaos, ScopedCrashLadderConserves)
{
    DesignConfig cfg = rackConfig(Design::ZygOs, 4);
    WorkloadSpec spec = goldenSpec();
    spec.requests = 8000;
    spec.faults = sim::FaultSpec::parse(
        "S1.kill=3@200000,S1.kill=7@250000,S2.kill=5@300000,seed=9");
    spec.timeLimit = 50 * kMs;

    const RunResult res = runExperiment(cfg, spec);
    EXPECT_EQ(res.completed + res.requestsShed + res.torShed,
              spec.requests);
    EXPECT_EQ(res.coresKilled, 3u);
    ASSERT_EQ(res.perServer.size(), 4u);
    EXPECT_EQ(res.perServer[0].coresKilled, 0u);
    EXPECT_EQ(res.perServer[1].coresKilled, 2u);
    EXPECT_EQ(res.perServer[2].coresKilled, 1u);
    EXPECT_EQ(res.perServer[3].coresKilled, 0u);
    EXPECT_FALSE(res.perServer[1].dead);
}

/** Killing every worker of one server declares it dead at the ToR;
 *  the survivors absorb the load and nothing is lost. */
TEST(RackChaos, DeadServerIsSteeredAroundAndConserved)
{
    DesignConfig cfg = rackConfig(Design::Rss, 2);
    WorkloadSpec spec = goldenSpec();
    spec.requests = 6000;
    spec.rateMrps = 4.0;
    // Ladder killing all 16 worker cores of server 1 early in the run.
    std::string ladder;
    for (unsigned c = 0; c < 16; ++c) {
        char item[48];
        std::snprintf(item, sizeof item, "S1.kill=%u@%u,", c,
                      100000 + c * 10000);
        ladder += item;
    }
    spec.faults = sim::FaultSpec::parse(ladder + "seed=3");
    spec.timeLimit = 100 * kMs;

    const RunResult res = runExperiment(cfg, spec);
    EXPECT_EQ(res.completed + res.requestsShed + res.torShed,
              spec.requests);
    ASSERT_EQ(res.perServer.size(), 2u);
    EXPECT_TRUE(res.perServer[1].dead);
    EXPECT_FALSE(res.perServer[0].dead);
    EXPECT_EQ(res.perServer[1].coresKilled, 16u);
    EXPECT_EQ(res.torShed, 0u) << "server 0 stayed alive";
    EXPECT_GT(res.perServer[0].completed, res.perServer[1].completed);
}

/** With every server dead the ToR sheds; conservation still holds. */
TEST(RackChaos, AllServersDeadShedsAtTor)
{
    DesignConfig cfg = rackConfig(Design::Rss, 2);
    WorkloadSpec spec = goldenSpec();
    spec.requests = 6000;
    spec.rateMrps = 4.0;
    std::string ladder;
    for (unsigned s = 0; s < 2; ++s) {
        for (unsigned c = 0; c < 16; ++c) {
            char item[48];
            std::snprintf(item, sizeof item, "S%u.kill=%u@%u,", s, c,
                          100000 + c * 10000);
            ladder += item;
        }
    }
    spec.faults = sim::FaultSpec::parse(ladder + "seed=3");
    spec.timeLimit = 100 * kMs;

    const RunResult res = runExperiment(cfg, spec);
    EXPECT_EQ(res.completed + res.requestsShed + res.torShed,
              spec.requests);
    EXPECT_GT(res.torShed, 0u);
    ASSERT_EQ(res.perServer.size(), 2u);
    EXPECT_TRUE(res.perServer[0].dead);
    EXPECT_TRUE(res.perServer[1].dead);
}

namespace {

/** A fault spec killing cores 0..15 of server @p s, the first at
 *  @p first_ns and then one every @p step_ns. */
std::string
killAllCores(unsigned s, unsigned first_ns, unsigned step_ns)
{
    std::string ladder;
    for (unsigned c = 0; c < 16; ++c) {
        char item[48];
        std::snprintf(item, sizeof item, "S%u.kill=%u@%u,", s, c,
                      first_ns + c * step_ns);
        ladder += item;
    }
    return ladder;
}

} // namespace

/** A run that sheds stops once every request completed or was shed,
 *  so its length, and the rate and utilization divided by it, do not
 *  depend on the time limit: sheds at a server's admission (server 1
 *  loses every core) and sheds at the ToR (both servers do). */
TEST(RackChaos, ShedRunEndsOnceEveryRequestIsAccountedFor)
{
    struct Case
    {
        unsigned servers;
        double rate;
        std::uint64_t requests;
        std::string faults;
        bool torSheds;
    };
    const Case cases[] = {
        {4, 16.0, 20000, killAllCores(1, 100000, 5000), false},
        {2, 4.0, 6000,
         killAllCores(0, 100000, 10000) + killAllCores(1, 100000, 10000),
         true},
    };
    for (const Case &c : cases) {
        const DesignConfig cfg = rackConfig(Design::Rss, c.servers);
        WorkloadSpec spec = goldenSpec();
        spec.requests = c.requests;
        spec.rateMrps = c.rate;
        spec.faults = sim::FaultSpec::parse(c.faults + "seed=10");
        spec.timeLimit = 5 * kMs;
        const RunResult shortLimit = runExperiment(cfg, spec);
        spec.timeLimit = 10 * kMs;
        const RunResult longLimit = runExperiment(cfg, spec);

        const RunResult &r = shortLimit;
        EXPECT_EQ(r.completed + r.requestsShed + r.torShed, spec.requests)
            << c.servers;
        EXPECT_GT(c.torSheds ? r.torShed : r.requestsShed, 0u)
            << c.servers;
        EXPECT_EQ(shortLimit.achievedMrps, longLimit.achievedMrps)
            << c.servers;
        EXPECT_EQ(shortLimit.utilization, longLimit.utilization)
            << c.servers;
        EXPECT_EQ(shortLimit.fingerprint, longLimit.fingerprint)
            << c.servers;
    }
}

/** Crash runs are bit-reproducible, federated or not. */
TEST(RackChaos, CrashRunFingerprintIsStable)
{
    DesignConfig cfg = rackConfig(Design::ZygOs, 4);
    WorkloadSpec spec = goldenSpec();
    spec.requests = 4000;
    spec.faults = sim::FaultSpec::parse(
        "S1.kill=3@200000,S3.kill=9@400000,seed=11");
    spec.timeLimit = 50 * kMs;
    const RunResult a = runExperiment(cfg, spec);
    const RunResult b = runExperiment(cfg, spec);
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_EQ(a.fingerprintEvents, b.fingerprintEvents);
}

// ---------------------------------------------------------------------
// 4. Parallel engine: jobs=1 vs jobs=4 bit-equality
// ---------------------------------------------------------------------

TEST(RackDeterminism, ParallelBatchMatchesSerial)
{
    std::vector<RunJob> batch;
    for (TorPolicy p : {TorPolicy::Random, TorPolicy::RoundRobin,
                        TorPolicy::PowerOfK, TorPolicy::LeastLoaded}) {
        RunJob job;
        job.cfg = rackConfig(Design::AcInt, 3, p);
        job.spec = goldenSpec();
        job.spec.requests = 2000;
        batch.push_back(job);
    }
    const std::vector<RunResult> serial = runMany(batch, 1);
    const std::vector<RunResult> parallel = runMany(batch, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].fingerprint, parallel[i].fingerprint)
            << "job " << i;
        EXPECT_EQ(serial[i].completed, parallel[i].completed)
            << "job " << i;
    }
}

// ---------------------------------------------------------------------
// 5. Federated traces
// ---------------------------------------------------------------------

#if ALTOC_TRACE_ENABLED

/** A federated trace file decodes with per-server ring attribution,
 *  carries the ToR's dispatch stream, and passes the causal
 *  validator (including the no-dispatch-to-dead-server rule). */
TEST(RackTrace, FederatedFileDecodesAndValidates)
{
    const std::string path = tmpPath("federated.trace");
    DesignConfig cfg = rackConfig(Design::AcRss, 4);
    WorkloadSpec spec = goldenSpec();
    spec.requests = 4000;
    spec.tracing.enabled = true;
    spec.tracing.ringSlots = 1u << 16; // lossless: validator needs all
    spec.tracing.file = path;

    const RunResult res = runExperiment(cfg, spec);
    ASSERT_GT(res.traceRecords, 0u);
    ASSERT_EQ(res.traceDropped, 0u);

    trace::TraceFileImage image;
    ASSERT_EQ(trace::readTraceFile(path, image),
              trace::TraceReadStatus::Ok);
    EXPECT_EQ(image.coresPerServer, 16u);
    // 16 rings per server, then the ToR's request and control rings.
    ASSERT_EQ(image.rings.size(), 4u * 16u + 2u);
    EXPECT_EQ(image.serverOfRing(0), 0u);
    EXPECT_EQ(image.serverOfRing(17), 1u);
    EXPECT_EQ(image.serverOfRing(63), 3u);

    const std::vector<trace::TraceRecord> timeline =
        trace::mergeTimeline(image);
    const auto kinds = trace::summarize(timeline);
    EXPECT_EQ(kinds[static_cast<std::size_t>(
                        trace::TraceKind::TorDispatch)]
                  .count,
              res.torDispatched);

    std::vector<std::string> errors;
    EXPECT_TRUE(trace::validateTimeline(timeline, errors))
        << (errors.empty() ? "" : errors.front());
    std::remove(path.c_str());
}

/** The dead-server causal rule fires end-to-end: a run that kills a
 *  whole server emits ServerDead, and the recorded dispatch stream
 *  never targets the corpse. */
TEST(RackTrace, ServerDeathIsRecordedAndCausallyClean)
{
    const std::string path = tmpPath("dead_server.trace");
    DesignConfig cfg = rackConfig(Design::Rss, 2);
    WorkloadSpec spec = goldenSpec();
    spec.requests = 4000;
    spec.rateMrps = 4.0;
    std::string ladder;
    for (unsigned c = 0; c < 16; ++c) {
        char item[48];
        std::snprintf(item, sizeof item, "S1.kill=%u@%u,", c,
                      100000 + c * 5000);
        ladder += item;
    }
    spec.faults = sim::FaultSpec::parse(ladder + "seed=5");
    spec.timeLimit = 100 * kMs;
    spec.tracing.enabled = true;
    spec.tracing.ringSlots = 1u << 16;
    spec.tracing.file = path;

    runExperiment(cfg, spec);

    trace::TraceFileImage image;
    ASSERT_EQ(trace::readTraceFile(path, image),
              trace::TraceReadStatus::Ok);
    const std::vector<trace::TraceRecord> timeline =
        trace::mergeTimeline(image);
    const auto kinds = trace::summarize(timeline);
    EXPECT_EQ(kinds[static_cast<std::size_t>(
                        trace::TraceKind::ServerDead)]
                  .count,
              1u);
    std::vector<std::string> errors;
    EXPECT_TRUE(trace::validateTimeline(timeline, errors))
        << (errors.empty() ? "" : errors.front());
    std::remove(path.c_str());
}

/** ServerDead has a ToR ring of its own: a rack that dispatches more
 *  requests after a death than a ring holds still decodes the death,
 *  so the no-dispatch-to-a-dead-server rule still has something to
 *  check, and a dispatch to the corpse planted after it fails. */
TEST(RackTrace, ServerDeathOutlivesAFullDispatchRing)
{
    const std::string path = tmpPath("dead_server_full_ring.trace");
    const DesignConfig cfg = rackConfig(Design::Rss, 4);
    WorkloadSpec spec = goldenSpec();
    spec.requests = 20000;
    spec.rateMrps = 16.0;
    spec.faults =
        sim::FaultSpec::parse(killAllCores(1, 100000, 5000) + "seed=10");
    spec.tracing.enabled = true; // the default 4,096 slots per ring
    spec.tracing.file = path;

    const RunResult res = runExperiment(cfg, spec);
    ASSERT_EQ(res.perServer.size(), 4u);
    ASSERT_TRUE(res.perServer[1].dead);

    trace::TraceFileImage image;
    ASSERT_EQ(trace::readTraceFile(path, image),
              trace::TraceReadStatus::Ok);
    ASSERT_EQ(image.rings.size(), 4u * 16u + 2u);
    std::vector<trace::TraceRecord> timeline = trace::mergeTimeline(image);
    const auto isDeath = [](const trace::TraceRecord &r) {
        return r.kind == static_cast<std::uint8_t>(
                             trace::TraceKind::ServerDead);
    };
    const auto death =
        std::find_if(timeline.begin(), timeline.end(), isDeath);
    ASSERT_NE(death, timeline.end()) << "the death was evicted";
    EXPECT_EQ(death->arg, 1u);
    EXPECT_EQ(std::count_if(timeline.begin(), timeline.end(), isDeath), 1);

    // More requests were dispatched after the death than the request
    // ring holds: every one it kept is younger than the death, and it
    // dropped older ones. In one shared ring they would have evicted
    // the death.
    const trace::TraceRingImage &requests = image.rings[4 * 16];
    ASSERT_EQ(requests.records.size(), spec.tracing.ringSlots);
    EXPECT_GT(requests.dropped, 0u);
    EXPECT_GT(requests.records.front().tick, death->tick);

    std::vector<std::string> errors;
    EXPECT_TRUE(trace::validateTimeline(timeline, errors))
        << (errors.empty() ? "" : errors.front());

    // A dispatch to server 1 planted after its death is a violation.
    trace::TraceRecord planted = *death;
    planted.kind = static_cast<std::uint8_t>(trace::TraceKind::TorDispatch);
    planted.arg = trace::tracePack(0, 1);
    timeline.insert(death + 1, planted);
    errors.clear();
    EXPECT_FALSE(trace::validateTimeline(timeline, errors));
    ASSERT_FALSE(errors.empty());
    EXPECT_NE(errors.front().find("TorDispatch to server 1"),
              std::string::npos)
        << errors.front();
    std::remove(path.c_str());
}

#else // !ALTOC_TRACE_ENABLED

TEST(RackTrace, DISABLED_TraceHooksCompiledOut) {}

#endif // ALTOC_TRACE_ENABLED

// ---------------------------------------------------------------------
// 6. Stats dump: every server reports
// ---------------------------------------------------------------------

TEST(RackStats, DumpCoversEveryServer)
{
    DesignConfig cfg = rackConfig(Design::Rss, 3);
    const WorkloadSpec spec = goldenSpec();
    Rack rack(cfg, spec);

    std::FILE *f = std::tmpfile();
    ASSERT_NE(f, nullptr);
    rack.dumpStats(f);
    std::fflush(f);
    std::fseek(f, 0, SEEK_SET);
    std::string text;
    char buf[512];
    while (std::fgets(buf, sizeof buf, f) != nullptr)
        text += buf;
    std::fclose(f);

    EXPECT_NE(text.find("rack.servers"), std::string::npos);
    EXPECT_NE(text.find("rack.torDispatched"), std::string::npos);
    for (const char *needle :
         {"server0.", "server1.", "server2."}) {
        EXPECT_NE(text.find(needle), std::string::npos)
            << "stats dump silently dropped a server: " << needle;
    }
}

TEST(RackStats, DumpReportsTheRuntimePeriodMix)
{
    // Two AC servers: each server's block carries its runtime's
    // period mix, and the four pattern counts partition its periods.
    DesignConfig cfg = rackConfig(Design::AcInt, 2);
    const WorkloadSpec spec = goldenSpec();
    Rack rack(cfg, spec);
    rack.stopAfterCompletions(spec.requests);
    LoadGenerator gen(rack, spec);
    gen.start();
    rack.run();

    std::FILE *f = std::tmpfile();
    ASSERT_NE(f, nullptr);
    rack.dumpStats(f);
    std::fflush(f);
    std::fseek(f, 0, SEEK_SET);
    std::map<std::string, double> stat;
    char buf[512];
    while (std::fgets(buf, sizeof buf, f) != nullptr) {
        char name[128];
        double value = 0.0;
        if (std::sscanf(buf, "%127s %lf", name, &value) == 2)
            stat[name] = value;
    }
    std::fclose(f);

    for (unsigned s = 0; s < 2; ++s) {
        const std::string p = "server" + std::to_string(s) + ".sched.";
        for (const char *key :
             {"runtimeTicks", "pattern.none", "pattern.hill",
              "pattern.valley", "pattern.pairing", "periodsBelowBatch"}) {
            ASSERT_EQ(stat.count(p + key), 1u) << p + key;
        }
        const double ticks = stat[p + "runtimeTicks"];
        EXPECT_GT(ticks, 0.0);
        EXPECT_EQ(stat[p + "pattern.none"] + stat[p + "pattern.hill"] +
                      stat[p + "pattern.valley"] +
                      stat[p + "pattern.pairing"],
                  ticks);
        EXPECT_LE(stat[p + "periodsBelowBatch"], ticks);
        const auto *gs = dynamic_cast<const core::GroupScheduler *>(
            &rack.server(s).scheduler());
        ASSERT_NE(gs, nullptr);
        EXPECT_EQ(stat[p + "periodsBelowBatch"],
                  static_cast<double>(gs->periodsBelowBatch()));
    }
}

// ---------------------------------------------------------------------
// 7. Rack goldens
// ---------------------------------------------------------------------

namespace {

RunResult
runRackGoldenScenario()
{
    WorkloadSpec spec = goldenSpec();
    spec.requests = 8000;
    return runExperiment(rackConfig(Design::AcInt, 4), spec);
}

void
checkRackGolden(const char *file)
{
    const RunResult res = runRackGoldenScenario();
    ASSERT_GT(res.fingerprintEvents, 0u);

    if (g_update) {
        std::FILE *f = std::fopen(goldenPath(file).c_str(), "w");
        ASSERT_NE(f, nullptr) << goldenPath(file);
        std::fprintf(f, "design %s\n", res.design.c_str());
        std::fprintf(f, "servers %u\n", res.rackServers);
        std::fprintf(f, "fingerprint %016" PRIx64 "\n",
                     res.fingerprint);
        std::fprintf(f, "events %" PRIu64 "\n", res.fingerprintEvents);
        std::fprintf(f, "completed %" PRIu64 "\n", res.completed);
        std::fprintf(f, "tor_dispatched %" PRIu64 "\n",
                     res.torDispatched);
        std::fprintf(f, "p99 %" PRIu64 "\n",
                     static_cast<std::uint64_t>(res.latency.p99));
        std::fclose(f);
        std::printf("updated %s\n", goldenPath(file).c_str());
        return;
    }

    const auto kv = readGolden(file);
    ASSERT_FALSE(kv.empty())
        << goldenPath(file)
        << " missing; run test_rack --update-golden";
    char fp[32];
    std::snprintf(fp, sizeof fp, "%016" PRIx64, res.fingerprint);
    EXPECT_EQ(kv.at("fingerprint"), fp);
    EXPECT_EQ(kv.at("events"), std::to_string(res.fingerprintEvents));
    EXPECT_EQ(kv.at("completed"), std::to_string(res.completed));
    EXPECT_EQ(kv.at("tor_dispatched"),
              std::to_string(res.torDispatched));
    EXPECT_EQ(kv.at("p99"),
              std::to_string(
                  static_cast<std::uint64_t>(res.latency.p99)));
}

} // namespace

TEST(RackGolden, FourServerAcIntP2c) { checkRackGolden("rack_ac_p2c"); }

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--update-golden") == 0)
            g_update = true;
    }
    testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
