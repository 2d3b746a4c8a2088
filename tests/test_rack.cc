/**
 * @file
 * Rack federation suite (system/rack.hh).
 *
 * Three contracts are pinned here:
 *  1. Bit-identity -- a rack of one is a bare server: runExperiment
 *     (which runs every topology as a Rack) reproduces the
 *     fingerprint, counters and trace bytes of a bare makeServer +
 *     LoadGenerator run, the path the MICA runner, fig09 and the
 *     unit tests use.
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

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
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

std::vector<char>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
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
// 1. N=1 bit-identity
// ---------------------------------------------------------------------

namespace {

/** The bare-server path: makeServer + LoadGenerator on a private
 *  kernel, observed the way runExperiment observes one server. Writes
 *  the trace rings to @p trace_path when tracing is on. */
RunResult
runBare(Design d, const WorkloadSpec &spec,
        const std::string &trace_path = {})
{
    const DerivedSpec ds = deriveSpec(spec);
    auto server = makeServer(goldenConfig(d),
                             static_cast<Tick>(ds.meanService),
                             ds.distName, ds.slo, ds.warmup, spec.seed,
                             spec.faults, spec.logLatencyHistogram,
                             spec.tracing);
    server->reserveFor(ds.total);
    server->stopAfterCompletions(ds.total);
    bench::RunFingerprint fp;
    fp.attach(*server);
    LoadGenerator gen(*server, spec);
    gen.start();
    const Tick end = server->run(spec.timeLimit);

    RunResult res;
    res.accumulate(*server);
    res.fingerprint = fp.digest();
    res.fingerprintEvents = fp.events();
    res.latency = server->tracker().summary();
    res.violations = server->tracker().violations();
    res.achievedMrps = end > 0 ? static_cast<double>(res.completed) /
                                     static_cast<double>(end) * 1e3
                               : 0.0;
    if (!trace_path.empty()) {
        EXPECT_TRUE(server->writeTrace(trace_path));
    }
    return res;
}

} // namespace

/** runExperiment on a rack of one reproduces a bare server
 *  bit-for-bit, for every design the golden suite pins. */
TEST(RackBitIdentity, SingleServerMatchesClassicPath)
{
    for (Design d : {Design::Rss, Design::ZygOs, Design::AcInt,
                     Design::AcRss}) {
        const WorkloadSpec spec = goldenSpec();
        const RunResult bare = runBare(d, spec);
        const RunResult rack = runExperiment(rackConfig(d, 1), spec);
        EXPECT_EQ(bare.fingerprint, rack.fingerprint) << designName(d);
        EXPECT_EQ(bare.fingerprintEvents, rack.fingerprintEvents)
            << designName(d);
        EXPECT_EQ(bare.completed, rack.completed) << designName(d);
        EXPECT_EQ(bare.violations, rack.violations) << designName(d);
        EXPECT_EQ(bare.latency.p99, rack.latency.p99) << designName(d);
        EXPECT_EQ(bare.migrated, rack.migrated) << designName(d);
        EXPECT_DOUBLE_EQ(bare.achievedMrps, rack.achievedMrps)
            << designName(d);
        // The rack adds nothing to an N=1 world.
        EXPECT_EQ(rack.rackServers, 1u);
        EXPECT_EQ(rack.torDispatched, 0u);
        EXPECT_EQ(rack.torShed, 0u);
        EXPECT_TRUE(rack.perServer.empty());
    }
}

/** runExperiment's trace file for a rack of one is byte-identical to
 *  a bare server's Server::writeTrace (the rack delegates to it and
 *  the header keeps coresPerServer == 0). */
TEST(RackBitIdentity, SingleServerTraceBytesIdentical)
{
    const std::string barePath = tmpPath("bare.trace");
    const std::string rackPath = tmpPath("n1.trace");

    WorkloadSpec spec = goldenSpec();
    spec.tracing.enabled = true;
    runBare(Design::AcRss, spec, barePath);

    spec.tracing.file = rackPath;
    runExperiment(rackConfig(Design::AcRss, 1), spec);

    const std::vector<char> bareBytes = slurp(barePath);
    const std::vector<char> rackBytes = slurp(rackPath);
    ASSERT_FALSE(bareBytes.empty());
    EXPECT_EQ(bareBytes, rackBytes);

    trace::TraceFileImage image;
    ASSERT_EQ(trace::readTraceFile(rackPath, image),
              trace::TraceReadStatus::Ok);
    EXPECT_EQ(image.coresPerServer, 0u) << "N=1 files stay legacy";

    std::remove(barePath.c_str());
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
    ASSERT_EQ(image.rings.size(), 4u * 16u + 1u);
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
