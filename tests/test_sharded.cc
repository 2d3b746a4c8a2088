/**
 * @file
 * Sharded-kernel exactness suite (sim/kernel.hh, system/rack.hh).
 *
 * The sharded conservative-PDES executor's contract is *bit
 * identity*: for any shard count, a rack run produces the same
 * fingerprint, the same completion count, the same latency summary
 * and the same raw trace bytes as the serial kernel -- sharding is
 * purely an execution strategy. This suite pins that contract:
 *
 *  1. Fingerprint identity across shards in {1, 2, 8} for a matrix
 *     of designs x seeds, on the 4-server round-robin rack (the
 *     shardable topology), with the parallel path proven live
 *     (parallelWindows > 0).
 *  2. Raw trace-file byte identity serial vs sharded.
 *  3. Chaos: drop/delay and straggle/freeze fault schedules
 *     (shardable -- fault draws are region-private) are
 *     shard-invariant, and a kill-bearing schedule collapses to the
 *     serial kernel (parallelWindows == 0) while still agreeing
 *     bit-for-bit.
 *  4. Downgrade semantics: load-inspecting ToR policies and N=1
 *     topologies resolve to the serial kernel rather than changing
 *     results.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "sim/fault_spec.hh"
#include "system/rack.hh"
#include "workload/distributions.hh"

using namespace altoc;
using namespace altoc::system;

namespace {

/** The representative federated scenario of test_rack.cc, on the
 *  round-robin policy (the load-oblivious one sharding supports). */
DesignConfig
shardConfig(Design design, unsigned shards,
            TorPolicy policy = TorPolicy::RoundRobin)
{
    DesignConfig cfg;
    cfg.design = design;
    cfg.cores = 16;
    cfg.groups = 2;
    cfg.rack.servers = 4;
    cfg.rack.policy = policy;
    cfg.shards = shards;
    return cfg;
}

WorkloadSpec
shardSpec(std::uint64_t seed = 42)
{
    WorkloadSpec spec;
    spec.service = workload::makeExponential(1 * kUs);
    spec.rateMrps = 8.0;
    spec.requests = 4000;
    spec.seed = seed;
    // Serial runs capture from direct hooks, sharded runs from the
    // log replay; expectIdentical compares the two streams.
    spec.capturePerRequest = true;
    return spec;
}

std::string
tmpPath(const char *name)
{
    return ::testing::TempDir() + "altoc_sharded_" + name;
}

std::vector<char>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
}

/** Every observable a run exposes that must be shard-invariant. */
void
expectIdentical(const RunResult &serial, const RunResult &sharded,
                const char *what)
{
    EXPECT_EQ(serial.fingerprint, sharded.fingerprint) << what;
    EXPECT_EQ(serial.fingerprintEvents, sharded.fingerprintEvents)
        << what;
    EXPECT_EQ(serial.completed, sharded.completed) << what;
    EXPECT_EQ(serial.torDispatched, sharded.torDispatched) << what;
    EXPECT_EQ(serial.torShed, sharded.torShed) << what;
    EXPECT_EQ(serial.violations, sharded.violations) << what;
    EXPECT_EQ(serial.latency.p50, sharded.latency.p50) << what;
    EXPECT_EQ(serial.latency.p99, sharded.latency.p99) << what;
    EXPECT_EQ(serial.latency.max, sharded.latency.max) << what;
    EXPECT_EQ(serial.migrated, sharded.migrated) << what;
    EXPECT_EQ(serial.requestsShed, sharded.requestsShed) << what;
    EXPECT_EQ(serial.faultsInjected, sharded.faultsInjected) << what;
    ASSERT_EQ(serial.perRequest.size(), sharded.perRequest.size())
        << what;
    for (std::size_t i = 0; i < serial.perRequest.size(); ++i) {
        const RequestOutcome &a = serial.perRequest[i];
        const RequestOutcome &b = sharded.perRequest[i];
        ASSERT_TRUE(a.id == b.id && a.latency == b.latency &&
                    a.migrated == b.migrated &&
                    a.predicted == b.predicted)
            << what << " request " << i;
    }
    ASSERT_EQ(serial.perServer.size(), sharded.perServer.size())
        << what;
    for (std::size_t s = 0; s < serial.perServer.size(); ++s) {
        EXPECT_EQ(serial.perServer[s].completed,
                  sharded.perServer[s].completed)
            << what << " server " << s;
        EXPECT_EQ(serial.perServer[s].latency.p99,
                  sharded.perServer[s].latency.p99)
            << what << " server " << s;
    }
}

} // namespace

// ---------------------------------------------------------------------
// 1. Fingerprint identity across the design x seed x shard matrix
// ---------------------------------------------------------------------

/** shards in {2, 8} reproduce the serial run exactly, across four
 *  designs and three seeds, and the parallel path really runs. */
TEST(Sharded, FingerprintIdentityMatrix)
{
    const Design designs[] = {Design::AcInt, Design::AcRss,
                              Design::Rss, Design::Nebula};
    const std::uint64_t seeds[] = {42, 7, 1234567};
    for (Design design : designs) {
        for (std::uint64_t seed : seeds) {
            const RunResult serial = runExperiment(
                shardConfig(design, 1), shardSpec(seed));
            ASSERT_GT(serial.fingerprintEvents, 0u);
            EXPECT_EQ(serial.parallelWindows, 0u);
            for (unsigned shards : {2u, 8u}) {
                const RunResult sharded = runExperiment(
                    shardConfig(design, shards), shardSpec(seed));
                char what[64];
                std::snprintf(what, sizeof what,
                              "design=%d seed=%llu shards=%u",
                              static_cast<int>(design),
                              static_cast<unsigned long long>(seed),
                              shards);
                expectIdentical(serial, sharded, what);
                // Prove the run didn't silently collapse to serial.
                EXPECT_GT(sharded.parallelWindows, 0u) << what;
            }
        }
    }
}

/** Repeat sharded runs agree with each other (no hidden
 *  scheduling-order dependence across the host's thread timing). */
TEST(Sharded, RepeatRunsAgree)
{
    const RunResult a =
        runExperiment(shardConfig(Design::AcInt, 4), shardSpec());
    const RunResult b =
        runExperiment(shardConfig(Design::AcInt, 4), shardSpec());
    expectIdentical(a, b, "repeat shards=4");
    EXPECT_GT(a.parallelWindows, 0u);
}

// ---------------------------------------------------------------------
// 2. Raw trace bytes
// ---------------------------------------------------------------------

/** The merged rack trace file is byte-identical serial vs sharded:
 *  every record, every timestamp, every ring in the same order. */
TEST(Sharded, TraceBytesIdentical)
{
    const std::string serialPath = tmpPath("serial.bin");
    const std::string shardedPath = tmpPath("sharded.bin");

    WorkloadSpec spec = shardSpec();
    spec.tracing.enabled = true;
    spec.tracing.ringSlots = 1u << 16; // lossless
    spec.tracing.file = serialPath;
    const RunResult serial =
        runExperiment(shardConfig(Design::AcInt, 1), spec);

    spec.tracing.file = shardedPath;
    const RunResult sharded =
        runExperiment(shardConfig(Design::AcInt, 8), spec);

    expectIdentical(serial, sharded, "traced");
    EXPECT_GT(sharded.parallelWindows, 0u);
    EXPECT_GT(serial.traceRecords, 0u);
    EXPECT_EQ(serial.traceRecords, sharded.traceRecords);

    const std::vector<char> serialBytes = slurp(serialPath);
    const std::vector<char> shardedBytes = slurp(shardedPath);
    ASSERT_FALSE(serialBytes.empty());
    EXPECT_EQ(serialBytes, shardedBytes);
    std::remove(serialPath.c_str());
    std::remove(shardedPath.c_str());
}

// ---------------------------------------------------------------------
// 3. Chaos: fault schedules under sharding
// ---------------------------------------------------------------------

/** Drop/delay/duplication faults draw from region-private streams,
 *  so a chaotic run shards exactly like a pristine one. */
TEST(Sharded, FaultDrawsAreShardInvariant)
{
    WorkloadSpec spec = shardSpec();
    spec.faults = sim::FaultSpec::parse(
        "drop=0.02,dup=0.02,delay=0.1:300,seed=9");

    const RunResult serial =
        runExperiment(shardConfig(Design::AcInt, 1), spec);
    ASSERT_GT(serial.faultsInjected, 0u);
    const RunResult sharded =
        runExperiment(shardConfig(Design::AcInt, 4), spec);
    expectIdentical(serial, sharded, "chaos drop/dup/delay");
    EXPECT_GT(sharded.parallelWindows, 0u);
}

/** Straggle and freeze faults name the start of the slice they
 *  stretch, which can lie past the tick they are injected at. Serial
 *  runs observe them at injection; the sharded replay must order them
 *  the same way. */
TEST(Sharded, SliceFaultsAreShardInvariant)
{
    WorkloadSpec spec = shardSpec();
    spec.faults =
        sim::FaultSpec::parse("straggle=0.05:3,freeze=0.02:500,seed=4");

    // Designs whose dispatch pays a handoff delay before the slice
    // starts (AC workers start at once, so their faults never run
    // ahead of the clock).
    for (Design design : {Design::Rss, Design::Shinjuku}) {
        const RunResult serial =
            runExperiment(shardConfig(design, 1), spec);
        ASSERT_GT(serial.faultsInjected, 0u) << designName(design);
        const RunResult sharded =
            runExperiment(shardConfig(design, 4), spec);
        expectIdentical(serial, sharded, designName(design));
        EXPECT_GT(sharded.parallelWindows, 0u) << designName(design);
    }
}

/** A kill-bearing schedule fans server-death state into the ToR, so
 *  resolveShards pins it to the serial kernel -- and the result is
 *  still bit-identical to an explicit serial run. */
TEST(Sharded, KillSpecCollapsesToSerial)
{
    WorkloadSpec spec = shardSpec();
    spec.faults =
        sim::FaultSpec::parse("S2.kill=3@100000,drop=0.01,seed=5");

    const RunResult serial =
        runExperiment(shardConfig(Design::AcInt, 1), spec);
    const RunResult sharded =
        runExperiment(shardConfig(Design::AcInt, 8), spec);
    expectIdentical(serial, sharded, "chaos kill");
    EXPECT_EQ(sharded.parallelWindows, 0u);
}

// ---------------------------------------------------------------------
// 4. Downgrade semantics
// ---------------------------------------------------------------------

/** Load-inspecting ToR policies read remote queue depths at pick
 *  time; requesting shards under them resolves to serial without
 *  changing a single bit. */
TEST(Sharded, OraclePoliciesStaySerial)
{
    for (TorPolicy policy :
         {TorPolicy::PowerOfK, TorPolicy::LeastLoaded}) {
        const RunResult serial = runExperiment(
            shardConfig(Design::AcInt, 1, policy), shardSpec());
        const RunResult sharded = runExperiment(
            shardConfig(Design::AcInt, 8, policy), shardSpec());
        expectIdentical(serial, sharded, torPolicyName(policy));
        EXPECT_EQ(sharded.parallelWindows, 0u)
            << torPolicyName(policy);
    }
}

/** An N=1 "rack" is one region; shards resolve to 1 and the classic
 *  world is untouched. */
TEST(Sharded, SingleServerStaysSerial)
{
    DesignConfig cfg = shardConfig(Design::AcInt, 8);
    cfg.rack.servers = 1;
    DesignConfig classic = cfg;
    classic.shards = 1;
    const RunResult a = runExperiment(classic, shardSpec());
    const RunResult b = runExperiment(cfg, shardSpec());
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_EQ(a.fingerprintEvents, b.fingerprintEvents);
    EXPECT_EQ(b.parallelWindows, 0u);
}
