/**
 * @file
 * Determinism checker: the same scenario with the same RNG seed must
 * replay bit-identically. Each run is reduced to an order-sensitive
 * hash of its (tick, event type, core, request id) completion stream
 * (bench::RunFingerprint); a digest mismatch between two identical
 * runs means some component consumed nondeterministic state (wall
 * clock, unseeded RNG, pointer-keyed iteration, future parallelism),
 * which would silently invalidate every tail-latency comparison the
 * repo produces.
 *
 * Covered per the correctness-tooling issue: d-FCFS, ZygOS-style
 * work stealing, and both ALTOCUMULUS variants, three seeds each.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bench/bench_util.hh"
#include "common/fingerprint.hh"
#include "common/rng.hh"
#include "system/rack.hh"
#include "workload/distributions.hh"

using namespace altoc;
using system::Design;

namespace {

struct StreamDigest
{
    std::uint64_t digest = 0;
    std::uint64_t completions = 0;
    Tick end = 0;
};

/** One complete open-loop run, hashed. */
StreamDigest
runScenario(Design design, std::uint64_t seed)
{
    system::DesignConfig cfg;
    cfg.design = design;
    cfg.cores = 16;
    cfg.groups = 2;

    system::WorkloadSpec spec;
    spec.service = workload::makeExponential(1 * kUs);
    spec.rateMrps = 8.0;
    spec.requests = 4000;
    spec.warmupFraction = 0.0;
    spec.seed = seed;

    system::Rack rack(cfg, spec);
    rack.stopAfterCompletions(spec.requests);

    bench::RunFingerprint fp;
    fp.attach(rack.server(0));

    system::LoadGenerator gen(rack, spec);
    gen.start();
    const Tick end = rack.run();

    return StreamDigest{fp.digest(), fp.events(), end};
}

class Determinism
    : public ::testing::TestWithParam<std::tuple<Design, std::uint64_t>>
{};

} // namespace

TEST_P(Determinism, IdenticalSeedReplaysIdentically)
{
    const auto [design, seed] = GetParam();
    const StreamDigest a = runScenario(design, seed);
    const StreamDigest b = runScenario(design, seed);

    EXPECT_GT(a.completions, 0u);
    EXPECT_EQ(a.completions, b.completions);
    EXPECT_EQ(a.end, b.end);
    EXPECT_EQ(a.digest, b.digest)
        << "completion streams diverged for "
        << system::designName(design) << " seed " << seed;
}

TEST_P(Determinism, DistinctSeedsProduceDistinctStreams)
{
    const auto [design, seed] = GetParam();
    const StreamDigest a = runScenario(design, seed);
    const StreamDigest b = runScenario(design, seed + 17);
    // Not a mathematical guarantee, but a 64-bit collision between
    // two different event streams indicates the seed is ignored.
    EXPECT_NE(a.digest, b.digest)
        << "seed change did not affect the completion stream of "
        << system::designName(design);
}

INSTANTIATE_TEST_SUITE_P(
    SchedulerMatrix, Determinism,
    ::testing::Combine(::testing::Values(Design::Rss, Design::ZygOs,
                                         Design::AcInt, Design::AcRss),
                       ::testing::Values(std::uint64_t{1},
                                         std::uint64_t{7},
                                         std::uint64_t{42})),
    [](const auto &info) {
        return std::string(
                   system::designName(std::get<0>(info.param))) +
               "_seed" + std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------
// Trace determinism (telemetry issue): trace FILES are part of the
// determinism contract. The same scheduler matrix (4 designs x 3
// seeds) must serialize bit-identical traces whether the batch runs
// serially or across pool workers, and attaching the tracer must not
// move a single completion.
// ---------------------------------------------------------------------

#if ALTOC_TRACE_ENABLED

#include <cstdio>
#include <fstream>
#include <iterator>

#include "system/parallel_run.hh"

namespace {

std::vector<char>
slurpFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
}

/** The scheduler-matrix scenario of runScenario, expressed as a
 *  RunJob with tracing attached (rings sized to hold everything the
 *  ~500 us run logs). */
system::RunJob
tracedJob(Design design, std::uint64_t seed, const std::string &file)
{
    system::RunJob job;
    job.cfg.design = design;
    job.cfg.cores = 16;
    job.cfg.groups = 2;
    job.spec.service = workload::makeExponential(1 * kUs);
    job.spec.rateMrps = 8.0;
    job.spec.requests = 4000;
    job.spec.connections = 8;
    job.spec.seed = seed;
    job.spec.tracing.enabled = true;
    job.spec.tracing.ringSlots = std::size_t{1} << 13;
    job.spec.tracing.file = file;
    return job;
}

constexpr Design kTraceDesigns[] = {Design::Rss, Design::ZygOs,
                                    Design::AcInt, Design::AcRss};
constexpr std::uint64_t kTraceSeeds[] = {1, 7, 42};

} // namespace

TEST(TraceDeterminism, TraceFilesBitIdenticalAcrossJobCounts)
{
    std::vector<system::RunJob> serial;
    std::vector<system::RunJob> pooled;
    std::vector<std::string> serialFiles;
    std::vector<std::string> pooledFiles;
    for (const Design d : kTraceDesigns) {
        for (const std::uint64_t seed : kTraceSeeds) {
            const std::string stem = ::testing::TempDir() +
                                     "altoc_det_" +
                                     system::designName(d) + "_s" +
                                     std::to_string(seed);
            serialFiles.push_back(stem + "_j1.trace");
            pooledFiles.push_back(stem + "_j4.trace");
            serial.push_back(tracedJob(d, seed, serialFiles.back()));
            pooled.push_back(tracedJob(d, seed, pooledFiles.back()));
        }
    }

    const std::vector<system::RunResult> a = system::runMany(serial, 1);
    const std::vector<system::RunResult> b = system::runMany(pooled, 4);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].fingerprint, b[i].fingerprint) << "job " << i;
        EXPECT_EQ(a[i].traceRecords, b[i].traceRecords) << "job " << i;
        const std::vector<char> fa = slurpFile(serialFiles[i]);
        const std::vector<char> fb = slurpFile(pooledFiles[i]);
        ASSERT_FALSE(fa.empty()) << serialFiles[i];
        EXPECT_EQ(fa, fb)
            << "trace file diverged between --jobs 1 and --jobs 4: "
            << serialFiles[i];
        std::remove(serialFiles[i].c_str());
        std::remove(pooledFiles[i].c_str());
    }
}

TEST(TraceDeterminism, TracingLeavesCompletionStreamUntouched)
{
    // Tracing records into memory and serializes after the run; it
    // must not schedule events or perturb any RNG. Fingerprints with
    // tracing on and off are therefore bit-identical -- which is also
    // what keeps tests/golden/*.txt valid in traced builds.
    for (const Design d : kTraceDesigns) {
        const std::uint64_t seed = 42;
        system::RunJob job = tracedJob(d, seed, "");

        system::RunJob plainJob = job;
        plainJob.spec.tracing = {};
        const system::RunResult plain =
            system::runExperiment(plainJob.cfg, plainJob.spec);
        const system::RunResult traced =
            system::runExperiment(job.cfg, job.spec);

        EXPECT_EQ(traced.fingerprint, plain.fingerprint)
            << system::designName(d);
        EXPECT_EQ(traced.fingerprintEvents, plain.fingerprintEvents)
            << system::designName(d);
        EXPECT_EQ(traced.latency.p99, plain.latency.p99)
            << system::designName(d);
        EXPECT_EQ(plain.traceRecords, 0u);
    }
}

#else // !ALTOC_TRACE_ENABLED

TEST(TraceDeterminism, DISABLED_TraceHooksCompiledOut) {}

#endif // ALTOC_TRACE_ENABLED

// ---------------------------------------------------------------------
// The digest's fold
// ---------------------------------------------------------------------

namespace {

/** FNV-1a over all eight bytes of every word, lowest byte first: the
 *  definition Fnv1a::mix must reproduce bit for bit. */
std::uint64_t
byteWiseDigest(const std::vector<std::uint64_t> &words)
{
    std::uint64_t h = 14695981039346656037ull;
    for (const std::uint64_t v : words) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 1099511628211ull;
        }
    }
    return h;
}

std::uint64_t
fnvDigest(const std::vector<std::uint64_t> &words)
{
    Fnv1a h;
    for (const std::uint64_t v : words)
        h.mix(v);
    return h.digest();
}

} // namespace

TEST(DigestFold, SkippedZeroBytesMatchTheByteWiseLoop)
{
    // Every width: 2^k - 1 and 2^k for k = 0..63 (0 and 1 among
    // them), and ~0.
    std::vector<std::uint64_t> edges{~std::uint64_t{0}};
    for (unsigned k = 0; k < 64; ++k) {
        edges.push_back((std::uint64_t{1} << k) - 1);
        edges.push_back(std::uint64_t{1} << k);
    }
    for (const std::uint64_t v : edges) {
        EXPECT_EQ(fnvDigest({v}), byteWiseDigest({v})) << v;
        EXPECT_EQ(fnvDigest({0x5eed, v, 0}), byteWiseDigest({0x5eed, v, 0}))
            << v;
    }
    // A random stream of random widths.
    Rng rng(2024);
    std::vector<std::uint64_t> stream;
    for (int i = 0; i < 4096; ++i)
        stream.push_back(rng.next() >> rng.below(64));
    EXPECT_EQ(fnvDigest(stream), byteWiseDigest(stream));
}
