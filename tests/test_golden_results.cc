/**
 * @file
 * Golden-result regression suite: pins the exact simulation output of
 * one representative run per headline design (d-FCFS/RSS, work
 * stealing, AC on integrated NIC, AC on commodity RSS NIC) against
 * checked-in files in tests/golden/. Any change to event ordering,
 * RNG consumption, scheduler decisions or stats accounting shows up
 * as a fingerprint mismatch here before it silently shifts a figure.
 *
 * Regenerating after an *intentional* behavior change:
 *
 *     ./build/tests/test_golden_results --update-golden
 *
 * rewrites the files in the source tree; commit them with the change
 * that moved the numbers. Scalar stats use exact equality -- goldens
 * are only guaranteed against the toolchain/libm that generated them,
 * so regenerate rather than hand-edit if a platform disagrees.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "sim/fault_spec.hh"
#include "system/experiment.hh"
#include "workload/distributions.hh"

using namespace altoc;
using namespace altoc::system;

namespace {

bool g_update = false;

#ifndef ALTOC_GOLDEN_DIR
#error "build must define ALTOC_GOLDEN_DIR (see tests/CMakeLists.txt)"
#endif

struct GoldenCase
{
    const char *file; // golden file basename, sans .txt
    Design design;
};

const std::vector<GoldenCase> &
goldenCases()
{
    static const std::vector<GoldenCase> cases{
        {"rss_dfcfs", Design::Rss},
        {"zygos_stealing", Design::ZygOs},
        {"ac_integrated", Design::AcInt},
        {"ac_rss", Design::AcRss},
    };
    return cases;
}

/** The pinned scenario: identical across designs so the four files
 *  differ only through scheduling behavior. */
RunResult
runGoldenScenario(Design design)
{
    DesignConfig cfg;
    cfg.design = design;
    cfg.cores = 16;
    cfg.groups = 2;

    WorkloadSpec spec;
    spec.service = workload::makeExponential(1 * kUs);
    spec.rateMrps = 8.0;
    spec.requests = 4000;
    spec.seed = 42;
    return runExperiment(cfg, spec);
}

std::string
goldenPath(const char *file)
{
    return std::string(ALTOC_GOLDEN_DIR) + "/" + file + ".txt";
}

void
writeGolden(const char *file, const RunResult &res)
{
    const std::string path = goldenPath(file);
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr) << "cannot write " << path;
    std::fprintf(f, "design %s\n", res.design.c_str());
    std::fprintf(f, "fingerprint %016" PRIx64 "\n", res.fingerprint);
    std::fprintf(f, "events %" PRIu64 "\n", res.fingerprintEvents);
    std::fprintf(f, "completed %" PRIu64 "\n", res.completed);
    std::fprintf(f, "violations %" PRIu64 "\n", res.violations);
    std::fprintf(f, "p99 %" PRIu64 "\n",
                 static_cast<std::uint64_t>(res.latency.p99));
    std::fprintf(f, "achieved_mrps %.17g\n", res.achievedMrps);
    std::fclose(f);
}

std::map<std::string, std::string>
readGolden(const char *file)
{
    std::map<std::string, std::string> kv;
    const std::string path = goldenPath(file);
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (f == nullptr)
        return kv;
    char key[64], value[192];
    while (std::fscanf(f, "%63s %191s", key, value) == 2)
        kv[key] = value;
    std::fclose(f);
    return kv;
}

void
checkGolden(const GoldenCase &c)
{
    const RunResult res = runGoldenScenario(c.design);
    ASSERT_GT(res.fingerprintEvents, 0u);

    if (g_update) {
        writeGolden(c.file, res);
        std::printf("updated %s\n", goldenPath(c.file).c_str());
        return;
    }

    const auto kv = readGolden(c.file);
    ASSERT_FALSE(kv.empty())
        << goldenPath(c.file)
        << " missing or unreadable; run with --update-golden to "
           "(re)generate";

    char fp[32];
    std::snprintf(fp, sizeof fp, "%016" PRIx64, res.fingerprint);
    EXPECT_EQ(kv.at("fingerprint"), fp);
    EXPECT_EQ(kv.at("events"),
              std::to_string(res.fingerprintEvents));
    EXPECT_EQ(kv.at("completed"), std::to_string(res.completed));
    EXPECT_EQ(kv.at("violations"), std::to_string(res.violations));
    EXPECT_EQ(kv.at("p99"),
              std::to_string(static_cast<std::uint64_t>(
                  res.latency.p99)));
    char mrps[64];
    std::snprintf(mrps, sizeof mrps, "%.17g", res.achievedMrps);
    EXPECT_EQ(kv.at("achieved_mrps"), mrps);
}

} // namespace

TEST(GoldenResults, RssDFcfs) { checkGolden(goldenCases()[0]); }
TEST(GoldenResults, ZygosWorkStealing) { checkGolden(goldenCases()[1]); }
TEST(GoldenResults, AcIntegrated) { checkGolden(goldenCases()[2]); }
TEST(GoldenResults, AcRss) { checkGolden(goldenCases()[3]); }

// ---------------------------------------------------------------------
// Pinned fingerprints for runtime paths the 2-group scenario above
// never reaches: UPDATE coalescing under a 10 ns period, faulted runs
// with manager kills on both AC variants, software messaging, and
// faulted 4-server round-robin racks. Each single-server value is
// what the altocsim command in its comment printed with --requests
// 5000. No altocsim flag selects software messaging, so that value
// was recorded by this test itself, on the model that delivered
// every UPDATE as an event; the rack values were recorded by this
// test too.
// ---------------------------------------------------------------------

namespace {

struct PinnedRun
{
    Design design;
    unsigned cores;
    unsigned groups;
    Tick period;
    double rateMrps;
    std::uint64_t seed;
    const char *faults; // "" = pristine
    bool hardwareMessaging;
    unsigned servers = 1;
    TorPolicy policy = TorPolicy::PowerOfK;
};

std::string
pinnedFingerprint(const PinnedRun &p)
{
    DesignConfig cfg;
    cfg.design = p.design;
    cfg.cores = p.cores;
    cfg.groups = p.groups;
    cfg.params.period = p.period;
    cfg.params.hardwareMessaging = p.hardwareMessaging;
    cfg.rack.servers = p.servers;
    cfg.rack.policy = p.policy;

    WorkloadSpec spec;
    spec.service = workload::makeFixed(1 * kUs);
    spec.rateMrps = p.rateMrps;
    spec.requests = 5000;
    spec.seed = p.seed;
    if (p.faults[0] != '\0') {
        spec.faults = sim::FaultSpec::parse(p.faults);
        spec.faults.seed = p.seed;
        spec.timeLimit = 500 * kMs;
    }
    const RunResult res = runExperiment(cfg, spec);
    char fp[32];
    std::snprintf(fp, sizeof fp, "%016" PRIx64, res.fingerprint);
    return fp;
}

} // namespace

// altocsim --design AC_int --cores 256 --groups 16 --period 10
//          --rate 300 --seed 3
TEST(PinnedFingerprints, AcIntSixteenGroupsCoalescing)
{
    EXPECT_EQ(pinnedFingerprint({Design::AcInt, 256, 16, 10, 300.0, 3, "",
                                 true}),
              "ff86c2b7c76a8f37");
}

// altocsim --design AC_int --cores 64 --groups 8 --period 20 --rate 50
//          --seed 5 --fault-spec drop=0.05,dup=0.03,delay=0.2:300,
//          stall=1@5000+3000,killm=2@20000
TEST(PinnedFingerprints, AcIntFaultedManagerKill)
{
    EXPECT_EQ(pinnedFingerprint(
                  {Design::AcInt, 64, 8, 20, 50.0, 5,
                   "drop=0.05,dup=0.03,delay=0.2:300,stall=1@5000+3000,"
                   "killm=2@20000",
                   true}),
              "6869bf003b678f3f");
}

// altocsim --design AC_rss --cores 64 --groups 8 --period 50 --rate 40
//          --seed 6 --fault-spec drop=0.02,exhaust=0.1:2000,
//          killm=3@20000,killm=5@40000,stallp=0.05:5000
TEST(PinnedFingerprints, AcRssFaultedTwoManagerKills)
{
    EXPECT_EQ(pinnedFingerprint(
                  {Design::AcRss, 64, 8, 50, 40.0, 6,
                   "drop=0.02,exhaust=0.1:2000,killm=3@20000,"
                   "killm=5@40000,stallp=0.05:5000",
                   true}),
              "5f823b63b9e768b7");
}

// altocsim --design AC_int --cores 16 --groups 2 --rate 11
//          --seed 3 --fault-spec kill=3@20000
// Worker core 3 fail-stops at 20 us, so group 0's runtime switches
// from the threshold model of 7 workers to one of its 6 survivors.
TEST(PinnedFingerprints, AcIntWorkerKillShrinksModel)
{
    EXPECT_EQ(pinnedFingerprint({Design::AcInt, 16, 2, 200, 11.0, 3,
                                 "kill=3@20000", true}),
              "5187fbdfd139b446");
}

// Software (shared-cache) messaging: UPDATEs take hw::kSwUpdateNs,
// three times the period, and book no NoC links.
TEST(PinnedFingerprints, AcIntSoftwareMessaging)
{
    EXPECT_EQ(pinnedFingerprint({Design::AcInt, 64, 8, 50, 40.0, 7, "",
                                 false}),
              "aa68bd5d16884449");
}

// Four 16-core servers behind a round-robin ToR, 32 MRPS in total.
// Each server draws from its own fault stream, and the ToR's
// deliveries land in the servers' kernel regions (sim/kernel.hh).
TEST(PinnedFingerprints, RackRrAcIntDropDupDelay)
{
    EXPECT_EQ(pinnedFingerprint({Design::AcInt, 16, 2, 200, 32.0, 11,
                                 "drop=0.02,dup=0.02,delay=0.1:300", true,
                                 4, TorPolicy::RoundRobin}),
              "955824342599c310");
}

// RSS and Shinjuku pay a dispatch handoff before a slice starts, so a
// straggle or freeze fault can name a tick ahead of the clock it is
// injected at; the fingerprint folds it in at injection.
TEST(PinnedFingerprints, RackRrRssStraggleFreeze)
{
    EXPECT_EQ(pinnedFingerprint({Design::Rss, 16, 2, 200, 32.0, 12,
                                 "straggle=0.05:3,freeze=0.02:500", true,
                                 4, TorPolicy::RoundRobin}),
              "261060f8acd1aae2");
}

TEST(PinnedFingerprints, RackRrShinjukuStraggleFreeze)
{
    EXPECT_EQ(pinnedFingerprint({Design::Shinjuku, 16, 2, 200, 32.0, 13,
                                 "straggle=0.05:3,freeze=0.02:500", true,
                                 4, TorPolicy::RoundRobin}),
              "e318c9d2bb844b1a");
}

// Core 3 of server 2 fail-stops at 100 us, under 1% message drop.
TEST(PinnedFingerprints, RackRrAcIntScopedKill)
{
    EXPECT_EQ(pinnedFingerprint({Design::AcInt, 16, 2, 200, 32.0, 14,
                                 "S2.kill=3@100000,drop=0.01", true, 4,
                                 TorPolicy::RoundRobin}),
              "01d421a595c118e4");
}

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
