/**
 * @file
 * Server and experiment-driver tests.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

#include "system/rack.hh"
#include "workload/distributions.hh"

using namespace altoc;
using namespace altoc::system;

TEST(Server, LatencyIncludesNicAndResponsePath)
{
    // One request on an idle PCIe system: latency must include RX
    // PCIe + service + response hand-off, so it clearly exceeds the
    // raw service time.
    DesignConfig cfg;
    cfg.design = Design::Rss;
    cfg.cores = 2;
    WorkloadSpec spec;
    spec.service = workload::makeFixed(1000);
    spec.rateMrps = 0.001;
    spec.requests = 10;
    spec.warmupFraction = 0.0;
    const RunResult res = runExperiment(cfg, spec);
    EXPECT_EQ(res.completed, 10u);
    EXPECT_GT(res.latency.p50, 1000u + 2 * lat::kPcieMin);
}

TEST(Server, IntegratedNicIsFaster)
{
    WorkloadSpec spec;
    spec.service = workload::makeFixed(1000);
    spec.rateMrps = 0.001;
    spec.requests = 10;
    spec.warmupFraction = 0.0;

    DesignConfig pcie;
    pcie.design = Design::Rss;
    pcie.cores = 2;
    DesignConfig integ;
    integ.design = Design::Nebula;
    integ.cores = 2;

    const RunResult slow = runExperiment(pcie, spec);
    const RunResult fast = runExperiment(integ, spec);
    EXPECT_LT(fast.latency.p50, slow.latency.p50);
}

TEST(Server, WarmupExcludesEarlySamples)
{
    DesignConfig cfg;
    cfg.design = Design::Rss;
    cfg.cores = 4;
    WorkloadSpec spec;
    spec.service = workload::makeFixed(500);
    spec.rateMrps = 1.0;
    spec.requests = 1000;
    spec.warmupFraction = 0.5;
    const RunResult res = runExperiment(cfg, spec);
    EXPECT_EQ(res.completed, 1000u);
    // Tracker only saw the post-warmup half.
    EXPECT_LE(res.latency.count, 500u);
    EXPECT_GE(res.latency.count, 450u);
}

TEST(Server, PerRequestCaptureCoversAllRequests)
{
    DesignConfig cfg;
    cfg.design = Design::Nebula;
    cfg.cores = 4;
    WorkloadSpec spec;
    spec.service = workload::makeFixed(500);
    spec.rateMrps = 2.0;
    spec.requests = 2000;
    spec.capturePerRequest = true;
    const RunResult res = runExperiment(cfg, spec);
    ASSERT_EQ(res.perRequest.size(), 2000u);
    std::vector<bool> seen(2000, false);
    for (const auto &o : res.perRequest) {
        ASSERT_LT(o.id, 2000u);
        EXPECT_FALSE(seen[o.id]) << "duplicate completion";
        seen[o.id] = true;
        EXPECT_GT(o.latency, 0u);
    }
}

TEST(Server, TraceReplayIsExactlyReproducible)
{
    auto dist = workload::makePaperBimodal();
    auto arrivals = workload::makePoisson(0.002);
    const workload::Trace trace = workload::Trace::generate(
        *dist, *arrivals, 3000, 64, 300, Rng(17));

    DesignConfig cfg;
    cfg.design = Design::Nebula;
    cfg.cores = 8;
    WorkloadSpec spec;
    spec.trace = &trace;
    spec.capturePerRequest = true;
    spec.sloAbsolute = 300 * kUs;

    const RunResult a = runExperiment(cfg, spec);
    const RunResult b = runExperiment(cfg, spec);
    ASSERT_EQ(a.perRequest.size(), b.perRequest.size());
    for (std::size_t i = 0; i < a.perRequest.size(); ++i) {
        EXPECT_EQ(a.perRequest[i].id, b.perRequest[i].id);
        EXPECT_EQ(a.perRequest[i].latency, b.perRequest[i].latency);
    }
}

TEST(Server, TraceReplayRespectsArrivalTimes)
{
    std::vector<workload::TraceRecord> recs;
    for (int i = 0; i < 5; ++i) {
        workload::TraceRecord rec;
        rec.arrival = 1000 * (i + 1);
        rec.service = 100;
        rec.sizeBytes = 64;
        recs.push_back(rec);
    }
    const workload::Trace trace{std::move(recs)};

    DesignConfig cfg;
    cfg.design = Design::Nebula;
    cfg.cores = 2;
    WorkloadSpec spec;
    spec.trace = &trace;
    spec.warmupFraction = 0.0;
    const RunResult res = runExperiment(cfg, spec);
    EXPECT_EQ(res.completed, 5u);
    // Offered rate derived from the trace span.
    EXPECT_NEAR(res.offeredMrps, 1.0, 0.05);
}

TEST(Server, SloAbsoluteOverridesFactor)
{
    DesignConfig cfg;
    cfg.design = Design::Rss;
    cfg.cores = 4;
    WorkloadSpec spec;
    spec.service = workload::makeFixed(1000);
    spec.rateMrps = 1.0;
    spec.requests = 100;
    spec.sloAbsolute = 123456;
    const RunResult res = runExperiment(cfg, spec);
    EXPECT_EQ(res.sloTarget, 123456u);
}

TEST(Server, DumpStatsWritesEveryComponent)
{
    DesignConfig cfg;
    cfg.design = Design::Nebula;
    cfg.cores = 4;
    WorkloadSpec spec;
    spec.service = workload::makeFixed(500);
    spec.rateMrps = 1.0;
    spec.requests = 100;
    spec.sloAbsolute = 10 * kUs;
    spec.warmupFraction = 0.0;
    Rack rack(cfg, spec);
    rack.stopAfterCompletions(100);
    LoadGenerator gen(rack, spec);
    gen.start();
    rack.run();

    const char *path = "/tmp/altoc_stats_test.txt";
    std::FILE *f = std::fopen(path, "w");
    ASSERT_NE(f, nullptr);
    rack.server(0).dumpStats(f);
    std::fclose(f);

    std::FILE *in = std::fopen(path, "r");
    ASSERT_NE(in, nullptr);
    std::string contents;
    char buf[256];
    while (std::fgets(buf, sizeof buf, in) != nullptr)
        contents += buf;
    std::fclose(in);
    std::remove(path);

    for (const char *key :
         {"sim.finalTick", "nic.received", "noc.messages",
          "server.completed", "latency.p99Ns", "slo.violationRatio",
          "core00.busyNs", "core03.busyNs", "sched.queue00.length"}) {
        EXPECT_NE(contents.find(key), std::string::npos) << key;
    }
    EXPECT_NE(contents.find("100"), std::string::npos);
}

namespace {

/** The (name, value) lines of @p rack's stats dump. */
std::map<std::string, double>
readDump(const Rack &rack)
{
    std::FILE *f = std::tmpfile();
    EXPECT_NE(f, nullptr);
    std::map<std::string, double> kv;
    if (f == nullptr)
        return kv;
    rack.dumpStats(f);
    std::rewind(f);
    char line[256];
    char name[128];
    double value = 0.0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::sscanf(line, "%127s %lf", name, &value) == 2)
            kv[name] = value;
    }
    std::fclose(f);
    return kv;
}

} // namespace

/** Counters of a million or more print every digit: a ~1.25 ms run
 *  ends past tick 10^6, and the dump reads back the exact tick. */
TEST(Server, DumpStatsPrintsCountersExactly)
{
    for (unsigned servers : {1u, 2u}) {
        DesignConfig cfg;
        cfg.design = Design::Rss;
        cfg.cores = 4;
        cfg.rack.servers = servers;
        WorkloadSpec spec;
        spec.service = workload::makeFixed(500);
        spec.rateMrps = 4.0;
        spec.requests = 5000;
        spec.seed = 3;
        Rack rack(cfg, spec);
        rack.stopAfterCompletions(spec.requests);
        LoadGenerator gen(rack, spec);
        gen.start();
        rack.run();

        const Tick end = rack.kernel().now();
        ASSERT_GT(end, 1000000u);
        const std::map<std::string, double> kv = readDump(rack);
        // Every value below 2^53 reads back exactly as a double.
        auto read = [&kv](const std::string &name) {
            return static_cast<std::uint64_t>(kv.at(name));
        };
        const std::string prefix = servers == 1 ? "" : "server0.";
        ASSERT_EQ(kv.count(prefix + "sim.finalTick"), 1u) << servers;
        EXPECT_EQ(read(prefix + "sim.finalTick"), end) << servers;
        EXPECT_EQ(read(prefix + "server.completed"),
                  rack.server(0).completed())
            << servers;
        if (servers > 1) {
            EXPECT_EQ(read("rack.finalTick"), end);
            EXPECT_EQ(read("rack.eventsExecuted"),
                      rack.kernel().eventsExecuted());
        }
    }
}

TEST(Server, DesignNamesRoundTrip)
{
    EXPECT_STREQ(designName(Design::Rss), "RSS");
    EXPECT_STREQ(designName(Design::Nebula), "Nebula");
    EXPECT_STREQ(designName(Design::AcRss), "AC_rss");
    EXPECT_STREQ(designName(Design::AcInt), "AC_int");
}

TEST(Server, SchedulerNamesMatchVariants)
{
    DesignConfig cfg;
    cfg.design = Design::AcRss;
    cfg.cores = 16;
    cfg.groups = 2;
    auto s = makeScheduler(cfg, 1000, "Fixed");
    EXPECT_EQ(s->name(), "AC_rss");
    cfg.params.iface = core::Interface::Msr;
    auto s2 = makeScheduler(cfg, 1000, "Fixed");
    EXPECT_EQ(s2->name(), "AC_rss-MSR");
    cfg.params.iface = core::Interface::Isa;
    cfg.params.migrationEnabled = false;
    auto s3 = makeScheduler(cfg, 1000, "Fixed");
    EXPECT_EQ(s3->name(), "AC_rss-nomig");
}

TEST(Server, NicConfigMatchesDesign)
{
    DesignConfig cfg;
    cfg.design = Design::Nebula;
    EXPECT_EQ(nicConfigFor(cfg).attach, net::NicAttach::Integrated);
    EXPECT_EQ(nicConfigFor(cfg).steering, net::Steering::Central);
    cfg.design = Design::AcRss;
    EXPECT_EQ(nicConfigFor(cfg).attach, net::NicAttach::Pcie);
    EXPECT_EQ(nicConfigFor(cfg).steering, net::Steering::Rss);
    cfg.steering = net::Steering::RoundRobin;
    EXPECT_EQ(nicConfigFor(cfg).steering, net::Steering::RoundRobin);
}
