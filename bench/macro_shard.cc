/**
 * @file
 * Sharded-kernel macro bench: one large-topology run, serial vs
 * parallel windows.
 *
 * BM_MacroShard/N runs a single 256-core federation -- 4 AC_int
 * servers x 64 cores behind a round-robin ToR (the load-oblivious
 * policy the sharded kernel supports) -- on N kernel shards, and
 * reports items_per_second where one item is one completed simulated
 * request. Every N produces bit-identical results (the fingerprint
 * fold pins that inside the bench itself); the per-shard counters
 * differ only in wall clock, so the /1 vs /N ratio *is* the sharded
 * executor's speedup on this topology. On a 4-vCPU VM /2 ran about
 * 1.4x faster than /1 and /4 no faster at all (README, "Sharded
 * execution", has the measurements); on a single-core runner the
 * windows still execute (parallel_windows counter > 0) but cost
 * more than they save.
 *
 * The checked-in baseline is BENCH_shard.json (compared warn-only by
 * scripts/bench_compare.py in the perf-smoke job). Regenerate with
 * --json=FILE.
 */

#include <benchmark/benchmark.h>

#include "bench_util.hh"
#include "system/rack.hh"
#include "workload/distributions.hh"

using namespace altoc;
using namespace altoc::system;

namespace {

constexpr std::uint64_t kRequests = 60000;

/** Fig. 10's service mix, scaled to a 4 x 64-core rack: enough load
 *  (~47% per server) that every region's event queue stays deep and
 *  the windows have real work to parallelize. */
WorkloadSpec
shardSpec()
{
    WorkloadSpec spec;
    spec.service =
        std::make_shared<workload::BimodalDist>(0.005, 500, 50 * kUs);
    spec.rateMrps = 40.0;
    spec.requests = kRequests;
    spec.sloAbsolute = 300 * kUs;
    spec.seed = 10;
    return spec;
}

DesignConfig
shardConfig(unsigned shards)
{
    DesignConfig cfg;
    cfg.design = Design::AcInt;
    cfg.cores = 64;
    cfg.groups = 8;
    cfg.rack.servers = 4;
    cfg.rack.policy = TorPolicy::RoundRobin;
    cfg.shards = shards;
    return cfg;
}

void
BM_MacroShard(benchmark::State &state)
{
    const DesignConfig cfg =
        shardConfig(static_cast<unsigned>(state.range(0)));
    const WorkloadSpec spec = shardSpec();
    std::uint64_t completed = 0;
    std::uint64_t windows = 0;
    std::uint64_t fingerprint = 0;
    for (auto _ : state) {
        const RunResult res = runExperiment(cfg, spec);
        completed += res.completed;
        windows = res.parallelWindows;
        if (fingerprint != 0 && fingerprint != res.fingerprint) {
            state.SkipWithError("fingerprint changed across iterations");
            return;
        }
        fingerprint = res.fingerprint;
        benchmark::DoNotOptimize(res.completed);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(completed));
    // Every /N row must report the same value here: the run's
    // fingerprint does not depend on the shard count. A divergence
    // shows up as a changed user counter across rows.
    state.counters["fingerprint"] =
        static_cast<double>(fingerprint & 0xffffffffu);
    state.counters["parallel_windows"] = static_cast<double>(windows);
}
BENCHMARK(BM_MacroShard)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

} // namespace

int
main(int argc, char **argv)
{
    bench::JsonFlagArgs args(argc, argv);
    benchmark::Initialize(&args.argc(), args.argv());
    if (benchmark::ReportUnrecognizedArguments(args.argc(), args.argv()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
