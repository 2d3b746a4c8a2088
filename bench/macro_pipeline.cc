/**
 * @file
 * Macro perf harness: whole-pipeline requests-simulated-per-second.
 *
 * Each benchmark iteration runs one complete runExperiment() —
 * NIC receive, steering, scheduler queues, core execution, the
 * ALTOCUMULUS runtime tick with migrations for the AC designs, and
 * completion accounting — and reports items_per_second where one
 * item is one completed simulated request. This is the number the
 * descriptor-path work optimizes: how many RPCs the simulator can
 * push through its own hot loop per wall-clock second.
 *
 * The checked-in baseline is BENCH_macro.json (compared by
 * scripts/bench_compare.py, same workflow as BENCH_kernel.json).
 * Run with --json=FILE to regenerate.
 *
 * The workload is the Fig. 10 figure-scale mix — Bimodal(0.5%,
 * 0.5us, 50us) on 16 cores at 10 MRPS (~47% load) — stable for
 * every design yet deep enough that queues, preemption (Shinjuku)
 * and inter-group migration (AC) all stay exercised. Every
 * iteration must reproduce the first one's run fingerprint, or the
 * benchmark fails with an error, so a determinism break shows up
 * here and not just in the golden suite. The fingerprint_fold
 * counter reports that fingerprint's low 32 bits, which do not
 * depend on how many iterations google-benchmark chose.
 */

#include <benchmark/benchmark.h>

#include "bench_util.hh"
#include "system/experiment.hh"
#include "workload/distributions.hh"

using namespace altoc;
using namespace altoc::system;

namespace {

constexpr std::uint64_t kRequests = 40000;

WorkloadSpec
macroSpec()
{
    WorkloadSpec spec;
    spec.service =
        std::make_shared<workload::BimodalDist>(0.005, 500, 50 * kUs);
    spec.rateMrps = 10.0;
    spec.requests = kRequests;
    spec.sloAbsolute = 300 * kUs;
    spec.seed = 10;
    return spec;
}

DesignConfig
macroConfig(Design d, unsigned groups)
{
    DesignConfig cfg;
    cfg.design = d;
    cfg.cores = 16;
    cfg.groups = groups;
    return cfg;
}

void
runMacroCfg(benchmark::State &state, const DesignConfig &cfg)
{
    const WorkloadSpec spec = macroSpec();
    std::uint64_t completed = 0;
    std::uint64_t fingerprint = 0;
    bool first = true;
    for (auto _ : state) {
        const RunResult res = runExperiment(cfg, spec);
        completed += res.completed;
        if (first) {
            fingerprint = res.fingerprint;
            first = false;
        } else if (res.fingerprint != fingerprint) {
            state.SkipWithError("run fingerprint differs between "
                                "iterations");
            break;
        }
        benchmark::DoNotOptimize(res.completed);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(completed));
    state.counters["fingerprint_fold"] =
        static_cast<double>(fingerprint & 0xffffffffu);
}

void
runMacro(benchmark::State &state, Design d, unsigned groups)
{
    runMacroCfg(state, macroConfig(d, groups));
}

void
BM_MacroRss(benchmark::State &state)
{
    runMacro(state, Design::Rss, 2);
}
BENCHMARK(BM_MacroRss)->Unit(benchmark::kMillisecond);

void
BM_MacroShinjuku(benchmark::State &state)
{
    runMacro(state, Design::Shinjuku, 2);
}
BENCHMARK(BM_MacroShinjuku)->Unit(benchmark::kMillisecond);

void
BM_MacroAcInt(benchmark::State &state)
{
    runMacro(state, Design::AcInt, 2);
}
BENCHMARK(BM_MacroAcInt)->Unit(benchmark::kMillisecond);

void
BM_MacroAcRss(benchmark::State &state)
{
    runMacro(state, Design::AcRss, 2);
}
BENCHMARK(BM_MacroAcRss)->Unit(benchmark::kMillisecond);

// The federated path: the same AC_int servers, four of them behind
// a power-of-2-choices ToR in one shared event kernel. Items are
// rack-wide completions, so the counter exposes the per-request cost
// the topology layer adds (ToR decision + link event + flattened
// accounting) on top of BM_MacroAcInt.
void
BM_MacroRack4(benchmark::State &state)
{
    DesignConfig cfg = macroConfig(Design::AcInt, 2);
    cfg.rack.servers = 4;
    runMacroCfg(state, cfg);
}
BENCHMARK(BM_MacroRack4)->Unit(benchmark::kMillisecond);

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
