/**
 * @file
 * Ablation: multi-tenant isolation (the paper's Sec. XI future
 * work). A latency-critical tenant (fixed 1 us RPCs at 6 MRPS) and a
 * bursty neighbor share 32 cores, two ways:
 *
 *  shared:    one ALTOCUMULUS instance over all 32 cores serves the
 *             combined traffic -- migrations chase the aggregate
 *             load, so the neighbor's bursts consume the quiet
 *             tenant's workers;
 *  isolated:  the cores are statically split 16 + 16, so the quiet
 *             tenant runs on a 16-core ALTOCUMULUS server of its own.
 *             Its slice shares no scheduler, queue or worker with the
 *             neighbor, so its run does not depend on the neighbor's
 *             load and runs once.
 *
 * The metric is the quiet tenant's p99 under an increasingly violent
 * neighbor.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "system/parallel_run.hh"
#include "workload/distributions.hh"

using namespace altoc;
using namespace altoc::system;

namespace {

constexpr double kQuietRate = 6.0;
std::uint64_t kQuietRequests = 120000; // scaled by --scale

/** One AC_int server of @p cores cores in @p groups groups. */
DesignConfig
acInt(unsigned cores, unsigned groups)
{
    DesignConfig cfg;
    cfg.design = Design::AcInt;
    cfg.cores = cores;
    cfg.groups = groups;
    return cfg;
}

/** The combined stream a shared scheduler serves: quiet fixed-1us
 *  traffic plus the neighbor's, as one bursty stream at their summed
 *  rate. With identical service demands the aggregate p99 is the
 *  quiet tenant's on shared cores. */
WorkloadSpec
sharedSpec(double noisy_rate)
{
    WorkloadSpec spec;
    spec.service = workload::makeFixed(1 * kUs);
    spec.rateMrps = kQuietRate + noisy_rate;
    spec.realWorldArrivals = true; // the shared stream inherits burstiness
    spec.requests =
        static_cast<std::uint64_t>(kQuietRequests *
                                   (kQuietRate + noisy_rate) /
                                   kQuietRate);
    spec.seed = 29;
    return spec;
}

/** The quiet tenant's own Poisson stream. */
WorkloadSpec
quietSpec()
{
    WorkloadSpec spec;
    spec.service = workload::makeFixed(1 * kUs);
    spec.rateMrps = kQuietRate;
    spec.requests = kQuietRequests;
    spec.seed = 29;
    return spec;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Options opt = bench::parseArgs(argc, argv);
    bench::banner("Ablation",
                  "Multi-tenant isolation: quiet tenant's p99 vs "
                  "noisy-neighbor load (32 cores total)");
    bench::Stopwatch watch;
    bench::SweepDigest digest;
    kQuietRequests = bench::scaled(kQuietRequests, opt);

    // One shared run per neighbor rate, then the isolated slice.
    const std::vector<double> noisyRates{4.0, 8.0, 12.0, 16.0, 20.0};
    std::vector<RunJob> batch;
    for (double noisy : noisyRates)
        batch.push_back(RunJob{acInt(32, 4), sharedSpec(noisy)});
    batch.push_back(RunJob{acInt(16, 2), quietSpec()});
    const std::vector<RunResult> results = runMany(batch, opt.jobs);
    digest.addAll(results);

    std::printf("\nquiet tenant: fixed 1 us RPCs at %.0f MRPS; noisy "
                "neighbor sweeps its offered load\n\n", kQuietRate);
    std::printf("%-14s %16s\n", "noisy (MRPS)", "shared p99 (us)");
    for (std::size_t i = 0; i < noisyRates.size(); ++i)
        std::printf("%-14.1f %16.2f\n", noisyRates[i],
                    results[i].latency.p99 / 1e3);
    const RunResult &isolated = results.back();
    std::printf("\nisolated 16-core slice, any neighbor load: p99 "
                "%.2f us (SLO %.2f us)\n",
                isolated.latency.p99 / 1e3, isolated.sloTarget / 1e3);

    std::printf("\nExpectation: the isolated quiet tenant meets its "
                "SLO whatever the neighbor offers, because no burst "
                "crosses the slice edge; the shared machine's tail "
                "inflates once combined bursts exceed capacity.\n");
    digest.print();
    watch.report();
    return 0;
}
