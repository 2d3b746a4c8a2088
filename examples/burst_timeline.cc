/**
 * @file
 * Burst timeline: watch ALTOCUMULUS absorb an arrival burst.
 *
 * A 32-core, 4-group system is driven by bursty MMPP traffic while a
 * sampler records each group's NetRX queue length every microsecond
 * (stats::TimeSeries). Two runs -- migration off, then on -- print
 * side-by-side timelines of the *max* group queue length, making the
 * Hill-pattern drain visible.
 */

#include <algorithm>
#include <cstdio>

#include "stats/timeseries.hh"
#include "system/rack.hh"
#include "workload/distributions.hh"

using namespace altoc;
using namespace altoc::system;

namespace {

constexpr Tick kWindow = 2 * kUs;
constexpr std::uint64_t kRequests = 80000;

stats::TimeSeries
sampleRun(bool migration)
{
    DesignConfig cfg;
    cfg.design = Design::AcInt;
    cfg.cores = 32;
    cfg.groups = 4;
    cfg.params.migrationEnabled = migration;

    WorkloadSpec spec;
    spec.service = workload::makeFixed(1 * kUs);
    spec.rateMrps = 18.0;
    spec.realWorldArrivals = true;
    spec.requests = kRequests;
    spec.connections = 6; // lumpy steering on top of the bursts
    spec.warmupFraction = 0.0;
    spec.seed = 7;

    Rack rack(cfg, spec);
    rack.stopAfterCompletions(kRequests);
    Server &server = rack.server(0);

    stats::TimeSeries series(kWindow);
    // Periodic sampler riding the simulation clock.
    std::function<void()> sample = [&] {
        const auto lens = server.scheduler().queueLengths();
        const std::size_t longest =
            *std::max_element(lens.begin(), lens.end());
        series.record(server.sim().now(),
                      static_cast<double>(longest));
        if (server.completed() < kRequests)
            server.sim().after(kWindow / 4, sample);
    };
    server.sim().after(kWindow / 4, sample);

    LoadGenerator gen(rack, spec);
    gen.start();
    rack.run();
    return series;
}

} // namespace

int
main()
{
    std::printf("Longest group queue over time (32 cores, 4 groups, "
                "bursty traffic at 18 MRPS)\n\n");

    const stats::TimeSeries off = sampleRun(false);
    const stats::TimeSeries on = sampleRun(true);

    std::printf("%-12s %18s %18s\n", "time (us)", "no migration",
                "with migration");
    const std::size_t n =
        std::min(off.windows().size(), on.windows().size());
    for (std::size_t i = 0; i < n; i += 4) {
        const auto &a = off.windows()[i];
        const auto &b = on.windows()[i];
        if (a.count == 0 && b.count == 0)
            continue;
        std::printf("%-12llu %18.0f %18.0f\n",
                    static_cast<unsigned long long>(a.start / kUs),
                    a.max, b.max);
    }

    std::printf("\npeak backlog: %.0f without migration vs %.0f "
                "with (the runtime drains Hills into the other "
                "groups as they form)\n",
                off.peak(), on.peak());
    return 0;
}
