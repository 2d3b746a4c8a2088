/**
 * @file
 * Fig. 14: MICA end-to-end with the nanoRPC-class stack on 64 cores
 * under real-world traffic: p99 latency (log-scale in the paper) and
 * SLO-violation ratio vs throughput for Nebula, AC_rss-ISA and
 * AC_rss-MSR.
 *
 * Scale note (see EXPERIMENTS.md): the paper plots up to 700 MRPS,
 * which is incompatible with its own 28 MRPS-per-manager hand-off
 * ceiling (70 cycles @ 2 GHz, Sec. VIII-B) for a 4-manager system.
 * We keep the ceiling, so our AC_rss saturates around 4 x 28 MRPS;
 * the *relationships* -- Nebula's tail collapsing from SCAN
 * head-of-line blocking while AC degrades gracefully, and the MSR
 * interface costing ~9% of ISA's peak -- are the reproduction
 * target.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "system/mica_run.hh"

using namespace altoc;
using namespace altoc::system;

namespace {

MicaRunConfig
configFor(Design design, core::Interface iface, double rate)
{
    MicaRunConfig cfg;
    cfg.design.design = design;
    cfg.design.cores = 64;
    cfg.design.groups = 4; // the paper's 4-manager configuration
    cfg.design.lineRateGbps = 1600.0;
    cfg.design.params.iface = iface;
    // A 200 ns control loop over ~100-cycle rdmsr/wrmsr would starve
    // the manager; the MSR configuration runs a saner 1 us period.
    cfg.design.params.period =
        iface == core::Interface::Msr ? 1000 : 200;
    cfg.design.params.bulk = 16;
    cfg.design.params.concurrency = 4;
    cfg.workload.rateMrps = rate;
    cfg.workload.requests = 200000;
    cfg.workload.realWorldArrivals = true;
    // SLO: 5 us p99 (10x the ~70 ns mean leaves no room for the
    // PCIe hop AC_rss pays; 5 us keeps all designs comparable).
    cfg.workload.sloAbsolute = 5 * kUs;
    cfg.store.keysPerPartition = 20000;
    cfg.store.buckets = 1 << 15;
    cfg.store.logBytes = 32u << 20;
    // SCANs walk 160 entries (~4 us): the only SCAN scale compatible
    // with the paper's 700 MRPS x-axis on 64 cores (see
    // EXPERIMENTS.md). Mean service ~= 70 ns.
    cfg.store.scanEntries = 160;
    cfg.workload.seed = 91;
    return cfg;
}

} // namespace

int
main()
{
    bench::banner("Fig. 14",
                  "MICA end-to-end, 64 cores, nanoRPC-class stack, "
                  "real-world traffic (99.5% GET/SET ~50ns, 0.5% "
                  "SCAN ~4us)");
    bench::Stopwatch watch;

    const std::vector<double> rates{10, 20, 25, 30, 35, 40,
                                    50, 75, 100, 150, 190};

    struct Series
    {
        const char *label;
        Design design;
        core::Interface iface;
    };
    const Series series[] = {
        {"Nebula", Design::Nebula, core::Interface::Isa},
        {"AC_int", Design::AcInt, core::Interface::Isa},
        {"AC_rss-ISA", Design::AcRss, core::Interface::Isa},
        {"AC_rss-MSR", Design::AcRss, core::Interface::Msr},
    };

    bench::section("(a) p99 latency (us) vs offered MRPS");
    std::printf("%-12s", "design");
    for (double r : rates)
        std::printf(" %8.0f", r);
    std::printf("\n");

    std::vector<std::vector<MicaRunResult>> all;
    for (const Series &s : series) {
        std::printf("%-12s", s.label);
        std::fflush(stdout);
        std::vector<MicaRunResult> row;
        for (double r : rates) {
            row.push_back(
                runMicaExperiment(configFor(s.design, s.iface, r)));
            std::printf(" %8.2f", row.back().run.latency.p99 / 1e3);
            std::fflush(stdout);
        }
        all.push_back(std::move(row));
    }

    bench::section("(b) SLO-violation ratio vs offered MRPS");
    std::printf("%-12s", "design");
    for (double r : rates)
        std::printf(" %8.0f", r);
    std::printf("\n");
    for (std::size_t i = 0; i < all.size(); ++i) {
        std::printf("%-12s", series[i].label);
        for (const auto &res : all[i])
            std::printf(" %8.4f", res.run.violationRatio);
        std::printf("\n");
    }

    bench::section("max throughput with p99 <= 5 us");
    double isa_best = 0, msr_best = 0, neb_best = 0, int_best = 0;
    for (std::size_t i = 0; i < all.size(); ++i) {
        double best = 0;
        for (std::size_t j = 0; j < rates.size(); ++j) {
            if (all[i][j].run.latency.p99 <= 5 * kUs)
                best = rates[j];
        }
        std::printf("%-12s %8.0f MRPS\n", series[i].label, best);
        if (i == 0)
            neb_best = best;
        if (i == 1)
            int_best = best;
        if (i == 2)
            isa_best = best;
        if (i == 3)
            msr_best = best;
    }
    if (neb_best > 0) {
        std::printf("\nAC_int / Nebula     = %.2fx (paper's AC-vs-"
                    "Nebula claim: 2.5x; see EXPERIMENTS.md)\n",
                    int_best / neb_best);
        std::printf("AC_rss-ISA / Nebula = %.2fx (bounded by the 70-"
                    "cycle manager hand-off, Sec. VIII-B)\n",
                    isa_best / neb_best);
    }
    if (isa_best > 0)
        std::printf("AC_rss-MSR / AC_rss-ISA = %.0f%% (paper: 91%%)\n",
                    100.0 * msr_best / isa_best);

    watch.report();
    return 0;
}
