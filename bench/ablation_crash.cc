/**
 * @file
 * Ablation: scheduling under fail-stop core and manager crashes.
 *
 * Where ablation_faults stresses the *messaging* assumptions (lossy
 * VN, stalled managers), this bench breaks the *liveness* assumption:
 * cores and managers fail-stop mid-run and never come back. A ladder
 * of crash intensities -- one scripted worker death, a manager death
 * (AC designs fail the whole group over to a successor), and
 * windowed crash storms at increasing per-window kill probability --
 * runs against a flat design (RSS), a stealing design (ZygOS) and
 * both AC designs. Every orphaned descriptor is rescued to a live
 * peer and every arrival the shrunk machine cannot absorb is shed at
 * admission, so the conservation identity
 *
 *     completed + shed == issued
 *
 * holds under any kill spec once the surviving cores drain.
 *
 * Pass --fault-spec (or set ALTOC_FAULTS) to run one custom schedule
 * instead of the built-in ladder.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "sim/fault_spec.hh"
#include "system/parallel_run.hh"
#include "workload/distributions.hh"

using namespace altoc;
using namespace altoc::system;

namespace {

struct Scenario
{
    const char *label;
    std::string spec;
};

std::vector<Scenario>
ladder(const bench::Options &opt)
{
    if (!opt.faultSpec.empty())
        return {{"custom", opt.faultSpec}};
    return {
        {"none", ""},
        // One worker dies early: its backlog and in-flight request
        // are rescued, the machine sheds nothing it can still absorb.
        {"worker", "kill=3@200000"},
        // One manager dies: AC designs fail group 1 over to its
        // successor (flat designs kill nothing -- they have no
        // managers, so the spec is a no-op for them).
        {"manager", "killm=1@200000"},
        // Windowed crash storms: per 1 ms window each live worker
        // fail-stops with the given probability. The reaper spares
        // the last live worker, so the machine degrades instead of
        // bricking.
        {"storm-lo", "killp=0.02:1000000"},
        {"storm-hi", "killp=0.1:1000000"},
    };
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Options opt = bench::parseArgs(argc, argv);
    bench::banner("Ablation",
                  "fail-stop crashes: worker death, manager failover "
                  "and crash storms across four designs");
    bench::Stopwatch watch;
    bench::SweepDigest digest;

    const std::vector<Scenario> scenarios = ladder(opt);
    const std::vector<Design> designs{Design::Rss, Design::ZygOs,
                                      Design::AcInt, Design::AcRss};

    std::vector<RunJob> batch;
    for (const Scenario &sc : scenarios) {
        for (Design d : designs) {
            DesignConfig cfg;
            cfg.design = d;
            cfg.cores = 16;
            cfg.groups = 4;
            // Declare unresponsive peers dead within a few probes;
            // the runs are only tens of milliseconds long.
            cfg.params.hardening.quarantineAfter = 2;
            cfg.params.hardening.probation = 100 * kUs;

            WorkloadSpec spec;
            spec.service = workload::makeFixed(1 * kUs);
            spec.rateMrps = 8.0;
            spec.requests = bench::scaled(100000, opt);
            spec.connections = 8;
            spec.sloAbsolute = 30 * kUs;
            spec.seed = 17;
            if (!sc.spec.empty())
                spec.faults = sim::FaultSpec::parse(sc.spec);
            // Crash runs shed; a shed request counts toward the stop
            // like a completion, so the run ends once every request
            // is accounted for. Arrivals end after ~13 ms; the
            // survivors' backlog drains well within this backstop.
            spec.timeLimit = 100 * kMs;
            spec.tracing = opt.tracing();
            if (!opt.traceFile.empty())
                spec.tracing.file = opt.traceFile + "." +
                                    std::to_string(batch.size());
            batch.push_back(RunJob{cfg, spec});
        }
    }
    const std::vector<RunResult> results = runMany(batch, opt.jobs);
    digest.addAll(results);
    if (opt.trace) {
        std::uint64_t recorded = 0;
        std::uint64_t dropped = 0;
        for (const RunResult &res : results) {
            recorded += res.traceRecords;
            dropped += res.traceDropped;
        }
        std::printf("\n[trace: %llu records (%llu dropped) across "
                    "%zu runs%s%s]\n",
                    static_cast<unsigned long long>(recorded),
                    static_cast<unsigned long long>(dropped),
                    results.size(),
                    opt.traceFile.empty() ? "" : " -> ",
                    opt.traceFile.empty() ? ""
                                          : opt.traceFile.c_str());
    }

    std::printf("\n%-10s %-8s %8s %10s %10s %7s %9s %9s %9s\n",
                "crashes", "design", "MRPS", "p99 (us)", "completed",
                "killed", "rescued", "failover", "shed");
    std::size_t idx = 0;
    for (const Scenario &sc : scenarios) {
        for (Design d : designs) {
            const RunResult &res = results[idx++];
            std::printf("%-10s %-8s %8.2f %10.2f %10llu %7llu %9llu "
                        "%9llu %9llu\n",
                        sc.label, designName(d), res.achievedMrps,
                        res.latency.p99 / 1e3,
                        static_cast<unsigned long long>(res.completed),
                        static_cast<unsigned long long>(res.coresKilled),
                        static_cast<unsigned long long>(
                            res.requestsRescued),
                        static_cast<unsigned long long>(
                            res.managersFailedOver),
                        static_cast<unsigned long long>(
                            res.requestsShed));
        }
    }

    std::printf("\nExpectation: completed + shed == issued on every "
                "row (no descriptor is ever lost -- orphans are "
                "rescued to live peers and unabsorbable arrivals are "
                "shed at admission). Throughput degrades roughly with "
                "the surviving core count; the 'manager' row shows AC "
                "groups adopting a dead manager's queue. Flat designs "
                "kill nothing on that row: they have no managers.\n");
    digest.print();
    watch.report();
    return 0;
}
