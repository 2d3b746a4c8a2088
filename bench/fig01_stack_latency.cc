/**
 * @file
 * Fig. 1: on-CPU latency for different RPC stacks, split into RPC
 * stack *processing* (network protocol + (de)serialization) and RPC
 * *scheduling* (mapping the handler to a core).
 *
 * Stack processing times are the published constants the paper's
 * figure cites (TCP/IP ~ tens of us, eRPC 850 ns [27], nanoRPC
 * ~40 ns [23]); the scheduling component is *measured* in our
 * simulator as the queueing + dispatch time of a 300 B request on a
 * 16-core server at moderate load under the scheduler class each
 * stack historically pairs with (kernel TCP/IP -> d-FCFS + stealing,
 * eRPC -> user-level d-FCFS, nanoRPC -> hardware JBSQ).
 */

#include <cstdio>

#include "bench_util.hh"
#include "system/rack.hh"
#include "workload/distributions.hh"

using namespace altoc;
using namespace altoc::system;

namespace {

struct StackRow
{
    const char *name;
    Tick processingNs; //!< published stack processing time
    Design sched;      //!< scheduler class paired with the stack
    double loadFrac;   //!< offered fraction of capacity
};

/** Measure median scheduling time: server-side latency minus the
 *  handler's service time and the fixed NIC transit. */
Tick
measuredSchedulingNs(Design design, double load_frac, Tick service)
{
    DesignConfig cfg;
    cfg.design = design;
    cfg.cores = 16;
    cfg.groups = 2;
    // The NIC must not be the bottleneck when the stack is fast
    // enough to push hundreds of MRPS (nanoRPC's regime).
    cfg.lineRateGbps = 1600.0;

    WorkloadSpec spec;
    spec.service = workload::makeFixed(service);
    spec.rateMrps = load_frac * 16.0 /
                    (static_cast<double>(service) / 1000.0);
    spec.requests = 100000;
    spec.requestBytes = 300;
    spec.seed = 3;

    const RunResult res = runExperiment(cfg, spec);

    // NIC transit both ways is part of the stack, not scheduling.
    Rack rack(cfg, spec);
    net::Nic &nic_model = rack.server(0).nic();
    const Tick nic = nic_model.deliveryLatency(300) +
                     nic_model.responseLatency(64);
    const Tick p50 = res.latency.p50;
    return p50 > service + nic ? p50 - service - nic : 0;
}

} // namespace

int
main()
{
    bench::banner("Fig. 1",
                  "On-CPU latency for different RPC stacks (300 B "
                  "request, processing vs scheduling)");
    bench::Stopwatch watch;

    // Published stack-processing constants (see header comment).
    const StackRow rows[] = {
        {"TCP/IP", 15 * kUs, Design::ZygOs, 0.6},
        {"eRPC", 850, Design::Ix, 0.6},
        {"nanoRPC", 40, Design::Nebula, 0.6},
    };

    std::printf("\n%-10s %16s %16s %16s\n", "stack", "processing(us)",
                "scheduling(us)", "total(us)");
    for (const StackRow &row : rows) {
        // Service time on the core == the stack's processing time
        // (the handler itself is tiny for 300 B echo-style RPCs).
        const Tick sched =
            measuredSchedulingNs(row.sched, row.loadFrac,
                                 std::max<Tick>(row.processingNs, 40));
        std::printf("%-10s %16.2f %16.2f %16.2f\n", row.name,
                    row.processingNs / 1e3, sched / 1e3,
                    (row.processingNs + sched) / 1e3);
    }

    std::printf("\nShape check (paper): processing dominates for "
                "TCP/IP; after eRPC/nanoRPC shrink processing, "
                "scheduling becomes the bottleneck.\n");
    watch.report();
    return 0;
}
