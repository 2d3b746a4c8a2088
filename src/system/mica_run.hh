/**
 * @file
 * End-to-end MICA experiments (Sec. IX): a partitioned MICA store and
 * its RPC handlers behind any scheduler design. runMicaExperiment is
 * an adapter over runExperiment: it builds the store, fills the
 * workload's service mix and its decorate/resolve hooks, runs the
 * experiment on a rack of one, and adds the handler's counters.
 */

#ifndef ALTOC_SYSTEM_MICA_RUN_HH
#define ALTOC_SYSTEM_MICA_RUN_HH

#include "mica/handlers.hh"
#include "mica/kvs.hh"
#include "system/experiment.hh"

namespace altoc::system {

/** Configuration of one MICA end-to-end run. */
struct MicaRunConfig
{
    /** The server; MICA runs on a rack of one (rack.servers == 1). */
    DesignConfig design;

    /**
     * Arrivals, request count, SLO, warmup, connections, capture and
     * seed. The runner fills service, decorate and resolve; few
     * connections -> lumpy per-group load under RSS steering.
     */
    WorkloadSpec workload;

    /** SCAN fraction in the query mix (Sec. IX-D: 0.5%). */
    double scanFrac = 0.005;

    /** Zipf key-popularity skew; 0 keeps uniform sampling. Hot keys
     *  concentrate load on their EREW owner groups. */
    double keySkew = 0.0;

    /** EREW (paper default) vs CREW write semantics. */
    mica::ConcurrencyMode mode = mica::ConcurrencyMode::Erew;

    /** Store geometry; partitions are overridden to match the
     *  design's group count (EREW: one partition per manager). */
    mica::MicaStore::Config store;
};

/** Extra MICA-side counters reported next to the run metrics. */
struct MicaRunResult
{
    RunResult run;
    std::uint64_t gets = 0;
    std::uint64_t sets = 0;
    std::uint64_t scans = 0;
    std::uint64_t misses = 0;
    std::uint64_t remoteExecutions = 0;
};

/** Execute one MICA experiment end to end. */
MicaRunResult runMicaExperiment(const MicaRunConfig &cfg);

} // namespace altoc::system

#endif // ALTOC_SYSTEM_MICA_RUN_HH
