/**
 * @file
 * Parallel experiment execution: fan a batch of independent
 * (DesignConfig, WorkloadSpec) runs across the host's cores and merge
 * the results back in submission order.
 *
 * Determinism contract: every run is fully determined by its (config,
 * spec) pair -- each builds a private Rack/Server/Rng world and
 * the kernel is thread-confined to whichever pool worker executes
 * it -- so a parallel batch returns a result vector bit-identical to
 * running the same jobs serially, for any job count. Verified by
 * tests/test_parallel_run.cc via RunResult::fingerprint.
 *
 * Topology flows through the pair untouched: every job builds its
 * private Rack (one multi-region kernel, DesignConfig::rack.servers
 * Server instances) inside the worker, so rack runs batch and
 * fingerprint-match exactly like single-server runs
 * (tests/test_rack.cc, RackDeterminism.ParallelBatchMatchesSerial).
 *
 * Threading rules for job code (see DESIGN.md "Parallel execution
 * engine"): a job may only touch its own Server and task-local state;
 * anything reachable from the spec (ServiceDist, Trace, the decorate
 * and resolve hooks) is shared read-only and must stay immutable
 * during the batch, so a spec whose hooks hold mutable state (a MICA
 * store) must not be shared by concurrent runs.
 */

#ifndef ALTOC_SYSTEM_PARALLEL_RUN_HH
#define ALTOC_SYSTEM_PARALLEL_RUN_HH

#include <vector>

#include "common/thread_pool.hh"
#include "system/experiment.hh"

namespace altoc::system {

/** One unit of work for the engine. */
struct RunJob
{
    DesignConfig cfg;
    WorkloadSpec spec;
};

/**
 * Execute every job (runExperiment) across @p jobs worker threads
 * (0 = ALTOC_JOBS env, else hardware concurrency; 1 = serial) and
 * return results in job order.
 */
std::vector<RunResult> runMany(const std::vector<RunJob> &batch,
                               unsigned jobs = 0);

} // namespace altoc::system

#endif // ALTOC_SYSTEM_PARALLEL_RUN_HH
