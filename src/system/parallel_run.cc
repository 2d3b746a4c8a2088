/**
 * @file
 * Parallel experiment engine implementation.
 */

#include "system/parallel_run.hh"

namespace altoc::system {

std::vector<RunResult>
runMany(const std::vector<RunJob> &batch, unsigned jobs)
{
    return mapOrdered(
        batch,
        [](const RunJob &job) { return runExperiment(job.cfg, job.spec); },
        jobs);
}

} // namespace altoc::system
