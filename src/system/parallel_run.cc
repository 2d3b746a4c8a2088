/**
 * @file
 * Parallel experiment engine implementation.
 */

#include "system/parallel_run.hh"

#include <cstdlib>

#include "common/annotations.hh"
#include "common/logging.hh"
#include "common/mutex.hh"

namespace altoc::system {

namespace {

/**
 * Completion counter shared by the pool workers of one runMany batch
 * (opt-in via ALTOC_PROGRESS; see runMany). Results are unaffected:
 * the meter only emits inform() lines on stderr, and only when
 * enabled, so default runs stay byte-identical.
 */
class ProgressMeter
{
  public:
    explicit ProgressMeter(std::size_t total)
        : total_(total), stride_(total / 10 ? total / 10 : 1)
    {
    }

    /** Worker callback: one job finished. Thread-safe. */
    void
    onJobDone() ALTOC_EXCLUDES(mu_)
    {
        std::size_t done = 0;
        {
            MutexLock lock(mu_);
            done = ++done_;
        }
        if (done % stride_ == 0 || done == total_)
            inform("parallel: %zu/%zu runs complete", done, total_);
    }

  private:
    const std::size_t total_;
    const std::size_t stride_;
    Mutex mu_;
    std::size_t done_ ALTOC_GUARDED_BY(mu_) = 0;
};

} // namespace

std::vector<RunResult>
runMany(const std::vector<RunJob> &batch, unsigned jobs)
{
    if (std::getenv("ALTOC_PROGRESS") != nullptr && batch.size() > 1) {
        ProgressMeter meter(batch.size());
        return mapOrdered(
            batch,
            [&meter](const RunJob &job) {
                RunResult res = runExperiment(job.cfg, job.spec);
                meter.onJobDone();
                return res;
            },
            jobs);
    }
    return mapOrdered(
        batch,
        [](const RunJob &job) { return runExperiment(job.cfg, job.spec); },
        jobs);
}

} // namespace altoc::system
