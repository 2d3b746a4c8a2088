/**
 * @file
 * Parallel experiment engine implementation.
 */

#include "system/parallel_run.hh"

#include <algorithm>
#include <cstdlib>
#include <thread>

#include "common/annotations.hh"
#include "common/logging.hh"
#include "common/mutex.hh"

namespace altoc::system {

namespace {

/**
 * Fit the batch's --jobs x --shards thread demand to the host: each
 * worker of a sharded run spawns cfg.shards kernel threads, so a
 * batch of sharded jobs multiplies. Results are unaffected either
 * way (sharding is bit-exact and the kernel's barriers yield under
 * oversubscription); this only keeps a figure sweep from drowning
 * the machine in 10x more runnable threads than cores. Returns the
 * effective job count, logging any downgrade.
 */
unsigned
fitJobsToHost(const std::vector<RunJob> &batch, unsigned jobs)
{
    unsigned maxShards = 1;
    for (const RunJob &job : batch) {
        // Only a federated rack can actually shard; a single server's
        // cfg.shards is informational (Rack::resolveShards logs and
        // runs serial), so it must not shrink the batch's
        // parallelism.
        if (job.cfg.rack.servers > 1 && job.cfg.shards > 1) {
            maxShards = std::max(
                maxShards,
                std::min(job.cfg.shards, job.cfg.rack.servers));
        }
    }
    if (maxShards == 1)
        return jobs;
    const unsigned requested = jobs ? jobs : ThreadPool::defaultJobs();
    const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());
    if (requested * maxShards <= hw)
        return requested;
    const unsigned fitted = std::max(1u, hw / maxShards);
    if (fitted != requested) {
        inform("parallel: downgrading jobs %u -> %u (jobs x shards "
               "%u x %u exceeds %u hardware thread(s))",
               requested, fitted, requested, maxShards, hw);
    }
    return fitted;
}

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
    jobs = fitJobsToHost(batch, jobs);
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
