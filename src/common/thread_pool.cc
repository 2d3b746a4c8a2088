/**
 * @file
 * Worker-pool implementation.
 */

#include "common/thread_pool.hh"

#include <cstdlib>
#include <string>

#include "common/logging.hh"

namespace altoc {

namespace {

/** Set for the duration of a worker's loop; submit() consults it to
 *  run nested submissions inline instead of deadlocking on a full
 *  queue. */
thread_local const ThreadPool *tls_owner = nullptr;

} // namespace

ThreadPool::ThreadPool(unsigned threads)
{
    const unsigned n = threads ? threads : defaultJobs();
    if (n <= 1)
        return; // inline fallback: no workers, submit() executes
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers_.emplace_back([this] { workerMain(); });
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

bool
ThreadPool::onWorkerThread() const
{
    return tls_owner == this;
}

void
ThreadPool::workerMain()
{
    tls_owner = this;
    for (;;) {
        InlineFn task;
        {
            MutexLock lock(mutex_);
            // Open-coded predicate wait: a wait(lock, lambda) would
            // read the guarded members from a lambda body the
            // thread-safety analysis cannot attribute to this scope.
            while (!stop_ && queue_.empty())
                cv_.wait(mutex_);
            if (queue_.empty())
                return; // stop requested and nothing left to drain
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task(); // packaged_task captures any exception for the future
    }
}

unsigned
ThreadPool::defaultJobs()
{
    if (const char *env = std::getenv("ALTOC_JOBS")) {
        char *end = nullptr;
        const long parsed = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && parsed > 0)
            return static_cast<unsigned>(parsed);
        warn("ignoring malformed ALTOC_JOBS='%s'; running serial", env);
        return 1;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

} // namespace altoc
