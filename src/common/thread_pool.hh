/**
 * @file
 * Fixed-size worker thread pool for the parallel experiment engine.
 *
 * Every figure in the paper is a sweep of independent simulator runs;
 * the pool fans those runs across the host's cores. Design rules:
 *
 *  - fixed worker count chosen at construction (no growth/shrink);
 *  - submit() returns a std::future that propagates the task's
 *    return value or exception;
 *  - submitting from one of the pool's own worker threads executes
 *    the task inline (nested fan-out never deadlocks and never
 *    oversubscribes);
 *  - a pool built with <= 1 thread spawns no workers at all and runs
 *    every task inline at submit() time -- the graceful single-thread
 *    fallback used when ALTOC_JOBS=1 or the host has one core;
 *  - destruction drains all queued work before joining, so every
 *    future handed out is eventually satisfied.
 */

#ifndef ALTOC_COMMON_THREAD_POOL_HH
#define ALTOC_COMMON_THREAD_POOL_HH

#include <deque>
#include <future>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/annotations.hh"
#include "common/inline_fn.hh"
#include "common/mutex.hh"

namespace altoc {

class ThreadPool
{
  public:
    /** @p threads 0 resolves via defaultJobs() (ALTOC_JOBS env, else
     *  hardware concurrency). */
    explicit ThreadPool(unsigned threads = 0);

    /** Drains every queued task, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Queue @p fn for execution and return its future. The future
     * yields the task's return value, or rethrows whatever the task
     * threw. Runs inline when the pool is single-threaded or the
     * caller is already one of this pool's workers.
     */
    template <typename F>
    std::future<std::invoke_result_t<F>>
    submit(F fn) ALTOC_EXCLUDES(mutex_)
    {
        using R = std::invoke_result_t<F>;
        // The packaged_task is move-captured straight into the queued
        // closure (a move-only InlineFn): one allocation total -- the
        // task's shared state -- instead of the former shared_ptr
        // wrapper plus std::function copy.
        std::packaged_task<R()> task(std::move(fn));
        std::future<R> result = task.get_future();
        if (workers_.empty() || onWorkerThread()) {
            task();
            return result;
        }
        {
            MutexLock lock(mutex_);
            queue_.emplace_back(
                [t = std::move(task)]() mutable { t(); });
        }
        cv_.notify_one();
        return result;
    }

    /** Degree of parallelism (1 for the inline fallback). */
    unsigned
    threads() const
    {
        return workers_.empty()
                   ? 1u
                   : static_cast<unsigned>(workers_.size());
    }

    /** True when the calling thread is one of this pool's workers. */
    bool onWorkerThread() const;

    /**
     * The process-wide default job count: a positive ALTOC_JOBS
     * environment value wins; otherwise std::thread's hardware
     * concurrency (at least 1). A malformed ALTOC_JOBS falls back to
     * 1 with a warning so a typo degrades to serial, not to a crash.
     */
    static unsigned defaultJobs();

  private:
    void workerMain() ALTOC_EXCLUDES(mutex_);

    std::vector<std::thread> workers_;
    mutable Mutex mutex_;
    CondVar cv_;
    std::deque<InlineFn> queue_ ALTOC_GUARDED_BY(mutex_);
    bool stop_ ALTOC_GUARDED_BY(mutex_) = false;
};

/**
 * Apply @p fn to every element of @p items, fanning across a pool of
 * @p jobs threads (0 = ThreadPool::defaultJobs()), and return the
 * results **in item order** regardless of completion order. With an
 * effective job count of 1 this degrades to a plain serial loop.
 *
 * Exception contract: the first (lowest-index) task exception is
 * rethrown after all tasks have finished, matching the exception the
 * serial loop would surface. @p fn must treat its argument as
 * read-only shared state or confine all mutation to task-local data.
 */
template <typename T, typename F>
auto
mapOrdered(const std::vector<T> &items, F fn, unsigned jobs = 0)
    -> std::vector<std::invoke_result_t<F, const T &>>
{
    using R = std::invoke_result_t<F, const T &>;
    const unsigned n = jobs ? jobs : ThreadPool::defaultJobs();
    std::vector<R> out;
    out.reserve(items.size());
    if (n <= 1 || items.size() <= 1) {
        for (const T &item : items)
            out.push_back(fn(item));
        return out;
    }
    ThreadPool pool(n);
    std::vector<std::future<R>> pending;
    pending.reserve(items.size());
    for (const T &item : items)
        pending.push_back(pool.submit([&fn, &item] { return fn(item); }));
    // get() in submission order reproduces the serial result vector
    // bit-for-bit and surfaces the lowest-index exception first.
    for (auto &fut : pending)
        out.push_back(fut.get());
    return out;
}

} // namespace altoc

#endif // ALTOC_COMMON_THREAD_POOL_HH
