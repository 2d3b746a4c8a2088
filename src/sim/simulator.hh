/**
 * @file
 * The Simulator drives the event queue and owns simulated time.
 *
 * Components hold a Simulator reference and use after()/at() to
 * schedule work. run() executes until the queue drains or a limit is
 * reached. Simulated time is monotone: scheduling in the past is a
 * library bug and panics.
 *
 * Callbacks are EventQueue::Callback (an InlineFn): closures convert
 * implicitly at the call site but must fit the 48-byte inline budget
 * -- oversized captures are a compile error, not a hidden heap
 * allocation. See common/inline_fn.hh.
 */

#ifndef ALTOC_SIM_SIMULATOR_HH
#define ALTOC_SIM_SIMULATOR_HH

#include <cstdint>
#include <utility>

#include "common/logging.hh"
#include "common/units.hh"
#include "sim/auditor.hh"
#include "sim/event_queue.hh"

namespace altoc::sim {

class Kernel;

/**
 * Event-driven simulation engine with nanosecond resolution.
 *
 * A Simulator can run standalone (the classic world) or as one
 * *region* of a sim::Kernel, which then owns the run loop and the
 * canonical cross-region dispatch order. Region membership only
 * reroutes requestStop() to the kernel-wide flag; scheduling,
 * auditing and the standalone run() are unchanged.
 */
class Simulator
{
  public:
    Simulator() = default;

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Schedule @p cb to run @p delay ns from now. The callable is
     *  forwarded straight into its event slot (see
     *  EventQueue::schedule). */
    template <typename F>
    EventId
    after(Tick delay, F &&cb)
    {
        return events_.schedule(now_ + delay, std::forward<F>(cb));
    }

    /** Schedule @p cb at absolute time @p when (must be >= now). */
    template <typename F>
    EventId
    at(Tick when, F &&cb)
    {
        altoc_assert(when >= now_, "scheduling in the past: %llu < %llu",
                     static_cast<unsigned long long>(when),
                     static_cast<unsigned long long>(now_));
        return events_.schedule(when, std::forward<F>(cb));
    }

    /** Cancel a pending event; returns false if it already ran. */
    bool cancel(EventId id) { return events_.cancel(id); }

    /**
     * Reserve the dispatch position an event scheduled right now would
     * take (EventQueue::reserveSeq). Pair it with a tick to name a
     * deferred effect without an event: reached() says when the
     * position has been passed, and atSeq() files a real event there
     * if one is needed after all.
     */
    std::uint64_t reserveSeq() { return events_.reserveSeq(); }

    /** Schedule @p cb at (@p when, @p seq), a position reserved by
     *  reserveSeq() whose tick has not been reached. */
    template <typename F>
    EventId
    atSeq(Tick when, std::uint64_t seq, F &&cb)
    {
        altoc_assert(when >= now_, "scheduling in the past: %llu < %llu",
                     static_cast<unsigned long long>(when),
                     static_cast<unsigned long long>(now_));
        return events_.scheduleAtSeq(when, seq, std::forward<F>(cb));
    }

    /**
     * True iff an event at (@p when, @p seq) in this simulator's queue
     * would already have been dispatched: its tick is earlier than
     * now(), or it is now() and either @p seq sorts below the last
     * dispatched event (the running one, inside a callback) or a run
     * bounded by `until` has moved the clock past the last dispatch,
     * which it does only once every event up to the new time has run.
     */
    bool
    reached(Tick when, std::uint64_t seq) const
    {
        return when < now_ ||
               (when == now_ && (seq < events_.lastSeq() ||
                                 now_ != events_.lastWhen()));
    }

    /**
     * Run until the event queue drains or simulated time would pass
     * @p until. Returns the final simulated time.
     */
    Tick run(Tick until = kTickInf);

    /** Execute exactly one event if present; returns false if empty. */
    bool step();

    /** True when no events are pending. */
    bool idle() const { return events_.empty(); }

    /** Pending event count (live only). */
    std::size_t pendingEvents() const { return events_.size(); }

    /** Total events executed (host-side performance accounting). */
    std::uint64_t eventsExecuted() const { return events_.executed(); }

    /** Request that the run loop stop before dispatching the next
     *  event. For a kernel region this reaches the kernel-wide flag
     *  (thread-safe; honored at the merge loop's next dispatch, or a
     *  sharded run's next window boundary). */
    void
    requestStop()
    {
        if (kernel_ != nullptr)
            kernelRequestStop();
        else
            stopRequested_ = true;
    }

    /**
     * Attach an invariant auditor; it is notified before every event
     * dispatch (audit builds only -- the hook compiles away without
     * ALTOC_AUDIT). Pass nullptr to detach. Not owned.
     */
    void setAuditor(Auditor *auditor) { auditor_ = auditor; }

    Auditor *auditor() const { return auditor_; }

  private:
    friend class Kernel;

    /** Out-of-line so this header need not see the Kernel type. */
    void kernelRequestStop();

    EventQueue events_;
    Auditor *auditor_ = nullptr;
    /** Owning kernel when this simulator is a region of a multi-
     *  region world; null standalone (and for single-region kernels,
     *  which delegate to the classic run loop). */
    Kernel *kernel_ = nullptr;
    unsigned regionIdx_ = 0;
    Tick now_ = 0;
    bool stopRequested_ = false;
};

} // namespace altoc::sim

#endif // ALTOC_SIM_SIMULATOR_HH
