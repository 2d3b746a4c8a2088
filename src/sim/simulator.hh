/**
 * @file
 * The Simulator: one region of an event kernel, the handle through
 * which components read simulated time and schedule work.
 *
 * Components hold a Simulator reference and use after()/at() to
 * schedule work. run() executes until the queue drains or a limit is
 * reached. Simulated time is monotone: scheduling in the past is a
 * library bug and panics.
 *
 * Every region of one simulation shares one event queue, one clock,
 * one stop flag and the run loop over them (sim/kernel.hh builds
 * worlds of many regions). A region stamps its index on the seq of
 * every event it schedules (event_queue.hh), so the queue counts each
 * region's events and the loop finds the region that owns each one;
 * the region itself keeps only that index and its auditor. A
 * default-constructed Simulator is region 0 of a world of its own.
 *
 * Callbacks are EventQueue::Callback (an InlineFn): closures convert
 * implicitly at the call site but must fit the 48-byte inline budget
 * -- oversized captures are a compile error, not a hidden heap
 * allocation. See common/inline_fn.hh.
 */

#ifndef ALTOC_SIM_SIMULATOR_HH
#define ALTOC_SIM_SIMULATOR_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/units.hh"
#include "sim/auditor.hh"
#include "sim/event_queue.hh"

namespace altoc::sim {

/**
 * Event-driven simulation engine with nanosecond resolution, seen
 * from one region.
 */
class Simulator
{
    /** What every region of one simulation shares. */
    struct Loop;

  public:
    /** Region 0 of a world of its own. */
    Simulator();

    /** Region @p region of @p loop, the next one (only
     *  Kernel::addRegion can name a Loop). */
    Simulator(Loop &loop, unsigned region);

    ~Simulator();

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulated time, the same in every region. */
    Tick now() const { return loop_->now; }

    /** Schedule @p cb to run @p delay ns from now. The callable is
     *  forwarded straight into its event slot (see
     *  EventQueue::schedule). */
    template <typename F>
    EventId
    after(Tick delay, F &&cb)
    {
        return loop_->events.schedule(loop_->now + delay,
                                      std::forward<F>(cb), tag_);
    }

    /** Schedule @p cb at absolute time @p when (must be >= now). */
    template <typename F>
    EventId
    at(Tick when, F &&cb)
    {
        altoc_assert(when >= now(), "scheduling in the past: %llu < %llu",
                     static_cast<unsigned long long>(when),
                     static_cast<unsigned long long>(now()));
        return loop_->events.schedule(when, std::forward<F>(cb), tag_);
    }

    /** Cancel a pending event; returns false if it already ran. */
    bool cancel(EventId id) { return loop_->events.cancel(id); }

    /**
     * Reserve the dispatch position an event scheduled right now would
     * take (EventQueue::reserveSeq). Pair it with a tick to name a
     * deferred effect without an event: reached() says when the
     * position has been passed, and atSeq() files a real event there
     * if one is needed after all.
     */
    std::uint64_t reserveSeq() { return loop_->events.reserveSeq(tag_); }

    /** Schedule @p cb at (@p when, @p seq), a position reserved by
     *  this region's reserveSeq() whose tick has not been reached. */
    template <typename F>
    EventId
    atSeq(Tick when, std::uint64_t seq, F &&cb)
    {
        altoc_assert(when >= now(), "scheduling in the past: %llu < %llu",
                     static_cast<unsigned long long>(when),
                     static_cast<unsigned long long>(now()));
        altoc_assert((seq >> kRegionShift) == region(),
                     "seq reserved by another region");
        return loop_->events.scheduleAtSeq(when, seq, std::forward<F>(cb));
    }

    /**
     * True iff an event at (@p when, @p seq) would already have been
     * dispatched: its tick is earlier than now(), or it is now() and
     * either @p seq sorts below the last dispatched event (the running
     * one, inside a callback) or a run bounded by `until` has moved
     * the clock past the last dispatch, which it does only once every
     * event up to the new time has run. @p seq carries its region's
     * byte, so the comparison follows the (tick, region, seq) order.
     */
    bool
    reached(Tick when, std::uint64_t seq) const
    {
        const Tick t = loop_->now;
        return when < t ||
               (when == t && (seq < loop_->events.lastSeq() ||
                              t != loop_->events.lastWhen()));
    }

    /**
     * Run the whole world -- every region -- until the event queue
     * drains, simulated time would pass @p until, or a region calls
     * requestStop(). Returns the final simulated time: the last
     * dispatched event's for a stopped run, otherwise @p until when
     * it is finite.
     */
    Tick run(Tick until = kTickInf) { return loop_->run(until); }

    /** Execute exactly one event of the world if present; returns
     *  false if empty. */
    bool step() { return loop_->dispatchBefore(kTickInf); }

    /** True when none of this region's events are pending. */
    bool idle() const { return pendingEvents() == 0; }

    /** This region's pending event count (live only). */
    std::size_t
    pendingEvents() const
    {
        return loop_->events.sizeIn(region());
    }

    /** Events of this region executed (host-side performance
     *  accounting). */
    std::uint64_t
    eventsExecuted() const
    {
        return loop_->events.executedIn(region());
    }

    /** Request that the run loop stop before dispatching the next
     *  event, whichever region owns it. */
    void requestStop() { loop_->stopRequested = true; }

    /**
     * Attach an invariant auditor; it is notified before the dispatch
     * of every event of this region (audit builds only -- the hook
     * compiles away without ALTOC_AUDIT). Pass nullptr to detach. Not
     * owned.
     */
    void setAuditor(Auditor *auditor) { auditor_ = auditor; }

    Auditor *auditor() const { return auditor_; }

  private:
    friend class Kernel;

    struct Loop
    {
        EventQueue events;
        Tick now = 0;
        bool stopRequested = false;
        /** Region r is regions[r] (not owned). */
        std::vector<Simulator *> regions;

        /** Simulator::run. */
        Tick run(Tick until);

        /** Dispatch the earliest event if it fires at or before
         *  @p until: its region's audit hook, the clock, the callback.
         *  False when there is none. */
        bool dispatchBefore(Tick until);
    };

    unsigned
    region() const
    {
        return static_cast<unsigned>(tag_ >> kRegionShift);
    }

    /** The world's loop when this simulator is one of its own. */
    std::unique_ptr<Loop> ownLoop_;
    Loop *loop_;
    /** This region's byte (regionTag). */
    std::uint64_t tag_;
    Auditor *auditor_ = nullptr;
};

} // namespace altoc::sim

#endif // ALTOC_SIM_SIMULATOR_HH
