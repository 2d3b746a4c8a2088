/**
 * @file
 * Multi-region event kernel: one simulation, many EventQueues, one
 * canonical dispatch order.
 *
 * A Kernel owns a set of *regions*, each a full Simulator (its own
 * queue, clock and auditor). Regions map onto the physical units of a
 * topology: in a rack, every server is a region and the ToR
 * dispatcher is one more. The only events that cross a region
 * boundary are ToR->server deliveries, scheduled through
 * crossSchedule().
 *
 * Canonical order. Events dispatch in ascending
 *
 *     (tick, region index, per-queue sequence)
 *
 * order. Within a region this is exactly the classic (tick, seq)
 * insertion order, so a single-region kernel *is* the standalone
 * simulator (run() literally delegates to Simulator::run then).
 * Across regions, ties at a tick break by region index, so server
 * events at a tick dispatch before the ToR's.
 *
 * Cross-region events carry an explicit sequence composed from
 * (sender region, sender counter) in the kCrossSeqBase subspace (see
 * event_queue.hh): at its tick in the destination region such an
 * event sorts after every locally scheduled one, in the order the
 * sender sent it.
 */

#ifndef ALTOC_SIM_KERNEL_HH
#define ALTOC_SIM_KERNEL_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/annotations.hh"
#include "common/inline_fn.hh"
#include "common/logging.hh"
#include "common/units.hh"
#include "sim/event_queue.hh"
#include "sim/simulator.hh"

namespace altoc::sim {

/**
 * A set of Simulator regions advancing as one deterministic
 * simulation.
 */
class Kernel
{
  public:
    Kernel() = default;

    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;

    /**
     * Append a region. With more than one region each Simulator gets
     * a back-pointer so its requestStop() reaches the kernel-wide
     * flag; a lone region keeps the classic self-contained wiring.
     */
    Simulator &addRegion();

    Simulator &region(unsigned r) { return *regions_[r]; }
    const Simulator &region(unsigned r) const { return *regions_[r]; }

    unsigned
    numRegions() const
    {
        return static_cast<unsigned>(regions_.size());
    }

    /** True when every region's queue is empty. */
    bool idle() const;

    /** Latest region clock (the global time after run() synchronized
     *  the regions). */
    Tick now() const;

    /** Events executed across all regions. */
    std::uint64_t eventsExecuted() const;

    /** Stop before the next dispatch. */
    void requestStop() { stopFlag_ = true; }

    /**
     * Schedule @p cb at @p when into region @p dst on behalf of an
     * event currently executing in region @p src. The event's sort
     * key is (when, cross-seq), where the cross-seq derives from
     * src's private counter.
     */
    template <typename F>
    ALTOC_HOT void
    crossSchedule(unsigned src, unsigned dst, Tick when, F &&cb)
    {
        const std::uint64_t seq =
            kCrossSeqBase |
            (static_cast<std::uint64_t>(src) << kCrossRegionShift) |
            crossCtr_[src]++;
        region(dst).events_.scheduleAtSeq(when, seq, std::forward<F>(cb));
        if (dst < front_.size() && when < front_[dst])
            front_[dst] = when;
    }

    /**
     * Dispatch in (tick, region, seq) order until every queue drains,
     * time would pass @p until, or requestStop(). One region
     * delegates to Simulator::run. Region clocks are synchronized to
     * the returned final time.
     */
    Tick run(Tick until = kTickInf);

    // ----- serial stand-ins for bench/perf/altoc_perf.cc ---------------
    // bench/perf/altoc_perf.cc names these, and only a benchmark
    // change may edit that file. They go with the next benchmark
    // change; nothing else may use them
    // (see also DesignConfig::shards and Rack::resolveShards).

    /** The gate type of Rack::runSharded's ignored parameter. */
    using ParallelGate = InlineFunction<bool()>;

    /** Always 0: no run executes parallel windows. */
    std::uint64_t parallelWindows() const { return 0; }

  private:
    /** Bits reserved for the sender counter inside a cross seq; the
     *  region index sits above them (see event_queue.hh). */
    static constexpr unsigned kCrossRegionShift = 40;

    /** Dispatch the head event of region @p r (audit hook + clock
     *  update + callback). Caller guarantees the queue is
     *  non-empty. */
    void dispatchOne(unsigned r);

    std::vector<std::unique_ptr<Simulator>> regions_;
    /** Per-region cross-schedule counters. */
    std::vector<std::uint64_t> crossCtr_;
    /** The run loop's cached earliest tick per region (empty outside
     *  run()). */
    std::vector<Tick> front_;
    bool stopFlag_ = false;
};

} // namespace altoc::sim

#endif // ALTOC_SIM_KERNEL_HH
