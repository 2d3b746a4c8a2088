/**
 * @file
 * Multi-region event kernel: one simulation, one event queue, one
 * canonical dispatch order.
 *
 * A Kernel owns a set of *regions*, each a Simulator (its own index
 * and auditor), and the one event queue and clock they all share; the
 * queue counts each region's events. Regions map onto the physical
 * units of a topology: in a rack, every server is a region and the
 * ToR dispatcher is one more. The only events that cross a region
 * boundary are ToR->server deliveries, scheduled through
 * crossSchedule().
 *
 * Canonical order. Events dispatch in ascending
 *
 *     (tick, region index, per-region sequence)
 *
 * order. Every seq carries its region index in its top byte
 * (event_queue.hh), so the queue's own (tick, seq) order *is* this
 * order. Within a region it is the classic (tick, seq) insertion
 * order, and region 0 draws exactly the seqs a standalone simulator
 * would, so a single-region kernel *is* the standalone simulator.
 * Across regions, ties at a tick break by region index, so server
 * events at a tick dispatch before the ToR's.
 *
 * Cross-region events carry an explicit sequence composed from
 * (sender region, sender counter) with the kCrossSeqBase bit set,
 * under the receiving region's byte: at its tick in the destination
 * region such an event sorts after every locally scheduled one, in
 * the order the sender sent it.
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

    /** Append a region (at most 256: a seq's region byte). */
    Simulator &addRegion();

    Simulator &region(unsigned r) { return *regions_[r]; }
    const Simulator &region(unsigned r) const { return *regions_[r]; }

    unsigned
    numRegions() const
    {
        return static_cast<unsigned>(regions_.size());
    }

    /** True when no region has an event pending. */
    bool idle() const { return loop_.events.empty(); }

    /** The simulated time every region shares. */
    Tick now() const { return loop_.now; }

    /** Events executed across all regions. */
    std::uint64_t eventsExecuted() const { return loop_.events.executed(); }

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
            regionTag(dst) | kCrossSeqBase |
            (static_cast<std::uint64_t>(src) << kCrossRegionShift) |
            crossCtr_[src]++;
        loop_.events.scheduleAtSeq(when, seq, std::forward<F>(cb));
    }

    /**
     * Dispatch in (tick, region, seq) order until the queue drains,
     * time would pass @p until, or a region requests a stop
     * (Simulator::run).
     */
    Tick run(Tick until = kTickInf) { return loop_.run(until); }

    // ----- serial stand-ins for bench/perf/altoc_perf.cc ---------------
    // bench/perf/altoc_perf.cc names these, and only a benchmark
    // change may edit that file. They go with the next benchmark
    // change; nothing else may use them (scripts/lint.sh's
    // bench-stand-in rule; see also DesignConfig::shards,
    // Rack::resolveShards and WorkloadSpec::logLatencyHistogram).

    /** The gate type of Rack::runSharded's ignored parameter. */
    using ParallelGate = InlineFunction<bool()>; // lint:allow bench-stand-in: declaration

    /** Always 0: no run executes parallel windows. */
    std::uint64_t parallelWindows() const { return 0; } // lint:allow bench-stand-in: declaration

  private:
    /** Bit position of the sender region inside a cross seq; the
     *  sender counter sits below it (see event_queue.hh). */
    static constexpr unsigned kCrossRegionShift = 40;

    Simulator::Loop loop_;
    std::vector<std::unique_ptr<Simulator>> regions_;
    /** Per-region cross-schedule counters. */
    std::vector<std::uint64_t> crossCtr_;
};

} // namespace altoc::sim

#endif // ALTOC_SIM_KERNEL_HH
