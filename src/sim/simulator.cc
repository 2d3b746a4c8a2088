/**
 * @file
 * Simulator construction and the run loop every region shares.
 */

#include "sim/simulator.hh"

namespace altoc::sim {

Simulator::Simulator()
    : ownLoop_(std::make_unique<Loop>()), loop_(ownLoop_.get()), tag_(0)
{
    loop_->regions.push_back(this);
}

Simulator::Simulator(Loop &loop, unsigned region)
    : loop_(&loop), tag_(regionTag(region))
{
    loop.regions.push_back(this);
}

Simulator::~Simulator() = default;

ALTOC_HOT bool
Simulator::Loop::dispatchBefore(Tick until)
{
#if ALTOC_AUDIT_ENABLED
    // The auditor of the region that owns the front event needs its id
    // and time before it runs; the queue caches the front it found, so
    // the dispatch below does not search again.
    Tick when = 0;
    std::uint64_t seq = 0;
    if (events.peekKey(when, seq) && when <= until) {
        ALTOC_AUDIT_HOOK(regions[seq >> kRegionShift]->auditor_,
                         beginEvent(events.peekId(), when));
    }
#endif
    // The queue sets now to the event's tick before the callback runs.
    return events.runOneBefore(until, now) != kTickInf;
}

Tick
Simulator::Loop::run(Tick until)
{
    stopRequested = false;
    while (!stopRequested && dispatchBefore(until)) {
    }
    // Only a run that was not stopped has dispatched every event up to
    // `until`, so only it may move the clock there (reached() relies
    // on that); a stopped run ends at its last dispatched event.
    if (!stopRequested && until != kTickInf && now < until)
        now = until;
    return now;
}

} // namespace altoc::sim
