/**
 * @file
 * Simulator run loop.
 */

#include "sim/simulator.hh"

#include "sim/kernel.hh"

namespace altoc::sim {

void
Simulator::kernelRequestStop()
{
    kernel_->requestStop();
}

Tick
Simulator::run(Tick until)
{
    stopRequested_ = false;
#if ALTOC_AUDIT_ENABLED
    // Audit builds need the event id and time *before* dispatch, so
    // they keep the two-pass peek + run loop.
    while (!events_.empty() && !stopRequested_) {
        const Tick next = events_.peekTime();
        if (next > until) {
            now_ = until;
            return now_;
        }
        ALTOC_AUDIT_HOOK(auditor_, beginEvent(events_.peekId(), next));
        now_ = next;
        events_.runOne();
    }
#else
    // Fused peek + pop: one front search per event. now_ is set by
    // the queue before the callback runs, so now() stays correct
    // inside event handlers.
    while (!events_.empty() && !stopRequested_) {
        if (events_.runOneBefore(until, now_) == kTickInf) {
            now_ = until;
            return now_;
        }
    }
#endif
    if (events_.empty() && until != kTickInf && now_ < until)
        now_ = until;
    return now_;
}

bool
Simulator::step()
{
    if (events_.empty())
        return false;
#if ALTOC_AUDIT_ENABLED
    const Tick next = events_.peekTime();
    ALTOC_AUDIT_HOOK(auditor_, beginEvent(events_.peekId(), next));
    now_ = next;
    events_.runOne();
#else
    events_.runOneBefore(kTickInf, now_);
#endif
    return true;
}

} // namespace altoc::sim
