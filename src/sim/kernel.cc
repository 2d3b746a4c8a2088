/**
 * @file
 * Kernel implementation: the (tick, region, seq) merge loop.
 */

#include "sim/kernel.hh"

#include <algorithm>

namespace altoc::sim {

Simulator &
Kernel::addRegion()
{
    regions_.push_back(std::make_unique<Simulator>());
    crossCtr_.push_back(0);
    if (regions_.size() > 1) {
        // Multi-region worlds route every region's requestStop()
        // through the kernel flag; a lone region keeps the classic
        // self-contained wiring (and run() delegates wholesale).
        for (auto &s : regions_)
            s->kernel_ = this;
    }
    return *regions_.back();
}

bool
Kernel::idle() const
{
    for (const auto &s : regions_) {
        if (!s->events_.empty())
            return false;
    }
    return true;
}

Tick
Kernel::now() const
{
    Tick t = 0;
    for (const auto &s : regions_)
        t = std::max(t, s->now_);
    return t;
}

std::uint64_t
Kernel::eventsExecuted() const
{
    std::uint64_t n = 0;
    for (const auto &s : regions_)
        n += s->events_.executed();
    return n;
}

ALTOC_HOT void
Kernel::dispatchOne(unsigned r)
{
    Simulator &s = *regions_[r];
#if ALTOC_AUDIT_ENABLED
    // Same two-pass shape as the audit branch of Simulator::run: the
    // auditor needs the event id and time before dispatch.
    const Tick next = s.events_.peekTime();
    ALTOC_AUDIT_HOOK(s.auditor_, beginEvent(s.events_.peekId(), next));
    s.now_ = next;
    s.events_.runOne();
#else
    s.events_.runOneBefore(kTickInf, s.now_);
#endif
}

Tick
Kernel::run(Tick until)
{
    altoc_assert(!regions_.empty(), "kernel has no regions");
    if (numRegions() == 1)
        return regions_[0]->run(until);
    stopFlag_ = false;
    const unsigned n = numRegions();
    front_.assign(n, kTickInf);
    for (unsigned r = 0; r < n; ++r)
        front_[r] = regions_[r]->events_.peekTime();
    while (!stopFlag_) {
        unsigned best = n;
        Tick bw = kTickInf;
        for (unsigned r = 0; r < n; ++r) {
            if (front_[r] < bw) {
                bw = front_[r];
                best = r;
            }
        }
        if (best == n || bw > until)
            break;
        dispatchOne(best);
        front_[best] = regions_[best]->events_.peekTime();
    }
    front_.clear();
    // Final-time semantics match Simulator::run: a run bounded by
    // `until` ends exactly there unless it was stopped early, in
    // which case time holds at the last dispatched event. Every
    // region clock is synchronized to the global final time so
    // per-region elapsed-time stats agree, as they did when all
    // components shared one clock.
    Tick fin = now();
    if (!stopFlag_ && until != kTickInf && fin < until)
        fin = until;
    for (auto &s : regions_)
        s->now_ = fin;
    return fin;
}

} // namespace altoc::sim
