/**
 * @file
 * Core execution implementation.
 */

#include "cpu/core.hh"

#include <algorithm>

#include "common/logging.hh"

namespace altoc::cpu {

Core::Core(sim::Simulator &sim, unsigned id, unsigned tile)
    : sim_(sim), id_(id), tile_(tile)
{
}

void
Core::run(net::Rpc *r, Tick dispatch_delay, Tick quantum)
{
    altoc_assert(!busy_, "core %u dispatched while busy", id_);
    altoc_assert(!dead_, "core %u dispatched after fail-stop", id_);
    altoc_assert(r->remaining > 0, "dispatching a finished request");
    altoc_assert(quantum > 0, "zero quantum");

    busy_ = true;
    current_ = r;
    if (r->started == kTickInf) {
        r->started = sim_.now() + dispatch_delay;
        if (resolver_)
            resolver_(*r, *this);
    }

    const Tick slice = std::min(r->remaining, quantum);
    Tick stretch = 0;
    if (stretch_)
        stretch = stretch_(id_, sim_.now() + dispatch_delay, slice);
    sim_.after(dispatch_delay + slice + stretch, [this, r, slice] {
        finishSlice(r, slice);
    });
}

net::Rpc *
Core::kill()
{
    altoc_assert(!dead_, "core %u killed twice", id_);
    dead_ = true;
    net::Rpc *orphan = current_;
    // The pending finishSlice event (if any) still fires; the dead_
    // guard there discards it, so the abandoned slice contributes
    // neither busy time nor a completion/preemption callback.
    busy_ = false;
    current_ = nullptr;
    return orphan;
}

void
Core::finishSlice(net::Rpc *r, Tick slice)
{
    if (dead_)
        return;
    busyNs_ += slice;
    r->remaining -= slice;
    busy_ = false;
    current_ = nullptr;
    if (r->remaining == 0) {
        ++completed_;
        altoc_assert(static_cast<bool>(onComplete_),
                     "core %u has no completion callback", id_);
        onComplete_(*this, r);
    } else {
        ++preemptions_;
        altoc_assert(static_cast<bool>(onPreempt_),
                     "core %u preempted without a preempt callback", id_);
        onPreempt_(*this, r);
    }
}

} // namespace altoc::cpu
