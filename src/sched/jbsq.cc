/**
 * @file
 * JBSQ(n) implementation.
 */

#include "sched/jbsq.hh"

#include <algorithm>

#include "common/logging.hh"

namespace altoc::sched {

JbsqScheduler::JbsqScheduler(const Config &cfg)
    : cfg_(cfg)
{
    altoc_assert(cfg.depth >= 1, "JBSQ depth must be at least 1");
}

JbsqScheduler::Config
JbsqScheduler::rpcValet()
{
    Config c;
    c.label = "RPCValet";
    c.depth = 1;
    c.dispatchLatency = lat::kLlc;
    return c;
}

JbsqScheduler::Config
JbsqScheduler::nebula()
{
    Config c;
    c.label = "Nebula";
    c.depth = 2;
    c.dispatchLatency = lat::kLlc;
    return c;
}

JbsqScheduler::Config
JbsqScheduler::nanoPu()
{
    Config c;
    c.label = "nanoPU";
    c.depth = 2;
    // Direct register-file delivery: a couple of pipeline stages.
    c.dispatchLatency = 5;
    c.quantum = 5 * kUs;
    c.preemptCost = 100;
    return c;
}

void
JbsqScheduler::onAttach()
{
    altoc_assert(cfg_.domains >= 1 &&
                     ctx_.cores.size() % cfg_.domains == 0,
                 "cores must split evenly into coherence domains");
    coresPerDomain_ =
        static_cast<unsigned>(ctx_.cores.size()) / cfg_.domains;
    central_.resize(cfg_.domains);
    local_.assign(ctx_.cores.size(), {});
    occupancy_.assign(ctx_.cores.size(), 0);
}

void
JbsqScheduler::deliver(net::Rpc *r, unsigned queue)
{
    altoc_assert(queue < cfg_.domains, "domain out of range");
    central_[queue].enqueue(r, ctx_.sim->now());
    fill(queue);
}

void
JbsqScheduler::fill(unsigned d)
{
    const unsigned base = d * coresPerDomain_;
    while (!central_[d].empty()) {
        // Join the bounded *shortest* queue: pick the least occupied
        // core of this domain that still has room.
        unsigned best = 0;
        unsigned best_occ = cfg_.depth;
        for (unsigned i = base; i < base + coresPerDomain_; ++i) {
            if (occupancy_[i] < best_occ) {
                best_occ = occupancy_[i];
                best = i;
            }
        }
        if (best_occ >= cfg_.depth)
            return;
        net::Rpc *r = central_[d].dequeueHead();
        ++occupancy_[best];
        ctx_.sim->after(cfg_.dispatchLatency, [this, best, r] {
            arriveLocal(best, r);
        });
    }
}

void
JbsqScheduler::arriveLocal(unsigned core, net::Rpc *r)
{
    r->enqueued = ctx_.sim->now();
    local_[core].push_back(r);
    tryRun(core);
}

void
JbsqScheduler::tryRun(unsigned core)
{
    cpu::Core *c = ctx_.cores[core];
    if (c->busy() || local_[core].empty())
        return;
    net::Rpc *r = local_[core].front();
    local_[core].pop_front();
    // Delivery already paid the NIC-to-core hop; starting from the
    // local queue is register/L1 speed, folded into the hop.
    c->run(r, 0, cfg_.quantum);
}

void
JbsqScheduler::onCompletion(cpu::Core &core, net::Rpc *r)
{
    altoc_assert(occupancy_[core.id()] > 0, "occupancy underflow");
    --occupancy_[core.id()];
    sink_->onRpcDone(core, r);
    tryRun(core.id());
    fill(domainOf(core.id()));
}

void
JbsqScheduler::onPreempt(cpu::Core &core, net::Rpc *r)
{
    const unsigned id = core.id();
    ++preemptions_;
    r->remaining += cfg_.preemptCost;
    if (!local_[id].empty()) {
        // Rotate: let the waiting request run, requeue the preempted
        // one behind it.
        local_[id].push_back(r);
        tryRun(id);
    } else if (!central_[domainOf(id)].empty()) {
        // Nothing waiting locally, but the central queue has work:
        // hand the long request back to the NIC and accept new work.
        --occupancy_[id];
        central_[domainOf(id)].enqueue(r, ctx_.sim->now());
        fill(domainOf(id));
        tryRun(id);
    } else {
        // No competition anywhere: resume immediately.
        local_[id].push_back(r);
        tryRun(id);
    }
}

} // namespace altoc::sched
