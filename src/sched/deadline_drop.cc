/**
 * @file
 * DeadlineDropScheduler implementation.
 */

#include "sched/deadline_drop.hh"

#include "common/logging.hh"

namespace altoc::sched {

DeadlineDropScheduler::DeadlineDropScheduler(const Config &cfg)
    : cfg_(cfg)
{
    altoc_assert(cfg.budget > 0, "budget must be positive");
}

unsigned
DeadlineDropScheduler::nicQueues() const
{
    altoc_assert(!ctx_.cores.empty(), "nicQueues() before attach()");
    return static_cast<unsigned>(ctx_.cores.size());
}

void
DeadlineDropScheduler::onAttach()
{
    queues_.resize(ctx_.cores.size());
}

void
DeadlineDropScheduler::deliver(net::Rpc *r, unsigned queue)
{
    altoc_assert(queue < queues_.size(), "queue out of range");
    queues_[queue].enqueue(r, ctx_.sim->now());
    tryDispatch(queue);
}

void
DeadlineDropScheduler::tryDispatch(unsigned queue)
{
    cpu::Core *core = ctx_.cores[queue];
    if (core->busy())
        return;
    net::Rpc *r = queues_[queue].dequeueHead();
    if (r == nullptr)
        return;
    // Reactive check: has the queueing delay already burned the
    // budget? If so, reject instead of executing the handler.
    const Tick age = ctx_.sim->now() - r->nicArrival;
    if (age > cfg_.budget) {
        ++dropped_;
        r->dropped = true;
        r->remaining = cfg_.rejectCost;
    }
    core->run(r, cfg_.dispatchLatency);
}

void
DeadlineDropScheduler::onCompletion(cpu::Core &core, net::Rpc *r)
{
    sink_->onRpcDone(core, r);
    tryDispatch(core.id());
}

} // namespace altoc::sched
