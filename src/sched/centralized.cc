/**
 * @file
 * Centralized (Shinjuku-style) scheduler implementation.
 */

#include "sched/centralized.hh"

#include "common/logging.hh"

namespace altoc::sched {

CentralizedScheduler::CentralizedScheduler(const Config &cfg)
    : cfg_(cfg)
{
    altoc_assert(cfg.dispatchCost > 0, "dispatch cost must be positive");
}

void
CentralizedScheduler::onAttach()
{
    altoc_assert(ctx_.cores.size() >= 2,
                 "centralized scheduling needs a dispatcher and at least "
                 "one worker");
}

void
CentralizedScheduler::deliver(net::Rpc *r, unsigned queue)
{
    altoc_assert(queue == 0, "centralized design has a single queue");
    central_.enqueue(r, ctx_.sim->now());
    pump();
}

cpu::Core *
CentralizedScheduler::idleWorker()
{
    // Core 0 is the dispatcher; workers are cores 1..n-1.
    for (std::size_t i = 1; i < ctx_.cores.size(); ++i) {
        if (!ctx_.cores[i]->busy())
            return ctx_.cores[i];
    }
    return nullptr;
}

void
CentralizedScheduler::pump()
{
    if (dispatcherBusy_ || central_.empty() || idleWorker() == nullptr)
        return;
    dispatcherBusy_ = true;
    ctx_.sim->after(cfg_.dispatchCost, [this] { dispatchOne(); });
}

void
CentralizedScheduler::dispatchOne()
{
    dispatcherBusy_ = false;
    net::Rpc *r = central_.dequeueHead();
    if (r == nullptr)
        return;
    cpu::Core *worker = idleWorker();
    if (worker == nullptr) {
        // All workers filled up while the dispatcher was occupied;
        // put the request back at the head, keeping FCFS order.
        central_.pushFront(r);
        return;
    }
    worker->run(r, cfg_.handoffLatency, cfg_.quantum);
    // The dispatcher immediately looks at the next request.
    pump();
}

void
CentralizedScheduler::onCompletion(cpu::Core &core, net::Rpc *r)
{
    sink_->onRpcDone(core, r);
    pump();
}

void
CentralizedScheduler::onPreempt(cpu::Core &core, net::Rpc *r)
{
    (void)core;
    ++preemptions_;
    // The preempted request rejoins the central queue; the interrupt
    // and context-switch cost is charged to its remaining demand.
    r->remaining += cfg_.preemptCost;
    central_.enqueue(r, ctx_.sim->now());
    pump();
}

} // namespace altoc::sched
