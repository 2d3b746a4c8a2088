/**
 * @file
 * Scheduler base implementation.
 */

#include "sched/scheduler.hh"

#include "common/logging.hh"

namespace altoc::sched {

void
Scheduler::attach(SchedContext ctx, CompletionSink *sink)
{
    altoc_assert(ctx.sim != nullptr, "scheduler context missing simulator");
    altoc_assert(!ctx.cores.empty(), "scheduler context has no cores");
    ctx_ = std::move(ctx);
    sink_ = sink;
    for (cpu::Core *core : ctx_.cores) {
        core->setCompletion([this](cpu::Core &c, net::Rpc *r) {
            onCompletion(c, r);
        });
        core->setPreempt([this](cpu::Core &c, net::Rpc *r) {
            onPreempt(c, r);
        });
    }
    onAttach();
}

std::vector<std::size_t>
Scheduler::queueLengths() const
{
    std::vector<std::size_t> lens(numQueues());
    for (std::size_t q = 0; q < lens.size(); ++q)
        lens[q] = queueLength(q);
    return lens;
}

std::size_t
Scheduler::totalQueued() const
{
    std::size_t total = 0;
    for (std::size_t q = 0, n = numQueues(); q < n; ++q)
        total += queueLength(q);
    return total;
}

unsigned
Scheduler::liveWorkerCores() const
{
    unsigned live = 0;
    for (const cpu::Core *core : ctx_.cores) {
        if (!core->dead() && isWorkerCore(core->id()))
            ++live;
    }
    return live;
}

} // namespace altoc::sched
