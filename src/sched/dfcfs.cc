/**
 * @file
 * d-FCFS implementation.
 */

#include "sched/dfcfs.hh"

#include "common/logging.hh"
#include "sim/auditor.hh"
#include "trace/trace.hh"

namespace altoc::sched {

DFcfsScheduler::DFcfsScheduler(const Config &cfg)
    : cfg_(cfg)
{
}

unsigned
DFcfsScheduler::nicQueues() const
{
    altoc_assert(!ctx_.cores.empty(), "nicQueues() before attach()");
    return static_cast<unsigned>(ctx_.cores.size());
}

void
DFcfsScheduler::onAttach()
{
    // Queue i belongs to core i; the mapping relies on cores being
    // registered in id order.
    for (std::size_t i = 0; i < ctx_.cores.size(); ++i) {
        altoc_assert(ctx_.cores[i]->id() == i,
                     "cores must be attached in id order");
    }
    queues_.resize(ctx_.cores.size());
}

void
DFcfsScheduler::deliver(net::Rpc *r, unsigned queue)
{
    altoc_assert(queue < queues_.size(), "queue %u out of range", queue);
    if (ctx_.cores[queue]->dead()) {
        const int live = redirectTarget(queue);
        if (live < 0) {
            // Every core is dead: nothing can ever serve this
            // request, so it is shed (NIC in-flight window between
            // the last death and admission shedding kicking in).
            sink_->onRpcShed(r);
            return;
        }
        queue = static_cast<unsigned>(live);
    }
    queues_[queue].enqueue(r, ctx_.sim->now());
    tryDispatch(queue);
}

void
DFcfsScheduler::tryDispatch(unsigned queue)
{
    cpu::Core *core = ctx_.cores[queue];
    if (core->dead() || core->busy())
        return;
    net::Rpc *r = queues_[queue].dequeueHead();
    if (r == nullptr)
        return;
    core->run(r, cfg_.dispatchOverhead);
}

void
DFcfsScheduler::onCompletion(cpu::Core &core, net::Rpc *r)
{
    sink_->onRpcDone(core, r);
    tryDispatch(core.id());
}

int
DFcfsScheduler::redirectTarget(unsigned queue) const
{
    const unsigned n = static_cast<unsigned>(ctx_.cores.size());
    for (unsigned i = 1; i < n; ++i) {
        const unsigned c = (queue + i) % n;
        if (!ctx_.cores[c]->dead())
            return static_cast<int>(c);
    }
    return -1;
}

void
DFcfsScheduler::onCoreDeath(unsigned core_id, net::Rpc *orphan)
{
    altoc_assert(core_id < queues_.size(), "core %u out of range",
                 core_id);
    ++coresDead_;
    const int live = redirectTarget(core_id);
    if (live < 0) {
        // The last core standing died: there is no rescue target, so
        // the orphan and the backlog are shed through the sink. The
        // machine is now fully dead; a rack ToR steers around it.
        if (orphan != nullptr)
            sink_->onRpcShed(orphan);
        while (net::Rpc *r = queues_[core_id].dequeueHead())
            sink_->onRpcShed(r);
        return;
    }
    const unsigned succ = static_cast<unsigned>(live);
    unsigned rescued = 0;
    if (orphan != nullptr) {
        ALTOC_AUDIT_HOOK(ctx_.auditor, onRescue(*orphan, succ));
        queues_[succ].enqueue(orphan, ctx_.sim->now());
        ++rescued;
    }
    while (net::Rpc *r = queues_[core_id].dequeueHead()) {
        ALTOC_AUDIT_HOOK(ctx_.auditor, onRescue(*r, succ));
        queues_[succ].enqueue(r, ctx_.sim->now());
        ++rescued;
    }
    requestsRescued_ += rescued;
    if (rescued > 0) {
        ALTOC_TRACE_HOOK(ctx_.tracer,
                         record(ctx_.sim->now(), succ,
                                trace::TraceKind::DescriptorRescue,
                                trace::tracePack(rescued, core_id)));
    }
    dispatchRescued(succ);
}

} // namespace altoc::sched
