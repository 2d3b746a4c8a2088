/**
 * @file
 * Work-stealing implementation.
 *
 * Event flow: when a core completes and its own queue is empty, it
 * enters a steal episode -- pick a random victim, pay the steal
 * latency, then grab the victim queue's head if still present. A core
 * in a steal episode is not marked busy (the core model only tracks
 * request execution), so `stealing_` guards against double dispatch:
 * arrivals landing on a stealing core's own queue wait until the
 * episode resolves, mirroring a real core stuck in a remote cache
 * miss chain.
 */

#include "sched/work_stealing.hh"

#include "common/logging.hh"

namespace altoc::sched {

WorkStealingScheduler::WorkStealingScheduler(const Config &cfg)
    : DFcfsScheduler(DFcfsScheduler::Config{cfg.label,
                                            cfg.dispatchOverhead}),
      wsCfg_(cfg)
{
    altoc_assert(cfg.stealMin <= cfg.stealMax, "steal bounds inverted");
    altoc_assert(cfg.maxProbes >= 1, "need at least one probe");
}

void
WorkStealingScheduler::onAttach()
{
    DFcfsScheduler::onAttach();
    stealing_.assign(ctx_.cores.size(), false);
}

void
WorkStealingScheduler::deliver(net::Rpc *r, unsigned queue)
{
    altoc_assert(queue < queues_.size(), "queue %u out of range", queue);
    // A dead core's queue is unreachable -- stealers read dead
    // victims as empty -- so arrivals steered at it must be
    // redirected, exactly as plain d-FCFS does (or shed when every
    // core is dead).
    if (ctx_.cores[queue]->dead()) {
        const int live = redirectTarget(queue);
        if (live < 0) {
            sink_->onRpcShed(r);
            return;
        }
        queue = static_cast<unsigned>(live);
    }
    queues_[queue].enqueue(r, ctx_.sim->now());
    // The owning core may be mid-steal; it will recheck its queue
    // when the episode resolves.
    if (!stealing_[queue])
        tryDispatch(queue);
    // If the request is still queued (owner busy or stealing), poke a
    // parked core so it resumes its polling loop.
    if (!queues_[queue].empty())
        wakeIdleCore();
}

void
WorkStealingScheduler::wakeIdleCore()
{
    while (!parked_.empty()) {
        const unsigned id = parked_.back();
        parked_.pop_back();
        cpu::Core *core = ctx_.cores[id];
        if (!core->dead() && !core->busy() && !stealing_[id] &&
            queues_[id].empty()) {
            beginSteal(id);
            return;
        }
    }
}

void
WorkStealingScheduler::dispatchRescued(unsigned succ)
{
    // The adoptive core may be mid-steal; its episode rechecks the
    // local queue when it resolves, so dispatching here would make a
    // "stealing" core busy. Wake a parked core instead so rescued
    // work never waits on a busy adopter.
    if (!stealing_[succ])
        tryDispatch(succ);
    if (!queues_[succ].empty())
        wakeIdleCore();
}

int
WorkStealingScheduler::pickVictim(unsigned thief)
{
    const unsigned n = static_cast<unsigned>(queues_.size());
    unsigned live_peers = 0;
    for (unsigned i = 0; i < n; ++i) {
        if (i != thief && !ctx_.cores[i]->dead())
            ++live_peers;
    }
    if (live_peers == 0)
        return -1;
    unsigned victim = thief;
    while (victim == thief || ctx_.cores[victim]->dead())
        victim = static_cast<unsigned>(ctx_.rng.below(n));
    return static_cast<int>(victim);
}

void
WorkStealingScheduler::onCompletion(cpu::Core &core, net::Rpc *r)
{
    sink_->onRpcDone(core, r);
    const unsigned self = core.id();
    if (!queues_[self].empty()) {
        tryDispatch(self);
        return;
    }
    beginSteal(self);
}

void
WorkStealingScheduler::beginSteal(unsigned thief)
{
    // Random victim selection, as in ZygOS; the probe pays its
    // latency regardless of outcome. Dead cores neither steal nor
    // get picked as victims.
    const unsigned n = static_cast<unsigned>(queues_.size());
    if (n <= 1 || ctx_.cores[thief]->dead())
        return;
    const int victim = pickVictim(thief);
    if (victim < 0)
        return;
    stealing_[thief] = true;
    const Tick cost =
        ctx_.rng.range(wsCfg_.stealMin, wsCfg_.stealMax);
    ctx_.sim->after(cost, [this, thief, victim] {
        finishSteal(thief, static_cast<unsigned>(victim),
                    wsCfg_.maxProbes - 1);
    });
}

void
WorkStealingScheduler::finishSteal(unsigned thief, unsigned victim,
                                   unsigned probes_left)
{
    stealing_[thief] = false;
    cpu::Core *core = ctx_.cores[thief];
    if (core->dead()) {
        // The thief was killed mid-episode; it grabbed nothing, so
        // the episode simply evaporates.
        return;
    }
    altoc_assert(!core->busy(), "stealing core became busy mid-episode");

    // Local work that arrived during the steal takes priority.
    if (!queues_[thief].empty()) {
        tryDispatch(thief);
        return;
    }

    // A victim killed while the miss chain resolved reads as empty:
    // its queue was already rescued to a live core.
    net::Rpc *stolen = ctx_.cores[victim]->dead()
                           ? nullptr
                           : queues_[victim].dequeueHead();
    if (stolen != nullptr) {
        ++steals_;
        core->run(stolen, wsCfg_.dispatchOverhead);
        return;
    }

    if (probes_left > 0) {
        const int next = pickVictim(thief);
        if (next < 0)
            return;
        stealing_[thief] = true;
        const Tick cost =
            ctx_.rng.range(wsCfg_.stealMin, wsCfg_.stealMax);
        ctx_.sim->after(cost, [this, thief, next, probes_left] {
            finishSteal(thief, static_cast<unsigned>(next),
                        probes_left - 1);
        });
        return;
    }
    // Park until new work arrives anywhere in the system.
    parked_.push_back(thief);
}

} // namespace altoc::sched
