/**
 * @file
 * Distributed FCFS scheduling (NIC RSS steering, per-core queues).
 *
 * Models the commodity-RSS configuration and IX [8] (Sec. II-D):
 * every core owns a private queue the NIC steers into; cores poll
 * their own queue without synchronization. Scales perfectly but is
 * load-oblivious, so hash skew and service-time variance produce
 * head-of-line blocking and unpredictable tails (Fig. 10's IX/RSS
 * curves).
 */

#ifndef ALTOC_SCHED_DFCFS_HH
#define ALTOC_SCHED_DFCFS_HH

#include <string>
#include <vector>

#include "net/netrx.hh"
#include "sched/scheduler.hh"

namespace altoc::sched {

/**
 * d-FCFS: one FIFO per core, no cross-core balancing.
 */
class DFcfsScheduler : public Scheduler
{
  public:
    struct Config
    {
        /** Label for reports ("RSS", "IX", ...). */
        std::string label = "RSS";

        /**
         * Per-request software overhead charged before the handler
         * runs: queue poll + RPC layer entry. IX pays its dataplane
         * cost here; a bare hardware d-FCFS pays almost nothing.
         */
        Tick dispatchOverhead = lat::kL1;
    };

    explicit DFcfsScheduler(const Config &cfg);

    std::string name() const override { return cfg_.label; }
    unsigned nicQueues() const override;
    void deliver(net::Rpc *r, unsigned queue) override;
    std::size_t numQueues() const override { return queues_.size(); }
    std::size_t
    queueLength(std::size_t q) const override
    {
        return queues_[q].length();
    }

    /** Fail-stop recovery: the NIC re-steers the dead core's flows
     *  to the next live core, which also adopts its backlog. */
    void onCoreDeath(unsigned core_id, net::Rpc *orphan) override;

  protected:
    void onAttach() override;
    void onCompletion(cpu::Core &core, net::Rpc *r) override;

    /** Dispatch the head of @p queue if its core is idle. */
    void tryDispatch(unsigned queue);

    /** Next live core after @p queue cyclically (rescue target and
     *  RSS re-steering destination for a dead core's flows), or -1
     *  when every core is dead -- the caller then sheds via the sink
     *  instead of rescuing. */
    int redirectTarget(unsigned queue) const;

    /** Kick the adoptive core after a rescue. Virtual because
     *  derived schedulers may have the core in a state plain
     *  tryDispatch must not preempt (a work-stealing core mid-steal
     *  rechecks its queue itself when the episode resolves). */
    virtual void dispatchRescued(unsigned succ) { tryDispatch(succ); }

    Config cfg_;
    std::vector<net::NetRxQueue> queues_;
};

} // namespace altoc::sched

#endif // ALTOC_SCHED_DFCFS_HH
