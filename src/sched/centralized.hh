/**
 * @file
 * Centralized FCFS with a dedicated dispatcher core and preemption
 * (Shinjuku [26]).
 *
 * Core 0 is the dispatcher: it never runs handlers, consumes a
 * single central queue, and hands each request to an idle worker via
 * the cache coherence protocol. The dispatcher is a serial resource
 * with a fixed per-dispatch cost, which caps its throughput (the
 * paper quotes 5 M requests/s, i.e. 200 ns per dispatch, Sec. II-D).
 * Workers run with a preemption quantum (5 us); preempted requests
 * return to the tail of the central queue, approximating processor
 * sharing for long requests and avoiding head-of-line blocking.
 */

#ifndef ALTOC_SCHED_CENTRALIZED_HH
#define ALTOC_SCHED_CENTRALIZED_HH

#include <cstdint>

#include "net/netrx.hh"
#include "sched/scheduler.hh"

namespace altoc::sched {

/**
 * Shinjuku-style c-FCFS scheduler.
 */
class CentralizedScheduler : public Scheduler
{
  public:
    struct Config
    {
        std::string label = "Shinjuku";

        /** Serial dispatcher occupancy per hand-off; 200 ns matches
         *  the quoted 5 M req/s ceiling. */
        Tick dispatchCost = 200;

        /** Coherence hand-off latency dispatcher -> worker. */
        Tick handoffLatency = lat::kCoherenceDispatch;

        /** Preemption quantum; kTickInf disables preemption. */
        Tick quantum = 5 * kUs;

        /** Cost of a preemption (interrupt + context switch), charged
         *  to the preempted request when it resumes. */
        Tick preemptCost = 1 * kUs;
    };

    explicit CentralizedScheduler(const Config &cfg);

    std::string name() const override { return cfg_.label; }
    unsigned nicQueues() const override { return 1; }
    void deliver(net::Rpc *r, unsigned queue) override;
    std::size_t numQueues() const override { return 1; }
    std::size_t
    queueLength(std::size_t) const override
    {
        return central_.length();
    }

    /** Number of quantum expiries observed. */
    std::uint64_t preemptions() const { return preemptions_; }

    /** Core 0 is the dispatcher and never serves requests. */
    bool
    isWorkerCore(unsigned core_id) const override
    {
        return core_id != 0;
    }

  protected:
    void onAttach() override;
    void onCompletion(cpu::Core &core, net::Rpc *r) override;
    void onPreempt(cpu::Core &core, net::Rpc *r) override;

  private:
    /** Kick the dispatcher loop if it is idle and work exists. */
    void pump();

    /** One dispatcher iteration completes: hand work to a worker. */
    void dispatchOne();

    /** Find an idle worker; nullptr if all busy. */
    cpu::Core *idleWorker();

    Config cfg_;
    net::NetRxQueue central_;
    bool dispatcherBusy_ = false;
    std::uint64_t preemptions_ = 0;
};

} // namespace altoc::sched

#endif // ALTOC_SCHED_CENTRALIZED_HH
