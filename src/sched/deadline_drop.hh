/**
 * @file
 * Reactive deadline-based dropping (the prior-art contrast of the
 * paper's introduction: "critical RPCs are identified *after* they
 * have violated end-to-end latency requirements and are simply
 * dropped [14], [21]" -- MittOS-style fast rejection).
 *
 * RSS-steered per-core d-FCFS queues (no rebalancing, as in the
 * cited prior art) check each request's age at dispatch time: if the
 * queueing delay has already consumed the latency budget, the
 * request is rejected instead of executed. Rejected requests still
 * complete (the client gets an error) but count as dropped; goodput
 * is what survives. The ALTOCUMULUS comparison bench shows proactive
 * migration fixes the same imbalance *without* rejecting work.
 */

#ifndef ALTOC_SCHED_DEADLINE_DROP_HH
#define ALTOC_SCHED_DEADLINE_DROP_HH

#include <cstdint>

#include "net/netrx.hh"
#include "sched/scheduler.hh"

namespace altoc::sched {

/**
 * d-FCFS with reactive drop-on-deadline.
 */
class DeadlineDropScheduler : public Scheduler
{
  public:
    struct Config
    {
        std::string label = "DeadlineDrop";

        /** Queueing budget: a request whose age exceeds this at
         *  dispatch is rejected. */
        Tick budget = 10 * kUs;

        /** NIC-to-core push latency. */
        Tick dispatchLatency = lat::kLlc;

        /** Handler time consumed producing the rejection response. */
        Tick rejectCost = 50;
    };

    explicit DeadlineDropScheduler(const Config &cfg);

    std::string name() const override { return cfg_.label; }
    unsigned nicQueues() const override;
    void deliver(net::Rpc *r, unsigned queue) override;
    std::size_t numQueues() const override { return queues_.size(); }
    std::size_t
    queueLength(std::size_t q) const override
    {
        return queues_[q].length();
    }

    /** Requests rejected past their budget. */
    std::uint64_t dropped() const { return dropped_; }

  protected:
    void onAttach() override;
    void onCompletion(cpu::Core &core, net::Rpc *r) override;

  private:
    /** Run the head of @p queue on its core, dropping stale work. */
    void tryDispatch(unsigned queue);

    Config cfg_;
    std::vector<net::NetRxQueue> queues_;
    std::uint64_t dropped_ = 0;
};

} // namespace altoc::sched

#endif // ALTOC_SCHED_DEADLINE_DROP_HH
