/**
 * @file
 * Hardware JBSQ(n) scheduling (RPCValet [11], Nebula [61],
 * nanoPU [23]).
 *
 * A NIC-resident central queue pushes requests to cores whose local
 * occupancy is below a bound n ("Join-Bounded-Shortest-Queue",
 * Sec. II-D / VII-A): every time a core holds fewer than n requests,
 * the hardware pushes it the head of the central queue. Because the
 * scheduler is hardware there is no dispatcher throughput ceiling;
 * the cost is the NIC-to-core hop, which differs per design:
 *  - RPCValet: coherent integrated NIC, depth 1, LLC-speed hand-off;
 *  - Nebula:   depth 2, LLC-speed hand-off, no preemption -- short
 *    requests can be stuck behind a long one already in a local
 *    queue (its Fig. 10 tail pathology);
 *  - nanoPU:   depth 2, register-file delivery (a few ns), plus a
 *    piggybacked preemption mechanism that bounds how long a long
 *    request can block its core.
 */

#ifndef ALTOC_SCHED_JBSQ_HH
#define ALTOC_SCHED_JBSQ_HH

#include <cstdint>

#include "common/ring_deque.hh"
#include "net/netrx.hh"
#include "sched/scheduler.hh"

namespace altoc::sched {

/**
 * JBSQ(n) with a hardware central queue.
 */
class JbsqScheduler : public Scheduler
{
  public:
    struct Config
    {
        std::string label = "Nebula";

        /** Bound on per-core outstanding requests (the n in JBSQ(n)). */
        unsigned depth = 2;

        /** NIC-to-core push latency. */
        Tick dispatchLatency = lat::kLlc;

        /** Preemption quantum; kTickInf disables preemption. Each
         *  preemption costs lat::kHwThreadSwap of extra demand. */
        Tick quantum = kTickInf;

        /**
         * Coherence domains. Integrated-NIC schedulers cannot push
         * across a coherence domain (Sec. II-D: "NIC-to-core
         * transfers are also restricted to the same coherence
         * domain"), so a machine larger than one domain becomes
         * `domains` independent JBSQ shards with NIC steering across
         * them and *no* cross-shard rebalancing -- the scale-out
         * baseline of case study 1. Cores are split contiguously.
         */
        unsigned domains = 1;
    };

    explicit JbsqScheduler(const Config &cfg);

    /** Named factory configs matching the paper's baselines. */
    static Config rpcValet();
    static Config nebula();
    static Config nanoPu();

    std::string name() const override { return cfg_.label; }
    unsigned nicQueues() const override { return cfg_.domains; }
    void deliver(net::Rpc *r, unsigned queue) override;
    /** Central queues first (one per domain), then per-core local
     *  queues. */
    std::size_t
    numQueues() const override
    {
        return central_.size() + local_.size();
    }
    std::size_t
    queueLength(std::size_t q) const override
    {
        return q < central_.size() ? central_[q].length()
                                   : local_[q - central_.size()].size();
    }

    std::uint64_t preemptions() const { return preemptions_; }

  protected:
    void onAttach() override;
    void onCompletion(cpu::Core &core, net::Rpc *r) override;
    void onPreempt(cpu::Core &core, net::Rpc *r) override;

  private:
    /** Push domain @p d's central-queue heads to its cores. */
    void fill(unsigned d);

    /** A pushed request lands in @p core's local queue. */
    void arriveLocal(unsigned core, net::Rpc *r);

    /** Start the core on its local queue head if idle. */
    void tryRun(unsigned core);

    unsigned domainOf(unsigned core) const
    {
        return core / coresPerDomain_;
    }

    Config cfg_;
    unsigned coresPerDomain_ = 0;
    std::vector<net::NetRxQueue> central_;
    std::vector<RingDeque<net::Rpc *>> local_;
    /** Running + queued + in-flight pushes, per core. */
    std::vector<unsigned> occupancy_;
    std::uint64_t preemptions_ = 0;
};

} // namespace altoc::sched

#endif // ALTOC_SCHED_JBSQ_HH
