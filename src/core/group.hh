/**
 * @file
 * The ALTOCUMULUS two-tier group scheduler (Sec. III / VI / VII-A).
 *
 * Cores are split into groups of one manager + w workers. Across
 * groups the NIC steers arrivals into per-group NetRX queues (global
 * d-FCFS); within a group the manager dispatches to workers (local
 * c-FCFS). Two variants match the paper's configurations:
 *
 *  - ACint: hardware-terminated integrated NIC; group-local dispatch
 *    is the inherited hardware JBSQ pushing descriptors over the NoC
 *    with no manager occupancy -- the manager core only runs the
 *    software runtime.
 *  - ACrss: commodity PCIe RSS NIC; the manager core is a software
 *    dispatcher (Shinjuku-style within the group) paying ~70 cycles
 *    of coherence traffic per hand-off, which caps one manager at
 *    ~28 MRPS. Runtime invocations contend with dispatch for the
 *    manager's cycles, which is exactly how the MSR-vs-ISA interface
 *    cost shows up in throughput (Fig. 14).
 *
 * Every `period` ns each manager runs Algorithm 1: refresh + broadcast
 * queue lengths (UPDATE), recompute the threshold from the Erlang-C
 * model, classify the load pattern, and issue guarded MIGRATE batches
 * through the hardware messaging mechanism.
 */

#ifndef ALTOC_CORE_GROUP_HH
#define ALTOC_CORE_GROUP_HH

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/ring_deque.hh"
#include "core/hw_messaging.hh"
#include "core/params.hh"
#include "core/prediction.hh"
#include "core/runtime.hh"
#include "net/netrx.hh"
#include "sched/scheduler.hh"

namespace altoc::core {

class InvariantAuditor;

/**
 * ALTOCUMULUS scheduler.
 */
class GroupScheduler : public sched::Scheduler
{
  public:
    enum class Variant : std::uint8_t
    {
        Int, //!< integrated NIC, hardware local JBSQ
        Rss, //!< PCIe RSS NIC, software manager dispatch
    };

    struct Config
    {
        unsigned numGroups = 4;
        unsigned workersPerGroup = 15;
        Variant variant = Variant::Int;
        AltocParams params;

        /** Per-worker outstanding-request bound for local dispatch.
         *  The paper's worker tiles queue at most 2 requests (Fig. 8);
         *  we default to 1 (dispatch to idle workers only), which
         *  avoids short-behind-long head-of-line blocking in local
         *  queues -- see DESIGN.md and the depth ablation bench. */
        unsigned localDepth = 1;

        /** Mean request service time (model + load estimator input). */
        Tick meanService = 850;

        /** Service distribution name for Eq. 2 constants. */
        std::string distName = "Fixed";

        /**
         * Optional worker preemption quantum (extension beyond the
         * paper): kTickInf keeps the paper's run-to-completion
         * workers; a finite quantum rotates long requests back to
         * the group's NetRX so shorts are never head-of-line blocked
         * (nanoPU-style, but at the group tier). Preempted requests
         * pay preemptCost of extra demand per rotation.
         */
        Tick workerQuantum = kTickInf;
        Tick preemptCost = 200;

        /** Report label; derived from the variant when empty. */
        std::string label;
    };

    explicit GroupScheduler(const Config &cfg);

    // Scheduler interface.
    std::string name() const override;
    unsigned nicQueues() const override { return cfg_.numGroups; }
    void deliver(net::Rpc *r, unsigned queue) override;
    std::size_t numQueues() const override { return groups_.size(); }
    std::size_t
    queueLength(std::size_t q) const override
    {
        return groups_[q].rx.length();
    }
    void start() override;

    /** Manager cores run the runtime, never request handlers. */
    bool
    isWorkerCore(unsigned core_id) const override
    {
        return core_id % (cfg_.workersPerGroup + 1) != 0;
    }

    /** Aggregate messaging statistics. */
    const MessagingStats &messagingStats() const;

    /** Total requests that left their home queue via MIGRATE. */
    std::uint64_t requestsMigrated() const { return reqsMigrated_; }

    /** Runtime invocations across all managers. */
    std::uint64_t runtimeTicks() const { return runtimeTicks_; }

    /** Runtime invocations whose local queue was shorter than one
     *  MIGRATE batch (migrateBatch): they solved no threshold and
     *  decided nothing past classification. */
    std::uint64_t periodsBelowBatch() const { return periodsBelowBatch_; }

    /** Pattern occurrence counts, indexed by core::Pattern. */
    const std::array<std::uint64_t, 4> &patternCounts() const
    {
        return patternCounts_;
    }

    /** The threshold model in use (for introspection / benches). */
    const ThresholdModel &model() const { return *model_; }

    const Config &config() const { return cfg_; }

    /** Worker preemptions observed (workerQuantum extension). */
    std::uint64_t preemptions() const { return preemptions_; }

    /** Timed-out MIGRATE batches re-sent to an alternate peer. */
    std::uint64_t migratesRetried() const { return migratesRetried_; }

    /** ACK-timeout events observed across all managers. */
    std::uint64_t migratesTimedOut() const { return migratesTimedOut_; }

    /** Quarantine entries opened (cumulative over the run). */
    std::uint64_t peersQuarantined() const { return peersQuarantined_; }

    /** (observer, peer) pairs currently masked out by quarantine. */
    std::size_t quarantinedNow() const;

    /** (observer, peer) verdicts escalated to declared-dead. */
    std::uint64_t peersDeadDeclared() const { return peersDeadDeclared_; }

    /**
     * Fail-stop recovery (Sec. "failure domains" in DESIGN.md): a
     * dead worker's local queue and in-flight descriptor are rescued
     * into the group's NetRX; a dead manager's group fails over to a
     * deterministic live successor that adopts its pending arrivals
     * and keeps serving its flows.
     */
    void onCoreDeath(unsigned core_id, net::Rpc *orphan) override;

    /** Manager core of group @p mgr (killm target). */
    int
    managerCore(unsigned mgr) const override
    {
        if (mgr >= cfg_.numGroups)
            return -1;
        return static_cast<int>(mgr * (cfg_.workersPerGroup + 1));
    }

    /** Dead workers and workers stranded in failed-over groups are
     *  not schedulable. */
    unsigned liveWorkerCores() const override;

  protected:
    void onAttach() override;
    void onCompletion(cpu::Core &core, net::Rpc *r) override;
    void onPreempt(cpu::Core &core, net::Rpc *r) override;

  private:
    /**
     * One manager's view of a peer's health (hardened protocol;
     * only consulted when a fault injector is attached). Consecutive
     * timeouts/NACKs quarantine the peer: its queue view is masked so
     * Algorithm 1 never picks it, until a probation period passes and
     * a half-open probe migration is allowed to test recovery.
     */
    struct PeerHealth
    {
        unsigned consecFailures = 0;
        bool quarantined = false;
        /** Masked until this tick; past it the peer is half-open. */
        Tick probeAt = 0;
        /** Half-open probes that failed while quarantined. Each one
         *  backs the probation clock off exponentially; reaching
         *  HardeningParams::deadAfterProbes escalates to dead. */
        unsigned probeFailures = 0;
        /** Verdict escalated to declared-dead: permanently masked,
         *  never probed or rejoined again. */
        bool deadDeclared = false;
    };

    struct Group
    {
        unsigned managerCore = 0;
        std::vector<unsigned> workerCores;
        net::NetRxQueue rx;
        /** Outstanding (running + queued + in flight) per worker. */
        std::vector<unsigned> occupancy;
        /** Bit w set iff occupancy[w] == 0; maintained (and used by
         *  pickWorker) when localDepth == 1 and the group fits in 64
         *  bits, turning worker selection into a countr_zero. */
        std::uint64_t idleMask = 0;
        /** Worker-local queues (depth-bounded). */
        std::vector<RingDeque<net::Rpc *>> local;
        /** Synchronized queue-length view (Algorithm 1's q). Peer
         *  entries refresh from the UPDATE registers only where the
         *  runtime reads them (HwMessaging::readUpdates). */
        std::vector<std::size_t> qView;
        /** Next time the manager core is free (Rss variant). */
        Tick managerFree = 0;
        bool dispatchPending = false;
        std::optional<LoadEstimator> estimator;
        /** This manager's health view of every peer group. */
        std::vector<PeerHealth> peers;
        /** Manager core fail-stopped: the group no longer runs the
         *  runtime or accepts arrivals; its surviving workers drain
         *  their local backlog and then idle. */
        bool dead = false;
        /** Per-worker fail-stop flags (workerDead[w] != 0). */
        std::vector<std::uint8_t> workerDead;
        /** Erlang-C model recomputed for the shrunk worker set after
         *  a worker death; null while all workers live (the shared
         *  model_ applies). */
        std::unique_ptr<ThresholdModel> shrunkModel;
    };

    unsigned groupOfCore(unsigned core) const { return coreGroup_[core]; }

    /** Dispatch pump, variant-dispatching. */
    void pump(unsigned g);
    void pumpInt(unsigned g);
    void pumpRss(unsigned g);
    void finishRssDispatch(unsigned g);

    /** A pushed descriptor lands at worker slot @p w of group @p g. */
    void arriveWorker(unsigned g, unsigned w, net::Rpc *r);
    void tryRunWorker(unsigned g, unsigned w);

    /** Pick the least-occupied worker with room; -1 if none. */
    int pickWorker(const Group &grp) const;

    /** Occupancy updates route through these so idleMask stays
     *  coherent with occupancy[w]. */
    void
    occupancyInc(Group &grp, unsigned w)
    {
        if (++grp.occupancy[w] == 1 && idleMaskUsable_)
            grp.idleMask &= ~(std::uint64_t{1} << w);
    }
    void
    occupancyDec(Group &grp, unsigned w)
    {
        if (--grp.occupancy[w] == 0 && idleMaskUsable_ &&
            grp.workerDead[w] == 0) {
            grp.idleMask |= std::uint64_t{1} << w;
        }
    }

    /** Periodic Algorithm 1 invocation for manager @p g. */
    void runtimeTick(unsigned g);

    /** Line 3: group @p grp's migration threshold T right now. */
    unsigned periodThreshold(const Group &grp) const;

    /** Collect up to @p count migratable requests from the RX tail
     *  into batchScratch_; the returned reference is valid until the
     *  next collectFromTail() call. */
    const std::vector<net::Rpc *> &collectFromTail(unsigned g,
                                                   unsigned count,
                                                   unsigned threshold);

    /** Hardware messaging callbacks. */
    void onMigrateIn(unsigned g, const std::vector<net::Rpc *> &reqs);
    void onReturn(unsigned g, unsigned dst,
                  const std::vector<net::Rpc *> &reqs);
    void onMigrateAcked(unsigned g, unsigned dst);
    void onMigrateTimeout(unsigned g, unsigned dst,
                          std::vector<net::Rpc *> reqs, unsigned attempt);

    /** Degraded operation is active (a fault injector is attached). */
    bool hardened() const { return ctx_.faults != nullptr; }

    /** Peer @p dst is currently masked out of @p grp's view. */
    bool peerMasked(const Group &grp, unsigned dst) const;

    /** Re-send a timed-out batch to the best peer other than
     *  @p avoid, or reclaim it locally when no peer qualifies. */
    void retryMigrate(unsigned g, unsigned avoid,
                      std::vector<net::Rpc *> reqs, unsigned attempt);

    /** Fold a reclaimed batch back into the local NetRX (graceful
     *  degradation to group-local c-FCFS). */
    void reclaimLocal(unsigned g, std::vector<net::Rpc *> reqs);

    void peerFailure(unsigned g, unsigned dst);
    void peerSuccess(unsigned g, unsigned dst);

    /** Fail-stop handlers, split by the dead core's role. */
    void killWorker(unsigned g, unsigned w, net::Rpc *orphan);
    void failOverGroup(unsigned g);

    /** Next live group after @p g cyclically; the failover successor
     *  and the redirect target for arrivals steered at dead groups.
     *  -1 when every group is dead: callers shed via the sink. */
    int successorOf(unsigned g) const;

    /** Move @p r into group @p g's NetRX as a rescued descriptor
     *  (audited, counted, traced by the caller). */
    void rescueInto(unsigned g, net::Rpc *r);

    /** A batch bounced back (NACK return, timeout reclaim, failed
     *  retry) to dead group @p g: rescue it into the successor. */
    void rescueReturned(unsigned g, const std::vector<net::Rpc *> &reqs);

    /** The threshold model governing group @p g (shrunk-set override
     *  after a worker death, shared model otherwise). */
    const ThresholdModel &modelFor(const Group &grp) const
    {
        return grp.shrunkModel ? *grp.shrunkModel : *model_;
    }

    Config cfg_;
    /** S, the descriptors one MIGRATE carries (migrateBatch). */
    unsigned batch_;
    /** pickWorker may use Group::idleMask (see there). */
    bool idleMaskUsable_ = false;
    /** Concrete view of ctx_.auditor for the scheduler-level checks
     *  (set at attach in audit builds; null otherwise). */
    InvariantAuditor *audit_ = nullptr;
    std::vector<Group> groups_;
    std::vector<unsigned> coreGroup_;
    std::unique_ptr<ThresholdModel> model_;
    std::unique_ptr<HwMessaging> msg_;
    std::uint64_t reqsMigrated_ = 0;
    std::uint64_t runtimeTicks_ = 0;
    std::uint64_t preemptions_ = 0;
    std::uint64_t migratesRetried_ = 0;
    std::uint64_t migratesTimedOut_ = 0;
    std::uint64_t peersQuarantined_ = 0;
    std::uint64_t peersDeadDeclared_ = 0;
    std::uint64_t periodsBelowBatch_ = 0;
    std::array<std::uint64_t, 4> patternCounts_{};

    /** Per-period working storage, reused across ticks so a warm
     *  runtime invocation performs no heap allocation. The simulation
     *  is single-threaded and each tick fully consumes these before
     *  returning, so one set is shared by all managers. */
    std::vector<net::Rpc *> batchScratch_;
    std::vector<net::Rpc *> skipScratch_;
    std::vector<std::size_t> maskedScratch_;
    RuntimeScratch runtimeScratch_;
    RuntimeDecision decisionScratch_;
};

} // namespace altoc::core

#endif // ALTOC_CORE_GROUP_HH
