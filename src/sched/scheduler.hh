/**
 * @file
 * Scheduler framework.
 *
 * A Scheduler receives requests from the NIC (deliver()), decides
 * which core runs what and when, and reports finished requests to a
 * CompletionSink (the Server, which records latency and recycles the
 * descriptor). Concrete subclasses implement the designs of Table I:
 *
 *  - DFcfsScheduler        RSS / IX-style per-core queues
 *  - WorkStealingScheduler ZygOS-style d-FCFS + stealing
 *  - CentralizedScheduler  Shinjuku-style dispatcher + preemption
 *  - JbsqScheduler         RPCValet / Nebula / nanoPU JBSQ(n)
 *  - core/GroupScheduler   ALTOCUMULUS two-tier groups (src/core)
 */

#ifndef ALTOC_SCHED_SCHEDULER_HH
#define ALTOC_SCHED_SCHEDULER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/units.hh"
#include "cpu/core.hh"
#include "net/rpc.hh"
#include "noc/mesh.hh"
#include "sim/simulator.hh"

namespace altoc::sim {
class FaultInjector;
} // namespace altoc::sim

namespace altoc::trace {
class Tracer;
} // namespace altoc::trace

namespace altoc::sched {

/** Receives fully processed RPCs for latency accounting / disposal. */
class CompletionSink
{
  public:
    virtual ~CompletionSink() = default;

    /**
     * Called when a request's handler has run to completion on
     * @p core. The sink owns response-path modeling and descriptor
     * recycling; the scheduler must not touch @p r afterwards.
     */
    virtual void onRpcDone(cpu::Core &core, net::Rpc *r) = 0;

    /**
     * Called when the scheduler must dispose of a request it can no
     * longer serve: every core (or group) is dead and no rescue
     * target exists. The sink accounts the request as shed and
     * recycles the descriptor; the scheduler must not touch @p r
     * afterwards. The default panics -- a sink without a fail-stop
     * story treats whole-machine death as fatal, exactly as the
     * schedulers themselves did before rack federation made a fully
     * dead server a survivable failure domain.
     */
    virtual void
    onRpcShed(net::Rpc *r)
    {
        panic("request %llu shed by the scheduler but the sink "
              "cannot account sheds",
              static_cast<unsigned long long>(r->id));
    }
};

/** Everything a scheduler needs from the surrounding system. */
struct SchedContext
{
    sim::Simulator *sim = nullptr;
    noc::Mesh *mesh = nullptr;
    std::vector<cpu::Core *> cores;
    Rng rng;

    /** Invariant auditor, when the owning Server enabled auditing
     *  (audit builds only; otherwise null). Not owned. */
    sim::Auditor *auditor = nullptr;

    /** Fault injector driving this run's fault schedule, or null for
     *  a pristine run. The AC scheduler's hardened migration protocol
     *  (ACK timeouts, retries, peer quarantine) activates only when
     *  set, keeping the no-fault path bit-identical to the paper's
     *  lossless model. Not owned. */
    sim::FaultInjector *faults = nullptr;

    /** Binary event tracer recording migration/quarantine/threshold
     *  transitions, or null for an untraced run (trace builds only;
     *  the hooks compile away otherwise). Recording never schedules
     *  events, so tracing cannot perturb the simulation. Not owned. */
    trace::Tracer *tracer = nullptr;
};

/**
 * Abstract scheduler.
 */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    /**
     * Bind to the system. Installs this scheduler as the completion
     * and preemption handler of every core, then calls onAttach().
     */
    void attach(SchedContext ctx, CompletionSink *sink);

    /** Display name for reports. */
    virtual std::string name() const = 0;

    /** Number of NIC receive queues this design exposes. */
    virtual unsigned nicQueues() const = 0;

    /** NIC delivered @p r into receive queue @p queue. */
    virtual void deliver(net::Rpc *r, unsigned queue) = 0;

    /** Number of queues the design reports (receive-queue
     *  granularity). */
    virtual std::size_t numQueues() const = 0;

    /** Depth of queue @p q, for q < numQueues(). */
    virtual std::size_t queueLength(std::size_t q) const = 0;

    /** Every queue's depth, in queueLength() order. */
    std::vector<std::size_t> queueLengths() const;

    /** Total requests waiting in scheduler queues (not executing).
     *  Allocation-free: a rack's ToR reads it per dispatch. */
    std::size_t totalQueued() const;

    /** Begin periodic activity (e.g. the ALTOCUMULUS runtime). */
    virtual void start() {}

    /**
     * True when core @p core_id executes request handlers. Designs
     * with dedicated dispatcher/manager cores (Shinjuku,
     * ALTOCUMULUS) exclude them here so utilization metrics count
     * only request-serving cores.
     */
    virtual bool
    isWorkerCore(unsigned core_id) const
    {
        (void)core_id;
        return true;
    }

    /**
     * Core @p core_id fail-stopped (fault injection). @p orphan is
     * the request it was executing, or null when it was idle. The
     * scheduler must stop dispatching to the dead core, rescue the
     * orphan and any requests queued on it to a live core, and --
     * for manager designs when the dead core is a manager -- fail
     * the group over to a successor. Designs without a recovery
     * story panic (an unhandled fail-stop must never look like a
     * hang).
     */
    virtual void
    onCoreDeath(unsigned core_id, net::Rpc *orphan)
    {
        (void)orphan;
        panic("scheduler %s cannot survive the death of core %u",
              name().c_str(), core_id);
    }

    /**
     * Core id of manager @p mgr for designs with dedicated manager
     * cores (killm targets), or -1 when the design has none and a
     * killm spec is a documented no-op.
     */
    virtual int
    managerCore(unsigned mgr) const
    {
        (void)mgr;
        return -1;
    }

    /** Cores fail-stopped so far (fault injection). */
    std::uint64_t coresDead() const { return coresDead_; }

    /** Descriptors rescued off dead cores into live queues. */
    std::uint64_t requestsRescued() const { return requestsRescued_; }

    /** Manager groups failed over to a successor. */
    std::uint64_t managersFailedOver() const
    {
        return managersFailedOver_;
    }

    /** Worker cores still able to execute requests (dead ones
     *  excluded; manager designs also exclude workers stranded in a
     *  group whose manager died); degradation-aware admission scales
     *  to this. */
    virtual unsigned liveWorkerCores() const;

  protected:
    /** Subclass hook invoked at the end of attach(). */
    virtual void onAttach() {}

    /** A core finished a request. */
    virtual void onCompletion(cpu::Core &core, net::Rpc *r) = 0;

    /** A core's quantum expired with work remaining. */
    virtual void
    onPreempt(cpu::Core &core, net::Rpc *r)
    {
        (void)core;
        (void)r;
        panic("scheduler %s does not support preemption", name().c_str());
    }

    SchedContext ctx_;
    CompletionSink *sink_ = nullptr;

    /** Recovery accounting, maintained by subclasses' onCoreDeath. */
    std::uint64_t coresDead_ = 0;
    std::uint64_t requestsRescued_ = 0;
    std::uint64_t managersFailedOver_ = 0;
};

} // namespace altoc::sched

#endif // ALTOC_SCHED_SCHEDULER_HH
