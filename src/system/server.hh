/**
 * @file
 * The simulated RPC server: simulator + NoC + cores + NIC + a
 * scheduler, wired together with latency accounting.
 *
 * Request lifecycle (matching Sec. VII-B's server-side measurement):
 *   load generator -> Nic::receive (latency epoch)
 *     -> steering + delivery latency -> Scheduler::deliver
 *     -> queueing/dispatch/execution on a Core
 *     -> CompletionSink::onRpcDone: response TX modeled, latency
 *        recorded when the response buffer is freed, descriptor
 *        recycled.
 *
 * A Server runs in a region of a rack's kernel; system::Rack is the
 * only code that builds one, and a single server is a rack of one
 * (system/rack.hh).
 */

#ifndef ALTOC_SYSTEM_SERVER_HH
#define ALTOC_SYSTEM_SERVER_HH

#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "common/inline_fn.hh"
#include "common/rng.hh"
#include "common/units.hh"
#include "core/invariants.hh"
#include "cpu/core.hh"
#include "net/nic.hh"
#include "net/rpc.hh"
#include "noc/mesh.hh"
#include "sched/scheduler.hh"
#include "sim/fault_spec.hh"
#include "sim/simulator.hh"
#include "stats/slo.hh"
#include "trace/trace.hh"

namespace altoc::sim {
class FaultInjector;
} // namespace altoc::sim

namespace altoc::system {

/** Prediction bookkeeping for accuracy metrics (Sec. VIII / IX). */
struct PredictionStats
{
    std::uint64_t predicted = 0;      //!< requests flagged as violators
    std::uint64_t truePositives = 0;  //!< flagged and actually violated
    std::uint64_t falsePositives = 0; //!< flagged but met the SLO
    std::uint64_t actualViolations = 0;

    /** Field-wise sum (rack-wide totals). */
    PredictionStats &
    operator+=(const PredictionStats &o)
    {
        predicted += o.predicted;
        truePositives += o.truePositives;
        falsePositives += o.falsePositives;
        actualViolations += o.actualViolations;
        return *this;
    }

    /** Correctly predicted violations / total violations (Sec. IV-A). */
    double
    accuracy() const
    {
        return actualViolations
                   ? static_cast<double>(truePositives) /
                         static_cast<double>(actualViolations)
                   : 1.0;
    }
};

/**
 * One simulated server machine.
 */
class Server : public sched::CompletionSink
{
  public:
    struct Config
    {
        unsigned cores = 16;
        net::Nic::Config nic;

        /** Position of this server in its rack (0 for a rack of one).
         *  Only affects labeling (trace ring attribution, stats
         *  prefixes); never the event stream. */
        unsigned serverId = 0;

        /** Absolute SLO latency target (ns). */
        Tick sloTarget = 10 * kUs;
        /** Completions ignored before stats start recording. */
        std::uint64_t warmup = 0;
        std::uint64_t seed = 1;

        /**
         * Deterministic fault schedule for this run (chaos testing;
         * sim/fault_spec.hh). Default-constructed = no faults: no
         * injector is created and every fault hook stays unset, so
         * the pristine event stream is reproduced bit-for-bit.
         */
        sim::FaultSpec faults;

        /**
         * Binary event tracing for this run (trace/trace.hh). When
         * enabled, a per-core ring tracer is attached to the
         * scheduler, the messaging layer and the fault injector;
         * recording is memory-only, so the event stream (and thus
         * every fingerprint and golden) is bit-identical with
         * tracing on or off. Default-constructed = no tracer.
         */
        trace::TraceConfig trace;
    };

    /**
     * @param region  the kernel region this server runs in: a rack
     *        gives each server its own, so N servers' events
     *        interleave in (tick, region, seq) order. In audit builds
     *        the server attaches an InvariantAuditor (descriptor
     *        conservation, migrate-at-most-once, Alg. 1 line-8 guard,
     *        monotone time; see core/invariants.hh) to that region;
     *        finishRun() reports any violation and panics.
     */
    Server(const Config &cfg, std::unique_ptr<sched::Scheduler> sched,
           sim::Simulator &region);
    ~Server() override;

    sim::Simulator &sim() { return sim_; }
    net::Nic &nic() { return *nic_; }
    noc::Mesh &mesh() { return *mesh_; }
    sched::Scheduler &scheduler() { return *sched_; }
    const sched::Scheduler &scheduler() const { return *sched_; }

    /**
     * Reserve the latency sample store's capacity for a run of @p n
     * requests, so recording never reallocates it. Reserving writes
     * nothing: the store's pages are touched only as samples land.
     * The descriptor pool is not sized here; it grows a slab at a
     * time to the peak number of requests in flight.
     */
    void
    reserveFor(std::uint64_t n)
    {
        tracker_.reserve(static_cast<std::size_t>(n));
    }

    /** Materialize a descriptor from its wire form and hand it to
     *  the NIC at the current time: the one way a request enters a
     *  server. Allocation happens here, from this server's own pool,
     *  inside its own kernel region. */
    void injectWire(const net::WireRpc &w);

    /** Install a per-core service resolver (MICA substrate hook). */
    void setResolver(cpu::Core::ServiceResolver fn);

    /** Per-completion callback (id, latency) for trace joins. */
    using CompletionHook =
        InlineFunction<void(const net::Rpc &, Tick latency)>;
    void setCompletionHook(CompletionHook fn) { hook_ = std::move(fn); }

    /**
     * Low-level completion probe: fires on every completion (warmup
     * included) with the executing core, the descriptor and the
     * current tick, before the descriptor is recycled. This is the
     * determinism checker's observation point (bench_util.hh hashes
     * the (tick, kind, core, id) stream through it).
     */
    using CompletionProbe = InlineFunction<void(
        const cpu::Core &, const net::Rpc &, Tick now)>;
    void setCompletionProbe(CompletionProbe fn)
    {
        probe_ = std::move(fn);
    }

    // CompletionSink
    void onRpcDone(cpu::Core &core, net::Rpc *r) override;

    /** Scheduler-side shed (every core dead, no rescue target):
     *  accounted exactly like an admission shed, so conservation
     *  (completed + shed == issued) survives whole-machine death. */
    void onRpcShed(net::Rpc *r) override;

    /**
     * End-of-run invariant settlement: when the event queue drained,
     * run the auditor's conservation checks and panic on any recorded
     * violation. The rack calls it on each server after its kernel
     * stops.
     */
    void finishRun();

    /**
     * Count each request this server accounts for (completed, or
     * shed: requestsShed()) into @p counter, and stop the kernel once
     * it reaches @p n. A rack passes every server, and its ToR, one
     * shared counter, which must outlive the run. Designs with
     * periodic activity (the ALTOCUMULUS runtime) never drain their
     * event queue, so open-loop experiments must bound the run by the
     * requests they issued.
     */
    void
    stopAfterCompletions(std::uint64_t *counter, std::uint64_t n)
    {
        done_ = counter;
        stopAfter_ = n;
    }

    const stats::SloTracker &tracker() const { return tracker_; }
    const PredictionStats &predictions() const { return pred_; }

    std::uint64_t completed() const { return completed_; }

    /** Requests rejected by a drop-based scheduler. */
    std::uint64_t dropped() const { return dropped_; }

    /**
     * Requests shed at admission under degraded capacity: once any
     * core has fail-stopped, arrivals are rejected while the backlog
     * exceeds what the surviving workers can absorb, so a shrunk
     * machine degrades to lower throughput instead of unbounded
     * queueing. Shed requests never reach the NIC; conservation
     * becomes completed + shed == issued.
     */
    std::uint64_t requestsShed() const { return requestsShed_; }

    /** Fraction of worker-core time spent executing requests. */
    double workerUtilization() const;

    /** Cores vector (id order). */
    const std::vector<std::unique_ptr<cpu::Core>> &cores() const
    {
        return cores_;
    }

    const Config &config() const { return cfg_; }

    /** Fork a deterministic child RNG (for load generators). */
    Rng forkRng(std::uint64_t salt) { return rng_.fork(salt); }

    /** The invariant auditor, or null outside audit builds. */
    const core::InvariantAuditor *auditor() const
    {
        return auditor_.get();
    }

    /**
     * Called whenever one of this server's cores fail-stops (after
     * the scheduler's recovery path ran). A rack uses it to notice a
     * server losing its last worker and stop dispatching to it.
     */
    using DeathNotifier = InlineFunction<void(unsigned core_id)>;
    void setDeathNotifier(DeathNotifier fn)
    {
        deathNotifier_ = std::move(fn);
    }

    /** The fault injector, or null for a pristine run. */
    sim::FaultInjector *faultInjector() const { return faults_.get(); }

    /** The event tracer, or null for an untraced run. */
    trace::Tracer *tracer() const { return tracer_.get(); }

    /**
     * Serialize the trace rings to @p path (or, with no argument, to
     * the configured trace file). Returns false when tracing is off,
     * no path is known, or the write failed.
     */
    bool writeTrace(const std::string &path = {}) const;

    /**
     * gem5-style end-of-run statistics dump: one line per counter
     * across every component (simulator, NIC, NoC, cores, scheduler
     * queues, latency summary). Writes to @p out (default stdout).
     */
    void dumpStats(std::FILE *out = nullptr) const;

    /**
     * The counter lines of dumpStats without the begin/end banner,
     * each name prepended with @p prefix ("" reproduces dumpStats's
     * body byte-for-byte). Rack dumps emit one block per server under
     * "serverN." prefixes inside a single banner pair.
     */
    void dumpStatsBody(std::FILE *out, const char *prefix) const;

  private:
    /** Admit @p r (or shed it under degraded capacity). */
    void inject(net::Rpc *r);

    /** One more request accounted for (completed or shed): stop the
     *  kernel once the stopAfterCompletions bound is reached. */
    void countTowardStop();

    /** Schedule the spec's scripted kills (kill=, killm=) and arm the
     *  killp window reaper (called once at construction when a fault
     *  injector exists). */
    void scheduleKills();

    /** Execute one fail-stop: record it, kill the core, hand the
     *  orphan to the scheduler's recovery path. Idempotent (a
     *  scripted kill racing a killp decision dies once). */
    void killCore(unsigned core_id);

    /** Manager index owning @p core_id per the scheduler's manager
     *  map, or -1 for worker cores and flat designs. */
    int managerIndexOf(unsigned core_id) const;

    /** killp reaper: evaluate every live worker core's pure-hash
     *  kill decision for @p window, then re-arm for the next window
     *  boundary. */
    void killWindowSweep(std::uint64_t window);

    Config cfg_;
    sim::Simulator &sim_;
    Rng rng_;
    std::unique_ptr<noc::Mesh> mesh_;
    std::unique_ptr<sim::FaultInjector> faults_;
    std::unique_ptr<trace::Tracer> tracer_;
    std::vector<std::unique_ptr<cpu::Core>> cores_;
    std::unique_ptr<sched::Scheduler> sched_;
    std::unique_ptr<net::Nic> nic_;
    net::RpcPool pool_;
    std::unique_ptr<core::InvariantAuditor> auditor_;
    stats::SloTracker tracker_;
    PredictionStats pred_;
    CompletionHook hook_;
    CompletionProbe probe_;
    DeathNotifier deathNotifier_;
    std::uint64_t completed_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t stopAfter_ = ~std::uint64_t{0};
    /** Requests accounted for toward stopAfter_: ownDone_ until
     *  stopAfterCompletions hands over the rack's shared counter, so
     *  countTowardStop never tests for null. */
    std::uint64_t ownDone_ = 0;
    std::uint64_t *done_ = &ownDone_;
    /** At least one core has fail-stopped; admission shedding is
     *  armed (see requestsShed()). */
    bool degraded_ = false;
    std::uint64_t requestsShed_ = 0;
};

} // namespace altoc::system

#endif // ALTOC_SYSTEM_SERVER_HH
