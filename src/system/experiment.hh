/**
 * @file
 * Experiment driver: named design configurations (Table I /
 * Sec. VII-A) plus a one-call "run workload X on design Y" harness
 * used by the benches, examples and integration tests.
 * runExperiment runs every topology, a single server included, as a
 * Rack (system/rack.hh); the MICA runner (system/mica_run.hh) is an
 * adapter over it.
 */

#ifndef ALTOC_SYSTEM_EXPERIMENT_HH
#define ALTOC_SYSTEM_EXPERIMENT_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/group.hh"
#include "core/params.hh"
#include "cpu/core.hh"
#include "net/nic.hh"
#include "net/rpc.hh"
#include "sched/scheduler.hh"
#include "stats/histogram.hh"
#include "system/server.hh"
#include "system/topology.hh"
#include "workload/arrivals.hh"
#include "workload/distributions.hh"
#include "workload/trace.hh"

namespace altoc::system {

/** The evaluated scheduler designs (Sec. VII-A). */
enum class Design : std::uint8_t
{
    Rss,      //!< commodity RSS NIC, d-FCFS
    Ix,       //!< IX dataplane, d-FCFS
    ZygOs,    //!< d-FCFS + work stealing
    Shinjuku, //!< centralized dispatcher + preemption
    RpcValet, //!< NI-driven c-FCFS (JBSQ(1), integrated NIC)
    Nebula,   //!< hardware JBSQ(2), integrated NIC
    NanoPu,   //!< JBSQ(2) + register delivery + preemption
    AcInt,    //!< ALTOCUMULUS on an integrated NIC
    AcRss,    //!< ALTOCUMULUS on a commodity PCIe RSS NIC
    DeadlineDrop, //!< reactive drop-on-deadline c-FCFS (intro's [14,21])
};

const char *designName(Design d);

/** System-side configuration of one run. */
struct DesignConfig
{
    Design design = Design::Rss;
    unsigned cores = 16;

    /** Groups for the AC designs (workers = cores/groups - 1). */
    unsigned groups = 2;

    /** ALTOCUMULUS runtime parameters. */
    core::AltocParams params;

    /** Local dispatch bound within an AC group. */
    unsigned localDepth = 1;

    /** Optional AC worker preemption quantum (extension; kTickInf =
     *  the paper's run-to-completion workers). */
    Tick workerQuantum = kTickInf;

    /** Queueing budget for Design::DeadlineDrop. */
    Tick dropBudget = 10 * kUs;

    /** NIC line rate. */
    double lineRateGbps = 400.0;

    /** Steering override (defaults chosen per design). */
    std::optional<net::Steering> steering;

    /** Custom label (defaults to the scheduler's own name). */
    std::string label;

    /**
     * Rack topology (system/topology.hh): runExperiment builds
     * `rack.servers` copies of the server shape above behind a ToR
     * dispatcher (system/rack.hh). The default of one server is a
     * rack of one -- no ToR draw, no link hop, no server index in the
     * fingerprint.
     */
    RackConfig rack;

    // ----- serial stand-in for bench/perf/altoc_perf.cc ----------------
    // Ignored by every run. bench/perf/altoc_perf.cc sets it, and only
    // a benchmark change may edit that file. It goes with the next
    // benchmark change; nothing else may use it (scripts/lint.sh's
    // bench-stand-in rule; see also Rack::resolveShards,
    // sim::Kernel::ParallelGate and WorkloadSpec::logLatencyHistogram).
    unsigned shards = 1;
};

/** Workload-side configuration of one run. */
struct WorkloadSpec
{
    /** Service-time distribution; required unless trace is set. */
    std::shared_ptr<workload::ServiceDist> service;

    /** Bursty MMPP arrivals instead of Poisson. */
    bool realWorldArrivals = false;

    /** Offered load in million requests per second. */
    double rateMrps = 1.0;

    std::uint64_t requests = 100000;

    unsigned connections = 1024;

    std::uint32_t requestBytes = 300;

    /** SLO target: absolute wins over the L-factor when set. */
    std::optional<Tick> sloAbsolute;
    double sloFactor = 10.0;

    /** Completions ignored before stats record (fraction). */
    double warmupFraction = 0.1;

    /** Replay this trace instead of sampling (rate/requests/service
     *  are then taken from the trace). */
    const workload::Trace *trace = nullptr;

    /** Capture (id, latency, migrated) per completed request. */
    bool capturePerRequest = false;

    /** Print the gem5-style stats dump to stdout after the run. */
    bool dumpStats = false;

    /**
     * Deterministic fault schedule injected into the run (chaos
     * experiments; sim/fault_spec.hh). Default = no faults.
     */
    sim::FaultSpec faults;

    /**
     * Wall-clock bound on the run in simulated ns. Fault-injection
     * runs must set this: an injected loss the protocol fails to
     * recover would otherwise leave stopAfterCompletions unreachable
     * and the run spinning on the runtime's periodic events forever.
     */
    Tick timeLimit = kTickInf;

    /**
     * Binary event tracing (trace/trace.hh). When enabled the run
     * records migration/quarantine/threshold transitions into
     * per-core rings and, if `tracing.file` is set, serializes them
     * after the run. Purely observational: fingerprints and latency
     * results are bit-identical with tracing on or off. (Named
     * `tracing` because `trace` is the replayed workload trace.)
     */
    trace::TraceConfig tracing;

    std::uint64_t seed = 1;

    /**
     * Extra per-request setup, drawn after the connection from the
     * generator's stream (MICA's key and operation sampling). Empty
     * by default.
     */
    std::function<void(net::WireRpc &, Rng &)> decorate;

    /**
     * Per-core service resolver the rack installs on every server
     * (MICA executes the operation and rewrites the demand). Empty by
     * default.
     *
     * A spec whose hooks hold mutable state (the MICA store) must not
     * be shared by concurrent runs (system/parallel_run.hh).
     */
    cpu::Core::ServiceResolver resolve;

    // ----- serial stand-in for bench/perf/altoc_perf.cc ----------------
    // bench/perf/altoc_perf.cc reads it and passes it to SloTracker,
    // and only a benchmark change may edit that file. It must stay
    // false (the Rack constructor asserts it: the log-scale latency
    // store is gone). It goes with the next benchmark change; nothing
    // else may use it (scripts/lint.sh's bench-stand-in rule; see also
    // DesignConfig::shards and SloTracker's second parameter).
    bool logLatencyHistogram = false; // lint:allow bench-stand-in: declaration
};

/** What a run derives from its WorkloadSpec. */
struct DerivedSpec
{
    /** Mean service time and distribution name (the AC model's
     *  inputs). */
    double meanService = 0.0;
    std::string distName;
    Tick slo = 0;
    /** Requests issued (trace length or spec.requests). */
    std::uint64_t total = 0;
    /** Completions ignored before stats record, run-wide. */
    std::uint64_t warmup = 0;
};

DerivedSpec deriveSpec(const WorkloadSpec &spec);

/** Per-request outcome captured when capturePerRequest is set. */
struct RequestOutcome
{
    std::uint64_t id = 0;
    Tick latency = 0;
    bool migrated = false;
    bool predicted = false;
};

/** One server's slice of a rack run (RunResult::perServer). */
struct PerServerResult
{
    std::uint64_t completed = 0;
    std::uint64_t dropped = 0;
    std::uint64_t migrated = 0;
    std::uint64_t requestsShed = 0;
    std::uint64_t coresKilled = 0;
    std::uint64_t requestsRescued = 0;
    std::uint64_t managersFailedOver = 0;
    stats::Summary latency;
    double utilization = 0.0;
    bool dead = false; //!< lost every worker core during the run
};

/** Headline metrics of one run. */
struct RunResult
{
    std::string design;
    double offeredMrps = 0.0;
    double achievedMrps = 0.0;
    stats::Summary latency;
    Tick sloTarget = 0;
    double violationRatio = 0.0;
    std::uint64_t violations = 0;
    std::uint64_t completed = 0;
    double utilization = 0.0;
    PredictionStats predictions;

    /** Requests rejected by drop-based designs. */
    std::uint64_t dropped = 0;

    /** AC-only extras (zero elsewhere). */
    std::uint64_t migrated = 0;
    core::MessagingStats messaging;

    /** Hardened-protocol extras (nonzero only under fault injection). */
    std::uint64_t migratesRetried = 0;
    std::uint64_t migratesTimedOut = 0;
    std::uint64_t peersQuarantined = 0;
    std::uint64_t faultsInjected = 0;

    /** Fail-stop extras (nonzero only under kill specs): cores that
     *  fail-stopped, descriptors rescued off dead cores/groups,
     *  manager groups failed over, and arrivals shed at admission
     *  under degraded capacity. Conservation under any kill spec:
     *  completed + requestsShed == issued (rescued descriptors stay
     *  live and complete on their adoptive core). */
    std::uint64_t coresKilled = 0;
    std::uint64_t requestsRescued = 0;
    std::uint64_t managersFailedOver = 0;
    std::uint64_t requestsShed = 0;

    /** AC-only: peers escalated from quarantine to declared-dead
     *  after repeated half-open probe failures. */
    std::uint64_t peersDeadDeclared = 0;

    /** Tracing extras (nonzero only when WorkloadSpec::tracing is
     *  enabled): records pushed to / evicted from the trace rings. */
    std::uint64_t traceRecords = 0;
    std::uint64_t traceDropped = 0;

    /** Rack extras: servers in the topology, ToR dispatch decisions
     *  and ToR-level sheds (requests arriving with every server
     *  dead); both stay zero for one server. The headline counters
     *  above are rack-wide sums (accumulate); perServer carries each
     *  server's slice when there is more than one. */
    unsigned rackServers = 1;
    std::uint64_t torDispatched = 0;
    std::uint64_t torShed = 0;
    std::vector<PerServerResult> perServer;

    /**
     * Order-sensitive digest of the completion stream: every
     * completion (warmup included) mixes (tick, event type, core id,
     * request id) into an FNV-1a hash (common/fingerprint.hh). Two
     * runs of the same (config, spec) must agree bit-for-bit; the
     * parallel engine and the golden regression suite both key off
     * this field.
     */
    std::uint64_t fingerprint = 0;

    /** Completions mixed into the fingerprint. */
    std::uint64_t fingerprintEvents = 0;

    std::vector<RequestOutcome> perRequest;

    /** True when p99 <= SLO target. */
    bool
    meetsSlo() const
    {
        return latency.p99 <= sloTarget;
    }

    /**
     * Add @p srv's counters to the run's totals: completions, sheds,
     * drops, predictions, fail-stop and AC protocol counters,
     * messaging, injected faults and trace records. Latency,
     * utilization and the fingerprint are not counters and stay with
     * the caller.
     */
    void accumulate(const Server &srv);
};

/**
 * Build the scheduler for a design. @p mean_service and @p dist_name
 * feed the ALTOCUMULUS model for the AC designs.
 */
std::unique_ptr<sched::Scheduler>
makeScheduler(const DesignConfig &cfg, Tick mean_service,
              const std::string &dist_name);

/** NIC configuration a design implies (attach + default steering). */
net::Nic::Config nicConfigFor(const DesignConfig &cfg);

class Rack;

/**
 * Open-loop load generator: draws sampled or trace-replayed requests
 * in wire form and hands them to a rack (ToR pick, then delivery).
 *
 * Per request the draws come in a fixed order: the ToR pick, then the
 * service sample, then the connection, then the spec's decorator. A
 * request the ToR sheds draws nothing from the workload stream.
 */
class LoadGenerator
{
  public:
    LoadGenerator(Rack &rack, const WorkloadSpec &spec);

    /** Schedule all arrivals (trace) or the first arrival (sampled). */
    void start();

    std::uint64_t injected() const { return injected_; }

  private:
    /** Decorate a placed request and hand it to server @p s. */
    void send(int s, net::WireRpc &w);

    void injectNext();

    Rack &rack_;
    sim::Simulator &sim_; //!< the rack's ToR region
    const WorkloadSpec &spec_;
    Rng rng_;
    std::unique_ptr<workload::ArrivalProcess> arrivals_;
    std::uint64_t injected_ = 0;
    Tick nextArrival_ = 0;
};

/**
 * Run one complete experiment and collect metrics. Every topology,
 * one server included, runs as a Rack (system/rack.hh).
 */
RunResult runExperiment(const DesignConfig &cfg, const WorkloadSpec &spec);

} // namespace altoc::system

#endif // ALTOC_SYSTEM_EXPERIMENT_HH
