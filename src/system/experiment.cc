/**
 * @file
 * Experiment driver implementation.
 */

#include "system/experiment.hh"

#include <algorithm>
#include <optional>
#include <vector>

#include "common/fingerprint.hh"
#include "common/logging.hh"
#include "sim/fault_injector.hh"
#include "sched/centralized.hh"
#include "sched/dfcfs.hh"
#include "sched/deadline_drop.hh"
#include "sched/jbsq.hh"
#include "sched/work_stealing.hh"
#include "cpu/topology.hh"
#include "system/rack.hh"

namespace altoc::system {

const char *
designName(Design d)
{
    switch (d) {
      case Design::Rss:
        return "RSS";
      case Design::Ix:
        return "IX";
      case Design::ZygOs:
        return "ZygOS";
      case Design::Shinjuku:
        return "Shinjuku";
      case Design::RpcValet:
        return "RPCValet";
      case Design::Nebula:
        return "Nebula";
      case Design::NanoPu:
        return "nanoPU";
      case Design::AcInt:
        return "AC_int";
      case Design::AcRss:
        return "AC_rss";
      case Design::DeadlineDrop:
        return "DeadlineDrop";
    }
    return "?";
}

std::unique_ptr<sched::Scheduler>
makeScheduler(const DesignConfig &cfg, Tick mean_service,
              const std::string &dist_name)
{
    switch (cfg.design) {
      case Design::Rss:
        {
            sched::DFcfsScheduler::Config c;
            c.label = cfg.label.empty() ? "RSS" : cfg.label;
            return std::make_unique<sched::DFcfsScheduler>(c);
        }
      case Design::Ix:
        {
            sched::DFcfsScheduler::Config c;
            c.label = cfg.label.empty() ? "IX" : cfg.label;
            // IX's dataplane batches adaptively; the residual
            // per-request scheduling cost is roughly a cache-miss
            // pair on the RX descriptor ring.
            c.dispatchOverhead = 2 * lat::kLlc;
            return std::make_unique<sched::DFcfsScheduler>(c);
        }
      case Design::ZygOs:
        {
            sched::WorkStealingScheduler::Config c;
            if (!cfg.label.empty())
                c.label = cfg.label;
            return std::make_unique<sched::WorkStealingScheduler>(c);
        }
      case Design::Shinjuku:
        {
            sched::CentralizedScheduler::Config c;
            if (!cfg.label.empty())
                c.label = cfg.label;
            return std::make_unique<sched::CentralizedScheduler>(c);
        }
      case Design::RpcValet:
      case Design::Nebula:
      case Design::NanoPu:
        {
            sched::JbsqScheduler::Config c =
                cfg.design == Design::RpcValet
                    ? sched::JbsqScheduler::rpcValet()
                    : cfg.design == Design::Nebula
                          ? sched::JbsqScheduler::nebula()
                          : sched::JbsqScheduler::nanoPu();
            if (!cfg.singleCoherenceDomain &&
                cfg.cores > cpu::kCoresPerSocket) {
                altoc_assert(cfg.cores % cpu::kCoresPerSocket == 0,
                             "core count must be a multiple of the "
                             "coherence-domain size beyond one socket");
                c.domains = cfg.cores / cpu::kCoresPerSocket;
            }
            if (!cfg.label.empty())
                c.label = cfg.label;
            return std::make_unique<sched::JbsqScheduler>(c);
        }
      case Design::DeadlineDrop:
        {
            sched::DeadlineDropScheduler::Config c;
            if (!cfg.label.empty())
                c.label = cfg.label;
            c.budget = cfg.dropBudget;
            return std::make_unique<sched::DeadlineDropScheduler>(c);
        }
      case Design::AcInt:
      case Design::AcRss:
        {
            core::GroupScheduler::Config c;
            altoc_assert(cfg.groups >= 1 && cfg.cores % cfg.groups == 0,
                         "cores (%u) must divide into groups (%u)",
                         cfg.cores, cfg.groups);
            const unsigned per_group = cfg.cores / cfg.groups;
            altoc_assert(per_group >= 2,
                         "each group needs a manager and a worker");
            c.numGroups = cfg.groups;
            c.workersPerGroup = per_group - 1;
            c.variant = cfg.design == Design::AcInt
                            ? core::GroupScheduler::Variant::Int
                            : core::GroupScheduler::Variant::Rss;
            c.params = cfg.params;
            c.localDepth = cfg.localDepth;
            c.nucaPayload = cfg.nucaPayload;
            c.workerQuantum = cfg.workerQuantum;
            c.meanService = mean_service;
            c.distName = dist_name;
            c.label = cfg.label;
            return std::make_unique<core::GroupScheduler>(c);
        }
    }
    panic("unknown design");
}

net::Nic::Config
nicConfigFor(const DesignConfig &cfg)
{
    net::Nic::Config n;
    n.lineRateGbps = cfg.lineRateGbps;
    switch (cfg.design) {
      case Design::Rss:
      case Design::Ix:
      case Design::ZygOs:
        n.attach = net::NicAttach::Pcie;
        n.steering = net::Steering::Rss;
        break;
      case Design::Shinjuku:
        n.attach = net::NicAttach::Pcie;
        n.steering = net::Steering::Central;
        break;
      case Design::RpcValet:
      case Design::Nebula:
      case Design::NanoPu:
        n.attach = net::NicAttach::Integrated;
        // One NIC queue per coherence domain; multi-domain machines
        // steer across shards RSS-style.
        n.steering = (!cfg.singleCoherenceDomain &&
                      cfg.cores > cpu::kCoresPerSocket)
                         ? net::Steering::Rss
                         : net::Steering::Central;
        break;
      case Design::DeadlineDrop:
        n.attach = net::NicAttach::Integrated;
        n.steering = net::Steering::Rss;
        break;
      case Design::AcInt:
        n.attach = net::NicAttach::Integrated;
        n.steering = net::Steering::Rss;
        break;
      case Design::AcRss:
        n.attach = net::NicAttach::Pcie;
        n.steering = net::Steering::Rss;
        break;
    }
    if (cfg.steering)
        n.steering = *cfg.steering;
    return n;
}

std::unique_ptr<Server>
makeServer(const DesignConfig &cfg, Tick mean_service,
           const std::string &dist_name, Tick slo_target,
           std::uint64_t warmup, std::uint64_t seed,
           const sim::FaultSpec &faults, bool log_latency_histogram,
           const trace::TraceConfig &tracing, sim::Simulator *region,
           unsigned server_id)
{
    Server::Config scfg;
    scfg.cores = cfg.cores;
    scfg.nic = nicConfigFor(cfg);
    scfg.serverId = server_id;
    scfg.sloTarget = slo_target;
    scfg.warmup = warmup;
    scfg.seed = seed;
    scfg.faults = faults;
    scfg.logLatencyHistogram = log_latency_histogram;
    scfg.trace = tracing;
    return std::make_unique<Server>(
        scfg, makeScheduler(cfg, mean_service, dist_name), region);
}

DerivedSpec
deriveSpec(const WorkloadSpec &spec)
{
    DerivedSpec d;
    d.meanService =
        spec.trace ? spec.trace->meanService() : spec.service->mean();
    d.distName = spec.trace ? "Fixed" : spec.service->name();
    d.slo = spec.sloAbsolute
                ? *spec.sloAbsolute
                : static_cast<Tick>(spec.sloFactor * d.meanService);
    d.total = spec.trace ? spec.trace->size() : spec.requests;
    d.warmup = static_cast<std::uint64_t>(
        spec.warmupFraction * static_cast<double>(d.total));
    return d;
}

void
RunResult::accumulate(const Server &srv)
{
    const sched::Scheduler &sched = srv.scheduler();
    completed += srv.completed();
    requestsShed += srv.requestsShed();
    dropped += srv.dropped();
    predictions += srv.predictions();
    coresKilled += sched.coresDead();
    requestsRescued += sched.requestsRescued();
    managersFailedOver += sched.managersFailedOver();
    if (const auto *group =
            dynamic_cast<const core::GroupScheduler *>(&sched)) {
        migrated += group->requestsMigrated();
        messaging += group->messagingStats();
        migratesRetried += group->migratesRetried();
        migratesTimedOut += group->migratesTimedOut();
        peersQuarantined += group->peersQuarantined();
        peersDeadDeclared += group->peersDeadDeclared();
    }
    if (const sim::FaultInjector *fi = srv.faultInjector())
        faultsInjected += fi->counters().total();
    if (const trace::Tracer *tr = srv.tracer()) {
        traceRecords += tr->totalWritten();
        traceDropped += tr->totalDropped();
    }
}

// ---------------------------------------------------------------------
// LoadGenerator
// ---------------------------------------------------------------------

LoadGenerator::LoadGenerator(Server &server, const WorkloadSpec &spec)
    : LoadGenerator(nullptr, server, server.sim(), spec)
{}

LoadGenerator::LoadGenerator(Rack &rack, const WorkloadSpec &spec)
    : LoadGenerator(&rack, rack.server(0), rack.sim(), spec)
{}

LoadGenerator::LoadGenerator(Rack *rack, Server &server,
                             sim::Simulator &sim,
                             const WorkloadSpec &spec)
    : rack_(rack), server_(server), sim_(sim), spec_(spec),
      rng_(server.forkRng(spec.seed))
{
    if (spec_.trace == nullptr) {
        altoc_assert(spec_.service != nullptr,
                     "workload needs a service distribution or a trace");
        const double rate = spec_.rateMrps * 1e-3; // requests per ns
        if (spec_.realWorldArrivals) {
            arrivals_ = workload::makeRealWorld(
                rate, static_cast<Tick>(spec_.service->mean()));
        } else {
            arrivals_ = workload::makePoisson(rate);
        }
    }
}

int
LoadGenerator::place()
{
    return rack_ != nullptr ? rack_->pickServer() : 0;
}

void
LoadGenerator::send(int s, net::WireRpc &w)
{
    if (decorate_)
        decorate_(w, rng_);
    if (rack_ != nullptr)
        rack_->deliver(static_cast<unsigned>(s), w);
    else
        server_.injectWire(w);
}

void
LoadGenerator::start()
{
    if (spec_.trace != nullptr) {
        // Trace replay: schedule every arrival up front; ids are
        // trace indices so runs can be joined per request.
        const auto &recs = spec_.trace->records();
        for (std::uint64_t i = 0; i < recs.size(); ++i) {
            const workload::TraceRecord &rec = recs[i];
            sim_.at(rec.arrival, [this, i, &rec] {
                const int s = place();
                ++injected_;
                if (s < 0) {
                    rack_->shedAtTor(i);
                    return;
                }
                net::WireRpc w;
                w.id = i;
                w.service = rec.service;
                w.kind = rec.kind;
                w.conn = rec.conn;
                w.sizeBytes = rec.sizeBytes;
                w.key = rec.key;
                w.homeGroup = rec.homeGroup;
                send(s, w);
            });
        }
        return;
    }
    nextArrival_ = arrivals_->nextGap(rng_);
    sim_.at(nextArrival_, [this] { injectNext(); });
}

void
LoadGenerator::injectNext()
{
    const int s = place();
    if (s >= 0) {
        net::WireRpc w;
        w.id = injected_;
        const workload::ServiceSample smp = spec_.service->sample(rng_);
        w.service = smp.service;
        w.kind = smp.kind;
        w.conn = static_cast<std::uint32_t>(rng_.below(spec_.connections));
        w.sizeBytes = spec_.requestBytes;
        ++injected_;
        send(s, w);
    } else {
        // Every server is dead: shed at the ToR without drawing the
        // workload samples the request would have carried.
        rack_->shedAtTor(injected_++);
    }

    if (injected_ < spec_.requests) {
        nextArrival_ += arrivals_->nextGap(rng_);
        sim_.at(nextArrival_, [this] { injectNext(); });
    }
}

// ---------------------------------------------------------------------
// runExperiment
// ---------------------------------------------------------------------

namespace {

/**
 * The run's one observation path: folds completions and fault events
 * into the fingerprint, the rack-wide latency tracker and the
 * per-request capture. Serial runs feed it from direct hooks, in the
 * kernel's canonical (tick, region, seq) dispatch order; sharded runs
 * replay their merged logs through it in that same order.
 */
class Observer
{
  public:
    Observer(unsigned servers, const DerivedSpec &d,
             const WorkloadSpec &spec, RunResult &result)
        : federated_(servers > 1), warmup_(d.warmup),
          capture_(spec.capturePerRequest ? &result.perRequest : nullptr)
    {
        // One server's own tracker already holds the run's latency
        // stream; only a federation needs a rack-wide one (its warmup
        // counts completions rack-wide).
        if (federated_) {
            tracker_.emplace(d.slo, spec.logLatencyHistogram);
            tracker_->reserve(static_cast<std::size_t>(d.total));
        }
        if (capture_ != nullptr)
            capture_->reserve(d.total);
    }

    void
    completion(unsigned server, Tick now, std::uint64_t kind,
               unsigned core, std::uint64_t id)
    {
        digest_.completion(now, kind, core, id);
        if (federated_)
            digest_.server(server);
    }

    void
    outcome(std::uint64_t id, Tick latency, bool migrated,
            bool predicted)
    {
        if (tracker_ && ++seen_ > warmup_)
            tracker_->record(latency);
        if (capture_ != nullptr) {
            capture_->push_back(
                RequestOutcome{id, latency, migrated, predicted});
        }
    }

    void
    fault(unsigned server, Tick now, std::uint64_t kind, unsigned a,
          unsigned b)
    {
        digest_.fault(now, kind, a, b);
        if (federated_)
            digest_.server(server);
    }

    /** True when outcome() has anything to do. */
    bool wantsOutcomes() const { return tracker_ || capture_ != nullptr; }

    /** The rack-wide tracker (federated runs only). */
    const stats::SloTracker &tracker() const { return *tracker_; }

    const RunDigest &digest() const { return digest_; }

  private:
    RunDigest digest_;
    bool federated_;
    std::optional<stats::SloTracker> tracker_;
    std::uint64_t seen_ = 0;
    std::uint64_t warmup_;
    std::vector<RequestOutcome> *capture_;
};

/** Serial runs: every hook feeds the observer as it fires. */
void
observeDirect(Rack &rack, Observer &obs)
{
    Observer *o = &obs;
    for (unsigned s = 0; s < rack.numServers(); ++s) {
        Server &srv = rack.server(s);
        srv.setCompletionProbe(
            [o, s](const cpu::Core &core, const net::Rpc &r, Tick now) {
                o->completion(s, now, static_cast<std::uint64_t>(r.kind),
                              core.id(), r.id);
            });
        if (obs.wantsOutcomes()) {
            srv.setCompletionHook([o](const net::Rpc &r, Tick latency) {
                o->outcome(r.id, latency, r.migrated,
                           r.predictedViolation);
            });
        }
        if (sim::FaultInjector *fi = srv.faultInjector()) {
            fi->setEventHook([o, s](sim::FaultInjector::Kind kind,
                                    Tick now, unsigned a, unsigned b) {
                o->fault(s, now, static_cast<std::uint64_t>(kind), a, b);
            });
        }
    }
}

/**
 * One observation in a server's private log. Sharded runs fire hooks
 * on several threads, so each server appends to its own log
 * (thread-confined) and replay() folds the logs after the run.
 */
struct ObsRec
{
    Tick at = 0;           //!< region clock when observed (merge key)
    Tick value = 0;        //!< completion: latency; fault: its tick
    std::uint64_t id = 0;  //!< completion: rpc id; fault: arg a
    std::uint32_t aux = 0; //!< fault: arg b
    std::uint16_t kind = 0; //!< RequestKind / FaultInjector::Kind
    std::uint16_t core = 0; //!< completion: executing core id
    bool fault = false;
    bool migrated = false;
    bool predicted = false;
};

using ObsLogs = std::vector<std::vector<ObsRec>>;

ObsLogs
observeLogged(Rack &rack, std::uint64_t total)
{
    const unsigned n = rack.numServers();
    ObsLogs logs(n);
    for (unsigned s = 0; s < n; ++s) {
        std::vector<ObsRec> *log = &logs[s];
        log->reserve(static_cast<std::size_t>(total / n + total / (2 * n) +
                                              1024));
        Server &srv = rack.server(s);
        // The probe fires first in onRpcDone and opens the record;
        // the hook fires later in the same call and completes it --
        // nothing can append in between.
        srv.setCompletionProbe(
            [log](const cpu::Core &core, const net::Rpc &r, Tick now) {
                ObsRec o;
                o.at = now;
                o.id = r.id;
                o.kind = static_cast<std::uint16_t>(r.kind);
                o.core = static_cast<std::uint16_t>(core.id());
                log->push_back(o);
            });
        srv.setCompletionHook([log](const net::Rpc &r, Tick latency) {
            ObsRec &o = log->back();
            o.value = latency;
            o.migrated = r.migrated;
            o.predicted = r.predictedViolation;
        });
        if (sim::FaultInjector *fi = srv.faultInjector()) {
            // A fault may name a later tick than the one it is
            // injected at (a straggle names its slice's start); the
            // merge key is the injection tick, as in serial order.
            const sim::Simulator *clock = &srv.sim();
            fi->setEventHook([log, clock](sim::FaultInjector::Kind kind,
                                          Tick now, unsigned a,
                                          unsigned b) {
                ObsRec o;
                o.at = clock->now();
                o.value = now;
                o.fault = true;
                o.kind = static_cast<std::uint16_t>(kind);
                o.id = a;
                o.aux = b;
                log->push_back(o);
            });
        }
    }
    return logs;
}

/** Fold the logs into @p obs in ascending (tick, server, log position)
 *  order: the canonical dispatch order restricted to observations. */
void
replay(const ObsLogs &logs, Observer &obs)
{
    const unsigned n = static_cast<unsigned>(logs.size());
    std::vector<std::size_t> pos(n, 0);
    for (;;) {
        unsigned best = n;
        Tick bw = kTickInf;
        for (unsigned s = 0; s < n; ++s) {
            if (pos[s] < logs[s].size() && logs[s][pos[s]].at < bw) {
                bw = logs[s][pos[s]].at;
                best = s;
            }
        }
        if (best == n)
            break;
        const ObsRec &o = logs[best][pos[best]++];
        if (o.fault) {
            obs.fault(best, o.value, o.kind, static_cast<unsigned>(o.id),
                      o.aux);
        } else {
            obs.completion(best, o.at, o.kind, o.core, o.id);
            obs.outcome(o.id, o.value, o.migrated, o.predicted);
        }
    }
}

/** Server @p s's slice of a federated run. */
PerServerResult
sliceOf(const Rack &rack, unsigned s)
{
    const Server &srv = rack.server(s);
    RunResult own;
    own.accumulate(srv);
    PerServerResult ps;
    ps.completed = own.completed;
    ps.dropped = own.dropped;
    ps.migrated = own.migrated;
    ps.requestsShed = own.requestsShed;
    ps.coresKilled = own.coresKilled;
    ps.requestsRescued = own.requestsRescued;
    ps.managersFailedOver = own.managersFailedOver;
    ps.latency = srv.tracker().summary();
    ps.utilization = srv.workerUtilization();
    ps.dead = rack.serverDead(s);
    return ps;
}

} // namespace

RunResult
runExperiment(const DesignConfig &cfg, const WorkloadSpec &spec)
{
    const DerivedSpec d = deriveSpec(spec);
    Rack rack(cfg, spec);
    const unsigned n = rack.numServers();
    // Reserve the latency sample stores so recording never
    // reallocates; descriptor pools grow to what is in flight.
    rack.reserveFor(d.total);
    rack.stopAfterCompletions(d.total);
    const unsigned shards = rack.resolveShards(cfg.shards);

    RunResult result;
    result.rackServers = n;
    Observer obs(n, d, spec, result);
    ObsLogs logs;
    if (shards > 1)
        logs = observeLogged(rack, d.total);
    else
        observeDirect(rack, obs);

    LoadGenerator gen(rack, spec);
    gen.start();
    Tick end = 0;
    if (shards > 1) {
        // Stay parallel only while arrivals are still pending: a
        // request injected during a window cannot complete within it
        // (delivery alone costs a full window), so the completion
        // threshold can only be crossed in the serial tail and the
        // stop lands on exactly the event it would serially.
        end = rack.runSharded(
            shards, spec.timeLimit,
            sim::Kernel::ParallelGate([&gen, total = d.total] {
                return gen.injected() < total;
            }));
        replay(logs, obs);
    } else {
        end = rack.run(spec.timeLimit);
    }

    // Conservation only holds once everything in flight finished; a
    // run stopped early legitimately leaves live descriptors behind.
    if (rack.idle())
        rack.checkConservation(gen.injected());

    for (unsigned s = 0; s < n; ++s)
        result.accumulate(rack.server(s));
    if (const trace::Tracer *tor = rack.torTracer()) {
        result.traceRecords += tor->totalWritten();
        result.traceDropped += tor->totalDropped();
    }
    if (n > 1) {
        result.perServer.reserve(n);
        for (unsigned s = 0; s < n; ++s)
            result.perServer.push_back(sliceOf(rack, s));
    }

    const stats::SloTracker &tracker =
        n == 1 ? rack.server(0).tracker() : obs.tracker();
    result.design = rack.server(0).scheduler().name();
    result.offeredMrps =
        spec.trace ? spec.trace->offeredRate() * 1e3 : spec.rateMrps;
    result.achievedMrps =
        end > 0 ? static_cast<double>(result.completed) /
                      static_cast<double>(end) * 1e3
                : 0.0;
    result.latency = tracker.summary();
    result.sloTarget = d.slo;
    result.violationRatio = tracker.violationRatio();
    result.violations = tracker.violations();
    result.utilization = rack.workerUtilization();
    result.torDispatched = rack.torDispatched();
    result.torShed = rack.torShed();
    result.fingerprint = obs.digest().digest();
    result.fingerprintEvents = obs.digest().events();
    result.parallelWindows = rack.kernel().parallelWindows();

    if (spec.dumpStats)
        rack.dumpStats();
    if (rack.server(0).tracer() != nullptr && !spec.tracing.file.empty())
        altoc_assert(rack.writeTrace(), "failed to write trace file");
    return result;
}

} // namespace altoc::system
