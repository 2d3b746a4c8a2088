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
            if (cfg.cores > cpu::kCoresPerSocket) {
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
        n.steering = cfg.cores > cpu::kCoresPerSocket
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

LoadGenerator::LoadGenerator(Rack &rack, const WorkloadSpec &spec)
    : rack_(rack), sim_(rack.sim()), spec_(spec),
      rng_(rack.server(0).forkRng(spec.seed))
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

void
LoadGenerator::send(int s, net::WireRpc &w)
{
    if (spec_.decorate)
        spec_.decorate(w, rng_);
    rack_.deliver(static_cast<unsigned>(s), w);
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
                const int s = rack_.pickServer();
                ++injected_;
                if (s < 0) {
                    rack_.shedAtTor(i);
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
    const int s = rack_.pickServer();
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
        rack_.shedAtTor(injected_++);
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
 * per-request capture. observeDirect() feeds it from the servers'
 * hooks, which fire in the kernel's canonical (tick, region, seq)
 * dispatch order.
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
            tracker_.emplace(d.slo);
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

/** Wire every server's hooks to feed @p obs as they fire. */
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

    RunResult result;
    result.rackServers = n;
    Observer obs(n, d, spec, result);
    observeDirect(rack, obs);

    LoadGenerator gen(rack, spec);
    gen.start();
    const Tick end = rack.run(spec.timeLimit);

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

    if (spec.dumpStats)
        rack.dumpStats();
    if (rack.server(0).tracer() != nullptr && !spec.tracing.file.empty())
        altoc_assert(rack.writeTrace(), "failed to write trace file");
    return result;
}

} // namespace altoc::system
