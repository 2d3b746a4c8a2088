/**
 * @file
 * Server implementation.
 */

#include "system/server.hh"

#include <cstring>

#include "common/logging.hh"
#include "core/group.hh"
#include "sim/fault_injector.hh"

namespace altoc::system {

namespace {

/** Admission bound while degraded: arrivals are shed once the total
 *  scheduler backlog exceeds this many requests per surviving worker
 *  core. Deep enough that transient bursts still queue; shallow
 *  enough that a half-dead machine cannot build an unbounded queue. */
constexpr std::size_t kShedDepthPerLiveCore = 64;

} // namespace

Server::Server(const Config &cfg, std::unique_ptr<sched::Scheduler> sched,
               sim::Simulator *shared_sim)
    : cfg_(cfg),
      ownedSim_(shared_sim != nullptr ? nullptr
                                      : std::make_unique<sim::Simulator>()),
      sim_(shared_sim != nullptr ? *shared_sim : *ownedSim_),
      rng_(cfg.seed), sched_(std::move(sched)),
      tracker_(cfg.sloTarget, cfg.logLatencyHistogram)
{
    altoc_assert(cfg_.cores > 0, "server needs cores");
    altoc_assert(sched_ != nullptr, "server needs a scheduler");

    mesh_ = std::make_unique<noc::Mesh>(noc::Mesh::forTiles(cfg_.cores));

#if ALTOC_AUDIT_ENABLED
    if (cfg_.audit) {
        auditor_ = std::make_unique<core::InvariantAuditor>();
        // With a shared kernel the rack attaches each server's
        // auditor to that server's own region.
        if (ownedSim_ != nullptr)
            sim_.setAuditor(auditor_.get());
    }
#endif

    cores_.reserve(cfg_.cores);
    for (unsigned i = 0; i < cfg_.cores; ++i)
        cores_.push_back(std::make_unique<cpu::Core>(sim_, i, i));

    if (cfg_.trace.enabled) {
        tracer_ = std::make_unique<trace::Tracer>(cfg_.cores,
                                                  cfg_.trace.ringSlots);
    }

    if (cfg_.faults.enabled()) {
        faults_ = std::make_unique<sim::FaultInjector>(cfg_.faults);
        faults_->setTracer(tracer_.get());
        sim::FaultInjector *fi = faults_.get();
        // Scheduling-VN messages can arrive late; data/request
        // traffic is out of the fault model's scope.
        mesh_->setExtraDelay([fi](unsigned vnet, unsigned src,
                                  unsigned dst, Tick depart) {
            return vnet == noc::kVnSched
                       ? fi->messageDelay(src, dst, depart)
                       : 0;
        });
        for (auto &core : cores_) {
            core->setStretch([fi](unsigned id, Tick start, Tick slice) {
                return fi->stretchExecution(id, start, slice);
            });
        }
    }

    sched::SchedContext ctx;
    ctx.sim = &sim_;
    ctx.auditor = auditor_.get();
    ctx.faults = faults_.get();
    ctx.tracer = tracer_.get();
    ctx.mesh = mesh_.get();
    for (auto &core : cores_)
        ctx.cores.push_back(core.get());
    ctx.rng = rng_.fork(0x5c4ed);
    sched_->attach(std::move(ctx), this);

    net::Nic::Config ncfg = cfg_.nic;
    ncfg.numQueues = sched_->nicQueues();
    nic_ = std::make_unique<net::Nic>(sim_, ncfg, rng_.fork(0x171c));
    nic_->setDeliver([this](net::Rpc *r, unsigned queue) {
        sched_->deliver(r, queue);
    });

    sched_->start();

    if (faults_ != nullptr)
        scheduleKills();
}

Server::~Server() = default;

void
Server::inject(net::Rpc *r)
{
    altoc_assert(r->remaining > 0, "injecting a request with no demand");
    ALTOC_AUDIT_HOOK(auditor_.get(), onInject(*r));
    if (degraded_) {
        // Graceful degradation: with cores fail-stopped, shed at
        // admission once the backlog outgrows the surviving
        // capacity. The descriptor is fully accounted (injected and
        // shed), so conservation holds at drain.
        const unsigned live = sched_->liveWorkerCores();
        if (live == 0 ||
            sched_->totalQueued() >= kShedDepthPerLiveCore * live) {
            onRpcShed(r);
            return;
        }
    }
    nic_->receive(r);
}

void
Server::injectWire(const net::WireRpc &w)
{
    net::Rpc *r = pool_.alloc();
    r->id = w.id;
    r->service = w.service;
    r->remaining = w.service;
    r->kind = w.kind;
    r->conn = w.conn;
    r->sizeBytes = w.sizeBytes;
    r->key = w.key;
    r->homeGroup = w.homeGroup;
    inject(r);
}

void
Server::scheduleKills()
{
    const sim::FaultSpec &fs = cfg_.faults;
    for (const sim::FaultSpec::Kill &k : fs.kills) {
        if (k.id >= cfg_.cores) {
            fatal("fault spec: kill=%u@%llu targets a core outside "
                  "this server's %u cores",
                  k.id, static_cast<unsigned long long>(k.at),
                  cfg_.cores);
        }
        sim_.at(k.at, [this, k] { killCore(k.id); });
    }
    for (const sim::FaultSpec::Kill &k : fs.managerKills) {
        sim_.at(k.at, [this, k] {
            // Designs without dedicated manager cores make killm a
            // documented no-op.
            const int c = sched_->managerCore(k.id);
            if (c >= 0)
                killCore(static_cast<unsigned>(c));
        });
    }
    if (fs.killProb > 0.0 && fs.killNs > 0)
        sim_.at(fs.killNs, [this] { killWindowSweep(1); });
}

int
Server::managerIndexOf(unsigned core_id) const
{
    for (unsigned m = 0;; ++m) {
        const int c = sched_->managerCore(m);
        if (c < 0)
            return -1;
        if (static_cast<unsigned>(c) == core_id)
            return static_cast<int>(m);
    }
}

void
Server::killCore(unsigned core_id)
{
    cpu::Core &core = *cores_[core_id];
    if (core.dead())
        return;
    const int mgr = managerIndexOf(core_id);
    faults_->noteKill(mgr >= 0 ? sim::FaultInjector::Kind::MgrKill
                               : sim::FaultInjector::Kind::CoreKill,
                      sim_.now(), core_id,
                      mgr >= 0 ? static_cast<unsigned>(mgr) : 0u);
    // Manager deaths land on the group-index ring (the decoder's
    // dead-manager causal rule keys on it); worker deaths on the
    // core-id ring.
    ALTOC_TRACE_HOOK(
        tracer_.get(),
        record(sim_.now(),
               mgr >= 0 ? static_cast<unsigned>(mgr) : core_id,
               trace::TraceKind::CoreDead, core_id,
               mgr >= 0 ? std::uint8_t{1} : std::uint8_t{0}));
    net::Rpc *orphan = core.kill();
    sched_->onCoreDeath(core_id, orphan);
    degraded_ = true;
    if (deathNotifier_)
        deathNotifier_(core_id);
}

void
Server::killWindowSweep(std::uint64_t window)
{
    // killp only reaps request-serving cores: losing a worker is the
    // graceful-degradation case under study, while scripted killm
    // targets managers deliberately. The last surviving worker is
    // spared so the machine degrades instead of bricking.
    for (unsigned i = 0; i < cfg_.cores; ++i) {
        if (cores_[i]->dead() || !sched_->isWorkerCore(i))
            continue;
        if (sched_->liveWorkerCores() <= 1)
            break;
        if (faults_->windowKillsCore(i, window))
            killCore(i);
    }
    if (sched_->liveWorkerCores() > 1) {
        sim_.at((window + 1) * cfg_.faults.killNs,
                [this, window] { killWindowSweep(window + 1); });
    }
}

void
Server::setResolver(cpu::Core::ServiceResolver fn)
{
    for (auto &core : cores_)
        core->setResolver(fn);
}

void
Server::onRpcShed(net::Rpc *r)
{
    ALTOC_AUDIT_HOOK(auditor_.get(), onShed(*r));
    ++requestsShed_;
    ALTOC_TRACE_HOOK(tracer_.get(),
                     record(sim_.now(), 0, trace::TraceKind::AdmissionShed,
                            static_cast<std::uint32_t>(r->id)));
    pool_.release(r);
}

void
Server::onRpcDone(cpu::Core &core, net::Rpc *r)
{
    if (probe_)
        probe_(core, *r, sim_.now());
    ALTOC_AUDIT_HOOK(auditor_.get(), onComplete(*r));
    // The response traverses the TX path; latency ends when the
    // response buffer is freed (Sec. VII-B).
    const Tick done =
        sim_.now() + nic_->responseLatency(cfg_.responseBytes);
    const Tick latency = done - r->nicArrival;

    ++completed_;
    if (completed_ > cfg_.warmup) {
        if (r->dropped)
            ++dropped_;
        tracker_.record(latency);
        const bool violated = latency > tracker_.target();
        if (violated)
            ++pred_.actualViolations;
        if (r->predictedViolation) {
            ++pred_.predicted;
            if (violated)
                ++pred_.truePositives;
            else
                ++pred_.falsePositives;
        }
    }
    if (hook_)
        hook_(*r, latency);
    pool_.release(r);
    if (sharedDone_ != nullptr) {
        if (++*sharedDone_ >= stopAfter_)
            sim_.requestStop();
    } else if (completed_ >= stopAfter_) {
        sim_.requestStop();
    }
}

Tick
Server::run(Tick until)
{
    const Tick end = sim_.run(until);
    finishRun();
    return end;
}

void
Server::finishRun()
{
#if ALTOC_AUDIT_ENABLED
    if (auditor_) {
        // Conservation only holds once everything in flight has
        // finished; a run stopped early (stopAfterCompletions, time
        // bound) legitimately leaves live descriptors behind.
        if (sim_.idle())
            auditor_->onDrain();
        if (!auditor_->ok()) {
            auditor_->report(stderr);
            panic("invariant audit failed with %llu violation(s); "
                  "see report above",
                  static_cast<unsigned long long>(
                      auditor_->violationCount()));
        }
    }
#endif
}

bool
Server::writeTrace(const std::string &path) const
{
    if (!tracer_)
        return false;
    const std::string &target = path.empty() ? cfg_.trace.file : path;
    if (target.empty())
        return false;
    return tracer_->writeFile(target);
}

void
Server::dumpStats(std::FILE *out) const
{
    if (out == nullptr)
        out = stdout;
    std::fprintf(out, "---------- Begin Simulation Statistics ----------\n");
    dumpStatsBody(out, "");
    std::fprintf(out, "---------- End Simulation Statistics ----------\n");
}

void
Server::dumpStatsBody(std::FILE *out, const char *prefix) const
{
    auto line = [out, prefix](const char *name, double value) {
        std::fprintf(out, "%s%-*s %20.6g\n", prefix,
                     static_cast<int>(40 - std::strlen(prefix)), name,
                     value);
    };
    line("sim.finalTick", static_cast<double>(sim_.now()));
    line("sim.eventsExecuted",
         static_cast<double>(sim_.eventsExecuted()));
    line("nic.received", static_cast<double>(nic_->received()));
    line("noc.messages", static_cast<double>(mesh_->messages()));
    line("noc.flitHops", static_cast<double>(mesh_->flitHops()));
    line("server.completed", static_cast<double>(completed_));
    line("server.dropped", static_cast<double>(dropped_));
    line("server.requestsShed", static_cast<double>(requestsShed_));
    line("server.workerUtilization", workerUtilization());
    line("sched.coresDead", static_cast<double>(sched_->coresDead()));
    line("sched.requestsRescued",
         static_cast<double>(sched_->requestsRescued()));
    line("sched.managersFailedOver",
         static_cast<double>(sched_->managersFailedOver()));
    line("sched.liveWorkerCores",
         static_cast<double>(sched_->liveWorkerCores()));

    const stats::Summary lat = tracker_.summary();
    line("latency.samples", static_cast<double>(lat.count));
    line("latency.meanNs", lat.mean);
    line("latency.p50Ns", static_cast<double>(lat.p50));
    line("latency.p99Ns", static_cast<double>(lat.p99));
    line("latency.p999Ns", static_cast<double>(lat.p999));
    line("latency.maxNs", static_cast<double>(lat.max));
    line("slo.targetNs", static_cast<double>(tracker_.target()));
    line("slo.violations", static_cast<double>(tracker_.violations()));
    line("slo.violationRatio", tracker_.violationRatio());

    Tick busy_total = 0;
    for (const auto &core : cores_) {
        char name[64];
        std::snprintf(name, sizeof name, "core%02u.busyNs",
                      core->id());
        line(name, static_cast<double>(core->busyNs()));
        busy_total += core->busyNs();
    }
    line("cores.busyNsTotal", static_cast<double>(busy_total));

    const auto lens = sched_->queueLengths();
    for (std::size_t i = 0; i < lens.size(); ++i) {
        char name[64];
        std::snprintf(name, sizeof name, "sched.queue%02zu.length", i);
        line(name, static_cast<double>(lens[i]));
    }

    if (const auto *gs =
            dynamic_cast<const core::GroupScheduler *>(sched_.get())) {
        line("sched.migratesRetried",
             static_cast<double>(gs->migratesRetried()));
        line("sched.migratesTimedOut",
             static_cast<double>(gs->migratesTimedOut()));
        line("sched.peersQuarantined",
             static_cast<double>(gs->peersQuarantined()));
        line("sched.peersDeadDeclared",
             static_cast<double>(gs->peersDeadDeclared()));
    }
    if (faults_) {
        const sim::FaultInjector::Counters &fc = faults_->counters();
        line("faults.injected", static_cast<double>(fc.total()));
        line("faults.msgDropped", static_cast<double>(fc.msgDropped));
        line("faults.msgDuplicated",
             static_cast<double>(fc.msgDuplicated));
        line("faults.msgDelayed", static_cast<double>(fc.msgDelayed));
        line("faults.exhaustWindows",
             static_cast<double>(fc.exhaustWindows));
        line("faults.stallWindows",
             static_cast<double>(fc.stallWindows));
        line("faults.coreStraggles",
             static_cast<double>(fc.coreStraggles));
        line("faults.coreFreezes", static_cast<double>(fc.coreFreezes));
        line("faults.coreKills", static_cast<double>(fc.coreKills));
        line("faults.managerKills",
             static_cast<double>(fc.managerKills));
    }
    if (tracer_) {
        line("trace.recorded",
             static_cast<double>(tracer_->totalWritten()));
        line("trace.dropped",
             static_cast<double>(tracer_->totalDropped()));
    }
}

double
Server::workerUtilization() const
{
    const Tick elapsed = sim_.now();
    if (elapsed == 0)
        return 0.0;
    Tick busy = 0;
    unsigned workers = 0;
    for (const auto &core : cores_) {
        if (!sched_->isWorkerCore(core->id()))
            continue;
        busy += core->busyNs();
        ++workers;
    }
    if (workers == 0)
        return 0.0;
    return static_cast<double>(busy) /
           (static_cast<double>(elapsed) * workers);
}

} // namespace altoc::system
