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
               sim::Simulator &region)
    : cfg_(cfg), sim_(region), rng_(cfg.seed), sched_(std::move(sched)),
      tracker_(cfg.sloTarget)
{
    altoc_assert(cfg_.cores > 0, "server needs cores");
    altoc_assert(sched_ != nullptr, "server needs a scheduler");

    mesh_ = std::make_unique<noc::Mesh>(noc::Mesh::forTiles(cfg_.cores));

#if ALTOC_AUDIT_ENABLED
    // The region's auditor sees exactly this server's events.
    auditor_ = std::make_unique<core::InvariantAuditor>();
    sim_.setAuditor(auditor_.get());
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
        // A hook goes in only when the spec configures its fault
        // kind: otherwise it would return 0 on every call.
        // Scheduling-VN messages can arrive late; data/request
        // traffic is out of the fault model's scope.
        if (fi->delaysMessages()) {
            mesh_->setExtraDelay([fi](unsigned vnet, unsigned src,
                                      unsigned dst, Tick depart) {
                return vnet == noc::kVnSched
                           ? fi->messageDelay(src, dst, depart)
                           : 0;
            });
        }
        if (fi->stretchesCores()) {
            for (auto &core : cores_) {
                core->setStretch(
                    [fi](unsigned id, Tick start, Tick slice) {
                        return fi->stretchExecution(id, start, slice);
                    });
            }
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
    countTowardStop();
}

void
Server::onRpcDone(cpu::Core &core, net::Rpc *r)
{
    if (probe_)
        probe_(core, *r, sim_.now());
    ALTOC_AUDIT_HOOK(auditor_.get(), onComplete(*r));
    // The response traverses the TX path; latency ends when the
    // response buffer is freed (Sec. VII-B).
    const Tick done = sim_.now() + nic_->responseLatency(net::kResponseBytes);
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
    countTowardStop();
}

void
Server::countTowardStop()
{
    if (++*done_ >= stopAfter_)
        sim_.requestStop();
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
    // Counters print exactly, as integers; ratios and means as %g.
    const int width = static_cast<int>(40 - std::strlen(prefix));
    auto count = [out, prefix, width](const char *name,
                                      std::uint64_t value) {
        std::fprintf(out, "%s%-*s %20llu\n", prefix, width, name,
                     static_cast<unsigned long long>(value));
    };
    auto ratio = [out, prefix, width](const char *name, double value) {
        std::fprintf(out, "%s%-*s %20.6g\n", prefix, width, name, value);
    };
    count("sim.finalTick", sim_.now());
    count("sim.eventsExecuted", sim_.eventsExecuted());
    count("nic.received", nic_->received());
    count("noc.messages", mesh_->messages());
    count("noc.flitHops", mesh_->flitHops());
    count("server.completed", completed_);
    count("server.dropped", dropped_);
    count("server.requestsShed", requestsShed_);
    ratio("server.workerUtilization", workerUtilization());
    count("sched.coresDead", sched_->coresDead());
    count("sched.requestsRescued", sched_->requestsRescued());
    count("sched.managersFailedOver", sched_->managersFailedOver());
    count("sched.liveWorkerCores", sched_->liveWorkerCores());

    const stats::Summary lat = tracker_.summary();
    count("latency.samples", lat.count);
    ratio("latency.meanNs", lat.mean);
    count("latency.p50Ns", lat.p50);
    count("latency.p99Ns", lat.p99);
    count("latency.p999Ns", lat.p999);
    count("latency.maxNs", lat.max);
    count("slo.targetNs", tracker_.target());
    count("slo.violations", tracker_.violations());
    ratio("slo.violationRatio", tracker_.violationRatio());

    Tick busy_total = 0;
    for (const auto &core : cores_) {
        char name[64];
        std::snprintf(name, sizeof name, "core%02u.busyNs",
                      core->id());
        count(name, core->busyNs());
        busy_total += core->busyNs();
    }
    count("cores.busyNsTotal", busy_total);

    const auto lens = sched_->queueLengths();
    for (std::size_t i = 0; i < lens.size(); ++i) {
        char name[64];
        std::snprintf(name, sizeof name, "sched.queue%02zu.length", i);
        count(name, lens[i]);
    }

    if (const auto *gs =
            dynamic_cast<const core::GroupScheduler *>(sched_.get())) {
        // The runtime's period mix: how each period classified, and
        // how many were too short to send one MIGRATE.
        count("sched.runtimeTicks", gs->runtimeTicks());
        const auto &pc = gs->patternCounts();
        count("sched.pattern.none", pc[0]);
        count("sched.pattern.hill", pc[1]);
        count("sched.pattern.valley", pc[2]);
        count("sched.pattern.pairing", pc[3]);
        count("sched.periodsBelowBatch", gs->periodsBelowBatch());
        count("sched.migratesRetried", gs->migratesRetried());
        count("sched.migratesTimedOut", gs->migratesTimedOut());
        count("sched.peersQuarantined", gs->peersQuarantined());
        count("sched.peersDeadDeclared", gs->peersDeadDeclared());
    }
    if (faults_) {
        const sim::FaultInjector::Counters &fc = faults_->counters();
        count("faults.injected", fc.total());
        count("faults.msgDropped", fc.msgDropped);
        count("faults.msgDuplicated", fc.msgDuplicated);
        count("faults.msgDelayed", fc.msgDelayed);
        count("faults.exhaustWindows", fc.exhaustWindows);
        count("faults.stallWindows", fc.stallWindows);
        count("faults.coreStraggles", fc.coreStraggles);
        count("faults.coreFreezes", fc.coreFreezes);
        count("faults.coreKills", fc.coreKills);
        count("faults.managerKills", fc.managerKills);
    }
    if (tracer_) {
        count("trace.recorded", tracer_->totalWritten());
        count("trace.dropped", tracer_->totalDropped());
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
