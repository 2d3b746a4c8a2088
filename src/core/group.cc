/**
 * @file
 * GroupScheduler implementation.
 */

#include "core/group.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "common/annotations.hh"
#include "core/invariants.hh"
#include "sim/fault_injector.hh"
#include "trace/trace.hh"

namespace altoc::core {

namespace {

/** Masked queue-view value for quarantined peers: large enough that
 *  the line-8 guard can never justify migrating toward them, small
 *  enough that adding a batch size cannot overflow. */
constexpr std::size_t kQuarantineMask = std::size_t{1} << 32;

} // namespace

GroupScheduler::GroupScheduler(const Config &cfg)
    : cfg_(cfg), batch_(migrateBatch(cfg.params))
{
    altoc_assert(cfg.numGroups >= 1, "need at least one group");
    altoc_assert(cfg.workersPerGroup >= 1,
                 "each group needs at least one worker");
    altoc_assert(cfg.localDepth >= 1, "local depth must be at least 1");
    idleMaskUsable_ =
        cfg_.localDepth == 1 && cfg_.workersPerGroup <= 64;
    model_ = std::make_unique<ThresholdModel>(
        cfg.workersPerGroup, cfg.params.sloFactor,
        defaultConstants(cfg.distName));
}

std::string
GroupScheduler::name() const
{
    if (!cfg_.label.empty())
        return cfg_.label;
    std::string base =
        cfg_.variant == Variant::Int ? "AC_int" : "AC_rss";
    if (!cfg_.params.migrationEnabled)
        base += "-nomig";
    else if (cfg_.params.iface == Interface::Msr)
        base += "-MSR";
    return base;
}

void
GroupScheduler::onAttach()
{
    const unsigned per_group = cfg_.workersPerGroup + 1;
    altoc_assert(ctx_.cores.size() == cfg_.numGroups * per_group,
                 "core count %zu does not match %u groups of %u",
                 ctx_.cores.size(), cfg_.numGroups, per_group);
    altoc_assert(ctx_.mesh != nullptr, "group scheduler needs a NoC");

#if ALTOC_AUDIT_ENABLED
    audit_ = dynamic_cast<InvariantAuditor *>(ctx_.auditor);
#endif

    groups_.clear();
    groups_.resize(cfg_.numGroups);
    coreGroup_.assign(ctx_.cores.size(), 0);

    std::vector<unsigned> manager_tiles;
    for (unsigned g = 0; g < cfg_.numGroups; ++g) {
        Group &grp = groups_[g];
        const unsigned base = g * per_group;
        grp.managerCore = base;
        coreGroup_[base] = g;
        for (unsigned w = 0; w < cfg_.workersPerGroup; ++w) {
            grp.workerCores.push_back(base + 1 + w);
            coreGroup_[base + 1 + w] = g;
        }
        grp.occupancy.assign(cfg_.workersPerGroup, 0);
        grp.idleMask = cfg_.workersPerGroup >= 64
                           ? ~std::uint64_t{0}
                           : (std::uint64_t{1} << cfg_.workersPerGroup) - 1;
        grp.local.assign(cfg_.workersPerGroup, {});
        grp.qView.assign(cfg_.numGroups, 0);
        grp.estimator.emplace(cfg_.meanService);
        grp.peers.assign(cfg_.numGroups, PeerHealth{});
        grp.workerDead.assign(cfg_.workersPerGroup, 0);
        manager_tiles.push_back(ctx_.cores[base]->tile());
    }

    HwMessaging::Config mcfg;
    mcfg.hardware = cfg_.params.hardwareMessaging;
    mcfg.ackTimeout = cfg_.params.hardening.ackTimeout;
    msg_ = std::make_unique<HwMessaging>(*ctx_.sim, *ctx_.mesh,
                                         manager_tiles, mcfg);
    msg_->setFaults(ctx_.faults);
    msg_->setTracer(ctx_.tracer);
    msg_->setMigrateIn([this](unsigned g,
                              const std::vector<net::Rpc *> &reqs) {
        onMigrateIn(g, reqs);
    });
    msg_->setReturn([this](unsigned g, unsigned dst,
                           const std::vector<net::Rpc *> &reqs) {
        onReturn(g, dst, reqs);
    });
    msg_->setAck([this](unsigned g, unsigned dst, std::size_t) {
        onMigrateAcked(g, dst);
    });
    msg_->setTimeout([this](unsigned g, unsigned dst,
                            std::vector<net::Rpc *> reqs,
                            unsigned attempt) {
        onMigrateTimeout(g, dst, std::move(reqs), attempt);
    });
}

void
GroupScheduler::start()
{
    if (!cfg_.params.migrationEnabled || cfg_.numGroups < 2)
        return;
    // Stagger manager invocations by 1 ns so event ordering between
    // managers stays deterministic without artificial lock-step.
    for (unsigned g = 0; g < cfg_.numGroups; ++g) {
        ctx_.sim->after(cfg_.params.period + g,
                        [this, g] { runtimeTick(g); });
    }
}

ALTOC_HOT void
GroupScheduler::deliver(net::Rpc *r, unsigned queue)
{
    altoc_assert(queue < groups_.size(), "group %u out of range", queue);
    if (groups_[queue].dead) {
        // The NIC's steering table was rewritten at failover: flows
        // of the dead group land at its successor. A plain redirect,
        // not a rescue -- the request never reached the dead group.
        const int succ = successorOf(queue);
        if (succ < 0) {
            sink_->onRpcShed(r);
            return;
        }
        queue = static_cast<unsigned>(succ);
    }
    Group &grp = groups_[queue];
    r->curGroup = static_cast<std::uint16_t>(queue);
    grp.rx.enqueue(r, ctx_.sim->now());
    grp.estimator->onArrival(ctx_.sim->now());
    pump(queue);
}

const MessagingStats &
GroupScheduler::messagingStats() const
{
    altoc_assert(msg_ != nullptr, "messaging not initialized");
    return msg_->stats();
}

// ---------------------------------------------------------------------
// Local dispatch
// ---------------------------------------------------------------------

int
GroupScheduler::pickWorker(const Group &grp) const
{
    if (idleMaskUsable_) {
        // localDepth == 1: only idle workers qualify, and the scan
        // would return the lowest-indexed one -- identical to the
        // lowest set bit of the idle mask.
        return grp.idleMask == 0
                   ? -1
                   : static_cast<int>(std::countr_zero(grp.idleMask));
    }
    int best = -1;
    unsigned best_occ = cfg_.localDepth;
    for (unsigned w = 0; w < grp.occupancy.size(); ++w) {
        if (grp.workerDead[w] == 0 && grp.occupancy[w] < best_occ) {
            best_occ = grp.occupancy[w];
            best = static_cast<int>(w);
        }
    }
    return best;
}

void
GroupScheduler::pump(unsigned g)
{
    if (cfg_.variant == Variant::Int)
        pumpInt(g);
    else
        pumpRss(g);
}

ALTOC_HOT void
GroupScheduler::pumpInt(unsigned g)
{
    Group &grp = groups_[g];
    if (grp.dead)
        return;
    // Hardware JBSQ: push NetRX heads toward under-occupied workers
    // with no manager involvement.
    for (;;) {
        if (grp.rx.empty())
            return;
        const int w = pickWorker(grp);
        if (w < 0)
            return;
        net::Rpc *r = grp.rx.dequeueHead();
        occupancyInc(grp, static_cast<unsigned>(w));
        const unsigned mgr_tile = ctx_.cores[grp.managerCore]->tile();
        const unsigned wrk_tile =
            ctx_.cores[grp.workerCores[static_cast<unsigned>(w)]]->tile();
        const Tick now = ctx_.sim->now();
        const Tick arrive =
            ctx_.mesh->send(noc::kVnData, mgr_tile, wrk_tile,
                            net::kDescriptorBytes, now) +
            hw::kControllerNs;
        ctx_.sim->at(arrive, [this, g, w, r] {
            arriveWorker(g, static_cast<unsigned>(w), r);
        });
    }
}

void
GroupScheduler::pumpRss(unsigned g)
{
    Group &grp = groups_[g];
    if (grp.dead || grp.dispatchPending || grp.rx.empty() ||
        pickWorker(grp) < 0) {
        return;
    }
    // The manager core is a serial resource: one hand-off per
    // lat::kCoherenceDispatch, shared with runtime invocations.
    grp.dispatchPending = true;
    const Tick start = std::max(ctx_.sim->now(), grp.managerFree);
    grp.managerFree = start + lat::kCoherenceDispatch;
    ctx_.sim->at(grp.managerFree, [this, g] { finishRssDispatch(g); });
}

void
GroupScheduler::finishRssDispatch(unsigned g)
{
    Group &grp = groups_[g];
    grp.dispatchPending = false;
    const int w = pickWorker(grp);
    net::Rpc *r = grp.rx.dequeueHead();
    if (r != nullptr && w >= 0) {
        occupancyInc(grp, static_cast<unsigned>(w));
        arriveWorker(g, static_cast<unsigned>(w), r);
    } else if (r != nullptr) {
        grp.rx.pushFront(r);
    }
    pumpRss(g);
}

void
GroupScheduler::arriveWorker(unsigned g, unsigned w, net::Rpc *r)
{
    Group &grp = groups_[g];
    if (grp.workerDead[w] != 0) {
        // The worker died while this descriptor crossed the NoC:
        // rescue it into a live queue instead of a dead mailbox.
        altoc_assert(grp.occupancy[w] > 0, "occupancy underflow");
        occupancyDec(grp, w);
        const int succ = grp.dead ? successorOf(g) : static_cast<int>(g);
        if (succ < 0) {
            sink_->onRpcShed(r);
            return;
        }
        const unsigned tgt = static_cast<unsigned>(succ);
        rescueInto(tgt, r);
        ++requestsRescued_;
        ALTOC_TRACE_HOOK(ctx_.tracer,
                         record(ctx_.sim->now(), tgt,
                                trace::TraceKind::DescriptorRescue,
                                trace::tracePack(1, grp.workerCores[w])));
        pump(tgt);
        return;
    }
    r->enqueued = ctx_.sim->now();
    grp.local[w].push_back(r);
    tryRunWorker(g, w);
}

ALTOC_HOT void
GroupScheduler::tryRunWorker(unsigned g, unsigned w)
{
    Group &grp = groups_[g];
    cpu::Core *core = ctx_.cores[grp.workerCores[w]];
    if (core->dead() || core->busy() || grp.local[w].empty())
        return;
    net::Rpc *r = grp.local[w].front();
    grp.local[w].pop_front();
    // NUCA payload read: the payload sits in the LLC slice by the
    // group's NetRX (the manager tile), so a worker pays a NoC round
    // trip proportional to its distance when it starts the request.
    // Larger groups place workers farther out -- the "variance in
    // remote cache access latency" that degrades 64-core groups in
    // Fig. 12a.
    if (r->started == kTickInf) {
        const unsigned mgr_tile = ctx_.cores[grp.managerCore]->tile();
        r->remaining += 2 * ctx_.mesh->flightTime(mgr_tile, core->tile());
    }
    core->run(r, 0, cfg_.workerQuantum);
}

void
GroupScheduler::onCompletion(cpu::Core &core, net::Rpc *r)
{
    const unsigned g = groupOfCore(core.id());
    Group &grp = groups_[g];
    // Locate the worker slot of this core within its group.
    const unsigned base = grp.managerCore;
    altoc_assert(core.id() > base, "manager core completed a request");
    const unsigned w = core.id() - base - 1;
    if (grp.occupancy[w] == 0)
        ALTOC_AUDIT_HOOK(audit_,
                         violate("non-negative-queue",
                                 detail::vformat("completion would "
                                                 "underflow occupancy "
                                                 "of worker %u in "
                                                 "group %u",
                                                 w, g)));
    altoc_assert(grp.occupancy[w] > 0, "occupancy underflow");
    occupancyDec(grp, w);
    sink_->onRpcDone(core, r);
    tryRunWorker(g, w);
    pump(g);
}

void
GroupScheduler::onPreempt(cpu::Core &core, net::Rpc *r)
{
    // Quantum expiry (workerQuantum extension): rotate the long
    // request back to the group's NetRX tail so queued shorts get
    // the worker; the context-switch cost rides on its demand.
    const unsigned g = groupOfCore(core.id());
    Group &grp = groups_[g];
    const unsigned w = core.id() - grp.managerCore - 1;
    if (grp.local[w].empty() && grp.rx.empty()) {
        // Nothing is waiting anywhere in the group: resume in place
        // without paying a context switch.
        core.run(r, 0, cfg_.workerQuantum);
        return;
    }
    ++preemptions_;
    if (grp.occupancy[w] == 0)
        ALTOC_AUDIT_HOOK(audit_,
                         violate("non-negative-queue",
                                 detail::vformat("preemption would "
                                                 "underflow occupancy "
                                                 "of worker %u in "
                                                 "group %u",
                                                 w, g)));
    altoc_assert(grp.occupancy[w] > 0, "occupancy underflow");
    occupancyDec(grp, w);
    r->remaining += cfg_.preemptCost;
    grp.rx.enqueue(r, ctx_.sim->now());
    tryRunWorker(g, w);
    pump(g);
}

// ---------------------------------------------------------------------
// Runtime (Algorithm 1)
// ---------------------------------------------------------------------

void
GroupScheduler::runtimeTick(unsigned g)
{
    Group &grp = groups_[g];

    // Failover retired this manager: the runtime loop stops here and
    // never re-arms (the successor already adopted the group's work).
    if (grp.dead)
        return;

    // Injected manager stall: the runtime loop simply does not run
    // until the stall lifts (peers see the silence as timeouts and
    // NACKs and route around this group).
    if (ctx_.faults != nullptr && ctx_.faults->stallsManagers()) {
        const Tick until =
            ctx_.faults->managerStalledUntil(g, ctx_.sim->now());
        if (until > ctx_.sim->now()) {
            if (cfg_.variant == Variant::Rss)
                grp.managerFree = std::max(grp.managerFree, until);
            ALTOC_TRACE_HOOK(
                ctx_.tracer,
                record(ctx_.sim->now(), g, trace::TraceKind::ManagerStall,
                       static_cast<std::uint32_t>(std::min<Tick>(
                           until - ctx_.sim->now(), 0xffffffffu))));
            ctx_.sim->at(until, [this, g] { runtimeTick(g); });
            return;
        }
    }
    ++runtimeTicks_;

    // Line 2: refresh the local entry and broadcast it (UPDATE).
    grp.qView[g] = grp.rx.length();
    msg_->broadcastUpdate(g, grp.qView[g]);
    ALTOC_AUDIT_HOOK(audit_, onQueueSample(g, grp.qView[g]));

    // A queue shorter than one batch sends no MIGRATE this period,
    // whatever the threshold: the line-8 guard admits none
    // (decideMigrationsInto). Such a quiet period still broadcasts
    // and classifies, but solves no threshold unless a tracer records
    // every period's.
    const bool can_send = grp.qView[g] >= batch_;
    if (!can_send)
        ++periodsBelowBatch_;

    // Line 3: recompute the threshold from the current load.
    unsigned threshold = 0;
    if (can_send || (ALTOC_TRACE_ENABLED && ctx_.tracer != nullptr)) {
        threshold = periodThreshold(grp);
        ALTOC_TRACE_HOOK(ctx_.tracer,
                         record(ctx_.sim->now(), g,
                                trace::TraceKind::ThresholdRecompute,
                                threshold));
    }

    // Lines 4-13: decide and execute migrations on the peers' latest
    // UPDATEs. Under hardening, quarantined peers are masked to an
    // effectively infinite queue so neither the decision loop nor the
    // auditor's replay of it can route work toward them. Masking
    // changes the pattern, so it precedes classification; the view is
    // copied only when some peer is masked.
    msg_->readUpdates(g, grp.qView);
    const std::vector<std::size_t> *view = &grp.qView;
    if (hardened()) {
        for (unsigned d = 0; d < cfg_.numGroups; ++d) {
            if (d == g || !peerMasked(grp, d))
                continue;
            if (view != &maskedScratch_) {
                maskedScratch_.assign(grp.qView.begin(), grp.qView.end());
                view = &maskedScratch_;
            }
            maskedScratch_[d] = kQuarantineMask;
        }
    }
    RuntimeDecision &dec = decisionScratch_;
    decideMigrationsInto(*view, g, threshold, cfg_.params, batch_,
                         runtimeScratch_, dec);
    ALTOC_AUDIT_HOOK(audit_, checkDecision(*view, g, dec));
    patternCounts_[static_cast<std::size_t>(dec.pattern)] += 1;

    unsigned sent = 0;
    for (const MigrationDecision &md : dec.migrations) {
        if (hardened() && peerMasked(grp, md.dst))
            continue;
        const unsigned cap = std::min(md.count, msg_->sendCapacity(g));
        if (cap == 0)
            continue;
        const std::vector<net::Rpc *> &batch =
            collectFromTail(g, cap, threshold);
        if (batch.empty())
            continue;
        const unsigned n = static_cast<unsigned>(batch.size());
        if (msg_->sendMigrate(g, md.dst, batch)) {
            ++sent;
            reqsMigrated_ += n;
            // A send toward a quarantined-but-unmasked peer is the
            // half-open probe: its ACK rejoins the peer, its timeout
            // re-arms the probation clock.
            if (hardened() && grp.peers[md.dst].quarantined) {
                ALTOC_TRACE_HOOK(ctx_.tracer,
                                 record(ctx_.sim->now(), g,
                                        trace::TraceKind::QuarantineProbe,
                                        trace::tracePack(n, md.dst)));
            }
        }
    }

    // Interface cost: the invocation occupies the manager. With the
    // software (shared-cache) messaging fallback the manager also
    // pays CPU time to marshal every UPDATE and MIGRATE through
    // memory, which is exactly the overhead the hardware mechanism
    // removes (case study 1).
    Tick cost = runtimeInvocationCost(cfg_.params.iface, sent);
    if (!cfg_.params.hardwareMessaging) {
        const Tick per_msg = lat::kCoherenceDispatch * 2;
        cost += static_cast<Tick>(cfg_.numGroups - 1 + sent) * per_msg;
    }
    if (cfg_.variant == Variant::Rss) {
        grp.managerFree =
            std::max(ctx_.sim->now(), grp.managerFree) + cost;
    }

    // The runtime is a software loop: it cannot re-run before its
    // own work finishes, and it must leave the manager cycles for
    // dispatch, so the effective period is bounded below by twice
    // the invocation cost (runtime <= 50% of the core). This is how
    // the MSR interface's ~100-cycle register accesses translate
    // into a slower control loop (Fig. 14's ISA-vs-MSR gap).
    ctx_.sim->after(std::max<Tick>(cfg_.params.period, 2 * cost),
                    [this, g] { runtimeTick(g); });
}

unsigned
GroupScheduler::periodThreshold(const Group &grp) const
{
    // A group that lost workers to fail-stops solves the Erlang-C
    // model for its shrunk worker set (modelFor), so the threshold
    // reflects the capacity it actually has left.
    const ThresholdModel &model = modelFor(grp);
    const double load =
        cfg_.params.loadOverride >= 0.0
            ? cfg_.params.loadOverride * model.k()
            : grp.estimator->offeredLoad(ctx_.sim->now());
    switch (cfg_.params.thresholdMode) {
      case ThresholdMode::UpperBound:
        // k*L + 1: every migration is justified, many violators are
        // missed (maximal precision, Sec. IV-A).
        return model.upperBound();
      case ThresholdMode::LowerBound:
        // First-violation queue length from offline profiling:
        // saves every violator at the cost of extra traffic.
        return cfg_.params.lowerBoundThreshold > 0
                   ? cfg_.params.lowerBoundThreshold
                   : model.threshold(load);
      case ThresholdMode::Model:
      default:
        return model.threshold(load);
    }
}

const std::vector<net::Rpc *> &
GroupScheduler::collectFromTail(unsigned g, unsigned count,
                                unsigned threshold)
{
    Group &grp = groups_[g];
    std::vector<net::Rpc *> &batch = batchScratch_;
    std::vector<net::Rpc *> &skipped = skipScratch_;
    batch.clear();
    skipped.clear();
    while (batch.size() < count) {
        const std::size_t pos = grp.rx.length();
        net::Rpc *r = grp.rx.dequeueTail();
        if (r == nullptr)
            break;
        if (r->migrated) {
            // Migrate-at-most-once: leave already-migrated requests
            // in place (Sec. V-B).
            skipped.push_back(r);
            continue;
        }
        // Requests queued beyond the threshold are the predicted
        // SLO violators (Sec. IV-A).
        if (pos > threshold)
            r->predictedViolation = true;
        batch.push_back(r);
    }
    // Restore skipped entries in their original order.
    for (auto it = skipped.rbegin(); it != skipped.rend(); ++it)
        grp.rx.enqueue(*it, ctx_.sim->now());
    return batch;
}

// ---------------------------------------------------------------------
// Messaging callbacks
// ---------------------------------------------------------------------

void
GroupScheduler::onMigrateIn(unsigned g, const std::vector<net::Rpc *> &reqs)
{
    Group &grp = groups_[g];
    if (grp.dead) {
        // The batch landed in the MR bank just as (or just before)
        // the manager died: salvage it into the successor's queue,
        // or shed it when there is no successor left.
        const int succ_i = successorOf(g);
        if (succ_i < 0) {
            for (net::Rpc *r : reqs) {
                ALTOC_AUDIT_HOOK(audit_, onMigrateIn(*r, g));
                sink_->onRpcShed(r);
            }
            return;
        }
        const unsigned succ = static_cast<unsigned>(succ_i);
        for (net::Rpc *r : reqs) {
            ALTOC_AUDIT_HOOK(audit_, onMigrateIn(*r, g));
            rescueInto(succ, r);
        }
        requestsRescued_ += reqs.size();
        ALTOC_TRACE_HOOK(
            ctx_.tracer,
            record(ctx_.sim->now(), succ,
                   trace::TraceKind::DescriptorRescue,
                   trace::tracePack(static_cast<unsigned>(reqs.size()),
                                    groups_[g].managerCore)));
        pump(succ);
        return;
    }
    for (net::Rpc *r : reqs) {
        ALTOC_AUDIT_HOOK(audit_, onMigrateIn(*r, g));
        grp.rx.enqueue(r, ctx_.sim->now());
    }
    pump(g);
}

void
GroupScheduler::onReturn(unsigned g, unsigned dst,
                         const std::vector<net::Rpc *> &reqs)
{
    // NACKed migration: the requests never left; hand them back and
    // resync the local view entry the same tick, so any decision
    // taken before the next period's refresh sees the true length.
    Group &grp = groups_[g];
    if (grp.dead) {
        // The source manager died while the NACK was in flight; its
        // successor adopts the returned batch.
        rescueReturned(g, reqs);
        return;
    }
    for (net::Rpc *r : reqs)
        grp.rx.enqueue(r, ctx_.sim->now());
    grp.qView[g] = grp.rx.length();
    ALTOC_AUDIT_HOOK(audit_, checkReturnAccounting(g, grp.qView[g],
                                                   grp.rx.length()));
    if (hardened())
        peerFailure(g, dst);
    pump(g);
}

void
GroupScheduler::onMigrateAcked(unsigned g, unsigned dst)
{
    if (hardened())
        peerSuccess(g, dst);
}

void
GroupScheduler::onMigrateTimeout(unsigned g, unsigned dst,
                                 std::vector<net::Rpc *> reqs,
                                 unsigned attempt)
{
    // Timeouts only ever fire under fault injection (the messaging
    // layer arms no deadline on a lossless VN).
    ++migratesTimedOut_;
    if (groups_[g].dead) {
        // The source manager died with this MIGRATE outstanding; any
        // undelivered requests go to its successor.
        if (!reqs.empty())
            rescueReturned(g, reqs);
        return;
    }
    peerFailure(g, dst);
    if (reqs.empty()) {
        // The batch was delivered and only the ACK was lost: the
        // requests live at the destination, nothing to reclaim.
        return;
    }
    if (attempt >= cfg_.params.hardening.maxRetries) {
        reclaimLocal(g, std::move(reqs));
        return;
    }
    // Exponential backoff, then try an alternate destination.
    const Tick backoff = cfg_.params.hardening.retryBackoff << attempt;
    ctx_.sim->after(backoff, [this, g, dst, attempt,
                              reqs = std::move(reqs)]() mutable {
        retryMigrate(g, dst, std::move(reqs), attempt + 1);
    });
}

void
GroupScheduler::retryMigrate(unsigned g, unsigned avoid,
                             std::vector<net::Rpc *> reqs,
                             unsigned attempt)
{
    Group &grp = groups_[g];
    if (grp.dead) {
        // The source died during the retry backoff.
        rescueReturned(g, reqs);
        return;
    }
    const unsigned n = static_cast<unsigned>(reqs.size());

    // Shortest usable peer, excluding the one that just failed us.
    msg_->readUpdates(g, grp.qView);
    int best = -1;
    std::size_t best_q = 0;
    for (unsigned d = 0; d < cfg_.numGroups; ++d) {
        if (d == g || d == avoid || peerMasked(grp, d))
            continue;
        if (best < 0 || grp.qView[d] < best_q) {
            best = static_cast<int>(d);
            best_q = grp.qView[d];
        }
    }

    // The batch sits outside the NetRX, so the line-8 guard is
    // evaluated as if it were still queued here.
    const std::size_t q_src = grp.rx.length() + n;
    if (best < 0 ||
        !migrationLeavesSourceAhead(q_src, best_q, n) ||
        msg_->sendCapacity(g) < n) {
        reclaimLocal(g, std::move(reqs));
        return;
    }
    const bool ok = msg_->sendMigrate(g, static_cast<unsigned>(best),
                                      std::move(reqs), attempt);
    altoc_assert(ok, "retry MIGRATE refused despite capacity check");
    ++migratesRetried_;
    ALTOC_TRACE_HOOK(ctx_.tracer,
                     record(ctx_.sim->now(), g,
                            trace::TraceKind::MigrateRetry,
                            trace::tracePack(n, static_cast<unsigned>(best)),
                            static_cast<std::uint8_t>(attempt)));
    if (grp.peers[static_cast<unsigned>(best)].quarantined) {
        ALTOC_TRACE_HOOK(ctx_.tracer,
                         record(ctx_.sim->now(), g,
                                trace::TraceKind::QuarantineProbe,
                                trace::tracePack(
                                    n, static_cast<unsigned>(best))));
    }
}

void
GroupScheduler::reclaimLocal(unsigned g, std::vector<net::Rpc *> reqs)
{
    // Graceful degradation: fold the batch back into the local
    // c-FCFS queue exactly once, and let the auditor hold us to it.
    Group &grp = groups_[g];
    altoc_assert(!grp.dead, "reclaim into dead group %u", g);
    for (net::Rpc *r : reqs) {
        ALTOC_AUDIT_HOOK(audit_, onReclaim(*r, g));
        grp.rx.enqueue(r, ctx_.sim->now());
    }
    grp.qView[g] = grp.rx.length();
    pump(g);
}

bool
GroupScheduler::peerMasked(const Group &grp, unsigned dst) const
{
    const PeerHealth &ph = grp.peers[dst];
    if (ph.deadDeclared)
        return true;
    return ph.quarantined && ctx_.sim->now() < ph.probeAt;
}

void
GroupScheduler::peerFailure(unsigned g, unsigned dst)
{
    PeerHealth &ph = groups_[g].peers[dst];
    if (ph.deadDeclared)
        return;
    ++ph.consecFailures;
    if (!ph.quarantined &&
        ph.consecFailures >= cfg_.params.hardening.quarantineAfter) {
        ph.quarantined = true;
        ph.probeAt = ctx_.sim->now() + cfg_.params.hardening.probation;
        ++peersQuarantined_;
        ALTOC_TRACE_HOOK(ctx_.tracer,
                         record(ctx_.sim->now(), g,
                                trace::TraceKind::QuarantineEnter,
                                trace::tracePack(ph.consecFailures, dst)));
    } else if (ph.quarantined) {
        // A failed half-open probe counts exactly once and backs the
        // probation clock off exponentially (a probe unlucky enough
        // to land in a scripted stall window must not silently reset
        // the peer to a fresh quarantine). Enough failed probes and
        // the verdict escalates from quarantined to declared dead:
        // the peer is masked permanently and never probed again.
        ++ph.probeFailures;
        if (ph.probeFailures >= cfg_.params.hardening.deadAfterProbes) {
            ph.deadDeclared = true;
            ++peersDeadDeclared_;
            ALTOC_TRACE_HOOK(
                ctx_.tracer,
                record(ctx_.sim->now(), g,
                       trace::TraceKind::PeerDeadDeclared,
                       trace::tracePack(ph.probeFailures, dst)));
        } else {
            const unsigned shift = std::min(ph.probeFailures - 1, 7u);
            ph.probeAt = ctx_.sim->now() +
                         (cfg_.params.hardening.probation << shift);
        }
    }
}

void
GroupScheduler::peerSuccess(unsigned g, unsigned dst)
{
    PeerHealth &ph = groups_[g].peers[dst];
    if (ph.deadDeclared) {
        // Declared-dead is final: a stray late ACK from before the
        // verdict must not resurrect the peer.
        return;
    }
    ph.consecFailures = 0;
    ph.probeFailures = 0;
    if (ph.quarantined) {
        ph.quarantined = false;
        ALTOC_TRACE_HOOK(ctx_.tracer,
                         record(ctx_.sim->now(), g,
                                trace::TraceKind::QuarantineRejoin,
                                trace::tracePack(0, dst)));
    }
}

std::size_t
GroupScheduler::quarantinedNow() const
{
    std::size_t n = 0;
    for (const Group &grp : groups_) {
        for (unsigned d = 0; d < cfg_.numGroups; ++d) {
            if (peerMasked(grp, d))
                ++n;
        }
    }
    return n;
}

// ---------------------------------------------------------------------
// Fail-stop recovery
// ---------------------------------------------------------------------

void
GroupScheduler::onCoreDeath(unsigned core_id, net::Rpc *orphan)
{
    altoc_assert(core_id < ctx_.cores.size(), "core %u out of range",
                 core_id);
    ++coresDead_;
    const unsigned g = groupOfCore(core_id);
    if (!isWorkerCore(core_id)) {
        // Manager cores never execute request handlers in either
        // variant (Rss dispatch is modeled as occupancy of the
        // manager's time, not a Core::run), so a dying manager can
        // hold no orphan.
        altoc_assert(orphan == nullptr,
                     "manager core %u died holding a request", core_id);
        if (!groups_[g].dead)
            failOverGroup(g);
        return;
    }
    killWorker(g, core_id - groups_[g].managerCore - 1, orphan);
}

void
GroupScheduler::killWorker(unsigned g, unsigned w, net::Rpc *orphan)
{
    Group &grp = groups_[g];
    altoc_assert(grp.workerDead[w] == 0,
                 "worker %u of group %u killed twice", w, g);
    grp.workerDead[w] = 1;
    // The dead worker's idle bit clears permanently; occupancyDec
    // never re-sets it for a dead slot.
    if (idleMaskUsable_)
        grp.idleMask &= ~(std::uint64_t{1} << w);

    // Rescue the interrupted request and the local backlog into the
    // group's NetRX -- or, when this worker was stranded in a group
    // that already failed over, straight into the successor's.
    // Descriptors still crossing the NoC toward this worker are
    // rescued on arrival (arriveWorker); their occupancy stays
    // charged until then. When every group is already dead there is
    // nowhere to rescue to: everything this worker held is shed.
    const int tgt_i = grp.dead ? successorOf(g) : static_cast<int>(g);
    if (tgt_i < 0) {
        if (orphan != nullptr) {
            altoc_assert(grp.occupancy[w] > 0, "occupancy underflow");
            occupancyDec(grp, w);
            sink_->onRpcShed(orphan);
        }
        while (!grp.local[w].empty()) {
            net::Rpc *r = grp.local[w].front();
            grp.local[w].pop_front();
            altoc_assert(grp.occupancy[w] > 0, "occupancy underflow");
            occupancyDec(grp, w);
            sink_->onRpcShed(r);
        }
        return;
    }
    const unsigned tgt = static_cast<unsigned>(tgt_i);
    unsigned rescued = 0;
    if (orphan != nullptr) {
        altoc_assert(grp.occupancy[w] > 0, "occupancy underflow");
        occupancyDec(grp, w);
        rescueInto(tgt, orphan);
        ++rescued;
    }
    while (!grp.local[w].empty()) {
        net::Rpc *r = grp.local[w].front();
        grp.local[w].pop_front();
        altoc_assert(grp.occupancy[w] > 0, "occupancy underflow");
        occupancyDec(grp, w);
        rescueInto(tgt, r);
        ++rescued;
    }
    requestsRescued_ += rescued;
    if (rescued > 0) {
        ALTOC_TRACE_HOOK(ctx_.tracer,
                         record(ctx_.sim->now(), tgt,
                                trace::TraceKind::DescriptorRescue,
                                trace::tracePack(rescued,
                                                 grp.workerCores[w])));
    }
    if (grp.dead) {
        pump(tgt);
        return;
    }
    grp.qView[g] = grp.rx.length();

    // Re-solve the Erlang-C model for the shrunk worker set; the next
    // runtime period picks the new threshold up via modelFor().
    unsigned live = 0;
    for (const std::uint8_t d : grp.workerDead) {
        if (d == 0)
            ++live;
    }
    if (live == 0) {
        // Every worker of the group is gone: the group can serve
        // nothing, so it retires entirely and its work and flows move
        // to the successor, exactly as if the manager had died.
        failOverGroup(g);
        return;
    }
    grp.shrunkModel = std::make_unique<ThresholdModel>(
        live, cfg_.params.sloFactor, defaultConstants(cfg_.distName));
    pump(g);
}

void
GroupScheduler::failOverGroup(unsigned g)
{
    Group &grp = groups_[g];
    altoc_assert(!grp.dead, "group %u failed over twice", g);
    grp.dead = true;
    // Messages addressed to the dead manager now vanish (MIGRATE) or
    // are discarded (UPDATE) at the messaging layer.
    msg_->setManagerDead(g);
    // Failover is a global control-plane action: every surviving
    // manager learns the verdict immediately, so nobody wastes
    // probes on a group that is known to be gone.
    for (unsigned h = 0; h < cfg_.numGroups; ++h) {
        if (h == g || groups_[h].dead)
            continue;
        PeerHealth &ph = groups_[h].peers[g];
        ph.quarantined = true;
        ph.deadDeclared = true;
    }

    const int succ_i = successorOf(g);
    if (succ_i < 0) {
        // The last group went down with the machine: its pending
        // arrivals have no adoptive group, so they are shed.
        while (net::Rpc *r = grp.rx.dequeueHead())
            sink_->onRpcShed(r);
        ++managersFailedOver_;
        grp.qView[g] = 0;
        return;
    }
    const unsigned succ = static_cast<unsigned>(succ_i);
    Group &sgrp = groups_[succ];

    // The successor adopts the dead group's pending arrivals; its
    // own queue-depth view refreshes the same tick so the very next
    // decision sees the adopted load.
    unsigned rescued = 0;
    while (net::Rpc *r = grp.rx.dequeueHead()) {
        rescueInto(succ, r);
        ++rescued;
    }
    requestsRescued_ += rescued;
    ++managersFailedOver_;
    grp.qView[g] = 0;
    sgrp.qView[succ] = sgrp.rx.length();
    ALTOC_TRACE_HOOK(ctx_.tracer,
                     record(ctx_.sim->now(), succ,
                            trace::TraceKind::ManagerFailover,
                            trace::tracePack(rescued, g)));
    pump(succ);
}

int
GroupScheduler::successorOf(unsigned g) const
{
    for (unsigned i = 1; i < cfg_.numGroups; ++i) {
        const unsigned d = (g + i) % cfg_.numGroups;
        if (!groups_[d].dead)
            return static_cast<int>(d);
    }
    return -1;
}

void
GroupScheduler::rescueInto(unsigned g, net::Rpc *r)
{
    ALTOC_AUDIT_HOOK(audit_, onRescue(*r, g));
    r->curGroup = static_cast<std::uint16_t>(g);
    groups_[g].rx.enqueue(r, ctx_.sim->now());
}

void
GroupScheduler::rescueReturned(unsigned g,
                               const std::vector<net::Rpc *> &reqs)
{
    const int succ_i = successorOf(g);
    if (succ_i < 0) {
        for (net::Rpc *r : reqs)
            sink_->onRpcShed(r);
        return;
    }
    const unsigned succ = static_cast<unsigned>(succ_i);
    for (net::Rpc *r : reqs)
        rescueInto(succ, r);
    requestsRescued_ += reqs.size();
    ALTOC_TRACE_HOOK(
        ctx_.tracer,
        record(ctx_.sim->now(), succ, trace::TraceKind::DescriptorRescue,
               trace::tracePack(static_cast<unsigned>(reqs.size()),
                                groups_[g].managerCore)));
    pump(succ);
}

unsigned
GroupScheduler::liveWorkerCores() const
{
    unsigned live = 0;
    for (const Group &grp : groups_) {
        if (grp.dead)
            continue;
        for (const std::uint8_t d : grp.workerDead) {
            if (d == 0)
                ++live;
        }
    }
    return live;
}

} // namespace altoc::core
