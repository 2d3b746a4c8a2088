/**
 * @file
 * Hardware messaging implementation.
 *
 * Timing model per MIGRATE:
 *   send:    controller (2 ns) + migrator MR->FIFO (n/2 ns) +
 *            NoC transit of header + n x 14 B descriptors
 *   receive: controller (2 ns) + migrator FIFO->MR (n/2 ns), then
 *            the descriptors are handed to the runtime's NetRX
 *   ACK:     header-sized NoC message back; invalidates the staged
 *            source MR entries
 * In software mode (hardware=false) each leg instead costs the
 * shared-cache constants of core/params.hh and ignores MR/FIFO
 * bounds (memory is plentiful, latency is the price).
 *
 * The protocol is driven off the outstanding-MIGRATE table keyed by
 * sequence number. Every in-flight leg (MIGRATE arrival, ACK, NACK,
 * the ACK timeout) carries only its seq and re-resolves against the
 * table when it fires, so a leg that was dropped, duplicated or
 * overtaken by the timeout can never double-apply its effect: the
 * first resolution wins and every later one is discarded as stale.
 */

#include "core/hw_messaging.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/annotations.hh"
#include "sim/fault_injector.hh"
#include "trace/trace.hh"

namespace altoc::core {

namespace {

/** messageFate() encoding (keeps sim/fault_injector.hh out of the
 *  header). */
enum : int
{
    kFateDeliver = 0,
    kFateDrop = 1,
    kFateDup = 2,
};

/** A duplicated protocol message trails the original by one tick. */
constexpr Tick kDupLagNs = 1;

} // namespace

HwMessaging::HwMessaging(sim::Simulator &sim, noc::Mesh &mesh,
                         std::vector<unsigned> manager_tiles,
                         const Config &cfg)
    : sim_(sim), mesh_(mesh), tiles_(std::move(manager_tiles)), cfg_(cfg)
{
    altoc_assert(!tiles_.empty(), "messaging needs at least one manager");
    boxes_.assign(tiles_.size(), Mailbox{});
    updates_.assign(tiles_.size() * tiles_.size(), UpdateChannel{});
    deadMgr_.assign(tiles_.size(), 0);
    // Concurrency cap of the hardware protocol: each outstanding
    // MIGRATE stages at least one MR entry at its source, so the
    // table can never exceed managers x MR entries live slots.
    // (Software mode is unbounded; the pool then grows on demand.)
    slots_.reserve(static_cast<std::size_t>(tiles_.size()) *
                   cfg_.mrEntries);
}

std::uint32_t
HwMessaging::migrateBytes(std::size_t n)
{
    return hw::kHeaderBytes +
           static_cast<std::uint32_t>(n) * net::kDescriptorBytes;
}

Tick
HwMessaging::transit(unsigned src, unsigned dst, std::uint32_t bytes)
{
    if (!cfg_.hardware)
        return hw::kSwMessageNs;
    const Tick depart = sim_.now();
    const Tick arrive = mesh_.send(noc::kVnSched, tiles_[src],
                                   tiles_[dst], bytes, depart);
    stats_.bytesOnNoc += bytes;
    return arrive - depart;
}

int
HwMessaging::messageFate(unsigned src, unsigned dst)
{
    if (!faults_)
        return kFateDeliver;
    switch (faults_->messageFate(sim_.now(), src, dst)) {
    case sim::FaultInjector::MsgFate::Drop:
        return kFateDrop;
    case sim::FaultInjector::MsgFate::Duplicate:
        return kFateDup;
    case sim::FaultInjector::MsgFate::Deliver:
        break;
    }
    return kFateDeliver;
}

unsigned
HwMessaging::freeMrEntries(unsigned mgr) const
{
    const Mailbox &box = boxes_[mgr];
    const unsigned used = box.mrStaged + box.mrInbound;
    return used >= cfg_.mrEntries ? 0 : cfg_.mrEntries - used;
}

unsigned
HwMessaging::sendCapacity(unsigned mgr) const
{
    if (!cfg_.hardware)
        return ~0u;
    const Mailbox &box = boxes_[mgr];
    const unsigned fifo_free = box.sendFifoUsed >= cfg_.fifoEntries
                                   ? 0
                                   : cfg_.fifoEntries - box.sendFifoUsed;
    return std::min(freeMrEntries(mgr), fifo_free);
}

HwMessaging::Pending &
HwMessaging::allocPending(std::uint64_t &seq_out)
{
    std::uint32_t slot;
    if (freeHead_ != kNilSlot) {
        slot = freeHead_;
        freeHead_ = slots_[slot].nextFree;
    } else {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    Slot &s = slots_[slot];
    s.live = true;
    ++liveOutstanding_;
    Pending &p = s.p;
    p.src = 0;
    p.dst = 0;
    p.attempt = 0;
    p.count = 0;
    p.state = PendingState::InFlight;
    p.fifoDrained = false;
    p.reqs.clear(); // keeps the slot's retained capacity
    p.timeout = sim::kNoEvent;
    if (p.reqs.capacity() == 0 && !batchPool_.empty()) {
        p.reqs = std::move(batchPool_.back());
        batchPool_.pop_back();
    }
    seq_out = (static_cast<std::uint64_t>(s.gen) << 32) | (slot + 1);
    return p;
}

HwMessaging::Pending *
HwMessaging::findPending(std::uint64_t seq)
{
    const auto idx = static_cast<std::uint32_t>(seq & 0xffffffffu);
    if (idx == 0)
        return nullptr;
    const std::uint32_t slot = idx - 1;
    const auto gen = static_cast<std::uint32_t>(seq >> 32);
    if (slot >= slots_.size())
        return nullptr;
    Slot &s = slots_[slot];
    if (!s.live || s.gen != gen)
        return nullptr;
    return &s.p;
}

void
HwMessaging::freePending(std::uint64_t seq)
{
    const std::uint32_t slot =
        static_cast<std::uint32_t>(seq & 0xffffffffu) - 1;
    Slot &s = slots_[slot];
    altoc_assert(s.live, "freeing a dead pending slot");
    s.live = false;
    ++s.gen; // every outstanding handle to this slot is now stale
    s.nextFree = freeHead_;
    freeHead_ = slot;
    --liveOutstanding_;
}

void
HwMessaging::recycleBatch(std::vector<net::Rpc *> &&batch)
{
    if (batch.capacity() == 0 || batchPool_.size() >= kBatchPoolCap)
        return;
    batch.clear();
    batchPool_.push_back(std::move(batch));
}

bool
HwMessaging::sendMigrate(unsigned src, unsigned dst,
                         const std::vector<net::Rpc *> &reqs,
                         unsigned attempt)
{
    altoc_assert(src < boxes_.size() && dst < boxes_.size(),
                 "manager id out of range");
    altoc_assert(src != dst, "self-migration is meaningless");
    altoc_assert(!reqs.empty(), "empty MIGRATE");

    const unsigned n = static_cast<unsigned>(reqs.size());
    if (cfg_.hardware && sendCapacity(src) < n) {
        ++stats_.sendsRefused;
        return false;
    }

    Mailbox &box = boxes_[src];
    if (cfg_.hardware) {
        box.mrStaged += n;
        box.sendFifoUsed += n;
    }
    ++stats_.migratesSent;
    stats_.descriptorsSent += n;
    ALTOC_TRACE_HOOK(tracer_,
                     record(sim_.now(), src, trace::TraceKind::MigrateSend,
                            trace::tracePack(n, dst),
                            static_cast<std::uint8_t>(attempt)));

    std::uint64_t seq = 0;
    Pending &p = allocPending(seq);
    p.src = src;
    p.dst = dst;
    p.attempt = attempt;
    p.count = n;
    p.reqs.assign(reqs.begin(), reqs.end());

    // Source-side controller + migrator time, then NoC transit.
    const Tick local = hw::kControllerNs +
                       (n + hw::kMigratorDescsPerNs - 1) /
                           hw::kMigratorDescsPerNs;
    const Tick flight = transit(src, dst, migrateBytes(n));

    // A lossless VN cannot time out; the deadline exists only under
    // fault injection, keeping the pristine event stream untouched.
    if (faults_) {
        p.timeout = sim_.after(cfg_.ackTimeout,
                               [this, seq] { onAckTimeout(seq); });
    }

    switch (messageFate(src, dst)) {
    case kFateDrop:
        // Lost in the NoC: the send FIFO still drains when the
        // message would have left the wire; the timeout reclaims.
        sim_.after(local + flight, [this, seq] { drainSendFifo(seq); });
        break;
    case kFateDup:
        sim_.after(local + flight + kDupLagNs,
                   [this, seq] { deliverMigrate(seq); });
        [[fallthrough]];
    case kFateDeliver:
    default:
        sim_.after(local + flight, [this, seq] { deliverMigrate(seq); });
        break;
    }
    return true;
}

ALTOC_HOT void
HwMessaging::drainSendFifo(std::uint64_t seq)
{
    Pending *p = findPending(seq);
    if (p == nullptr || p->fifoDrained)
        return;
    p->fifoDrained = true;
    if (cfg_.hardware) {
        Mailbox &box = boxes_[p->src];
        box.sendFifoUsed -= std::min(box.sendFifoUsed, p->count);
    }
}

void
HwMessaging::releaseStaging(const Pending &p)
{
    if (cfg_.hardware) {
        Mailbox &box = boxes_[p.src];
        box.mrStaged -= std::min(box.mrStaged, p.count);
    }
}

ALTOC_HOT void
HwMessaging::deliverMigrate(std::uint64_t seq)
{
    Pending *pp = findPending(seq);
    if (pp == nullptr || pp->state != PendingState::InFlight) {
        // Duplicate copy, or the timeout already resolved this
        // exchange: a single delivery must remain a single delivery.
        ++stats_.staleMigratesDiscarded;
        return;
    }
    Pending &p = *pp;
    const unsigned src = p.src;
    const unsigned dst = p.dst;
    const unsigned n = p.count;

    // The send FIFO drains once the message is on the wire.
    drainSendFifo(seq);

    if (deadMgr_[dst] != 0) {
        // The destination tile fail-stopped: the message vanishes
        // into its dead receive path. No NACK comes back; the
        // source's ACK timeout (always armed when kills are possible)
        // resolves the exchange and reclaims the batch.
        ++stats_.migratesToDead;
        return;
    }

    Mailbox &dbox = boxes_[dst];
    bool room =
        !cfg_.hardware ||
        (dbox.recvFifoUsed + n <= cfg_.fifoEntries &&
         dbox.mrInbound + n + dbox.mrStaged <= cfg_.mrEntries);
    // An injected exhaustion storm (or a stalled manager) rejects
    // even when the buffers nominally have room.
    if (room && faults_ && faults_->recvExhausted(dst, sim_.now()))
        room = false;

    if (!room) {
        // Drop + NACK; the source hands the requests back to its
        // local queue (no replay, Sec. V-A).
        ++stats_.migratesNacked;
        p.state = PendingState::NackInFlight;
        const Tick flight = transit(dst, src, hw::kHeaderBytes);
        switch (messageFate(dst, src)) {
        case kFateDrop:
            // NACK lost: the timeout reclaims the batch.
            break;
        case kFateDup:
            sim_.after(hw::kControllerNs + flight + kDupLagNs,
                       [this, seq] { deliverNack(seq); });
            [[fallthrough]];
        case kFateDeliver:
        default:
            sim_.after(hw::kControllerNs + flight,
                       [this, seq] { deliverNack(seq); });
            break;
        }
        return;
    }

    if (cfg_.hardware) {
        dbox.recvFifoUsed += n;
        dbox.mrInbound += n;
    }
    // Ownership transfers NOW: the destination holds the batch, so a
    // timeout racing the drain below can only release staging -- it
    // must never hand these requests back to the source as well.
    p.state = PendingState::Delivered;
    std::vector<net::Rpc *> batch = std::move(p.reqs);
    p.reqs.clear();

    // Controller validation + migrator drain into the MR bank, after
    // which the descriptors are scheduled (handed to the runtime) and
    // the ACK departs.
    const Tick drain = hw::kControllerNs +
                       (n + hw::kMigratorDescsPerNs - 1) /
                           hw::kMigratorDescsPerNs;
    // Manager ids travel as uint16 (they already fit Rpc::curGroup)
    // and the count is re-derived from the batch, keeping this --
    // the fattest closure in the tree -- inside InlineFn's inline
    // budget: this + seq + vector + 2x uint16 = 44 bytes.
    sim_.after(drain, [this, seq, batch = std::move(batch),
                       src16 = static_cast<std::uint16_t>(src),
                       dst16 = static_cast<std::uint16_t>(dst)]() mutable {
        const unsigned src = src16;
        const unsigned dst = dst16;
        const unsigned n = static_cast<unsigned>(batch.size());
        Mailbox &box = boxes_[dst];
        if (cfg_.hardware) {
            box.recvFifoUsed -= std::min(box.recvFifoUsed, n);
            box.mrInbound -= std::min(box.mrInbound, n);
        }
        stats_.descriptorsDelivered += n;
        for (net::Rpc *r : batch) {
            r->migrated = true;
            r->curGroup = static_cast<std::uint16_t>(dst);
        }
        if (deadMgr_[dst] != 0) {
            // The manager died while the migrator was draining this
            // batch into the MR bank. The descriptors survive in the
            // bank and are handed to the scheduler for rescue, but
            // the dead tile records no arrival and returns no ACK --
            // the source's timeout resolves the exchange (with an
            // empty batch: ownership transferred at delivery).
            if (migrateIn_)
                migrateIn_(dst, batch);
            recycleBatch(std::move(batch));
            return;
        }
        ALTOC_TRACE_HOOK(tracer_,
                         record(sim_.now(), dst,
                                trace::TraceKind::MigrateArrive,
                                trace::tracePack(n, src)));
        if (migrateIn_)
            migrateIn_(dst, batch);
        const Tick flight = transit(dst, src, hw::kHeaderBytes);
        switch (messageFate(dst, src)) {
        case kFateDrop:
            // ACK lost: the timeout frees the staged MR entries but
            // gets an empty batch -- the requests live here now.
            break;
        case kFateDup:
            sim_.after(hw::kControllerNs + flight + kDupLagNs,
                       [this, seq] { deliverAck(seq); });
            [[fallthrough]];
        case kFateDeliver:
        default:
            sim_.after(hw::kControllerNs + flight,
                       [this, seq] { deliverAck(seq); });
            break;
        }
        // The drained batch buffer goes back to the pool so the next
        // MIGRATE reuses its capacity instead of allocating.
        recycleBatch(std::move(batch));
    });
}

void
HwMessaging::deliverAck(std::uint64_t seq)
{
    Pending *p = findPending(seq);
    if (p == nullptr || p->state != PendingState::Delivered) {
        ++stats_.staleMigratesDiscarded;
        return;
    }
    if (p->timeout != sim::kNoEvent)
        sim_.cancel(p->timeout);
    // ACK invalidates the staged MR entries at the source.
    releaseStaging(*p);
    const unsigned src = p->src;
    const unsigned dst = p->dst;
    const unsigned n = p->count;
    freePending(seq);
    ++stats_.migratesAcked;
    ALTOC_TRACE_HOOK(tracer_,
                     record(sim_.now(), src, trace::TraceKind::MigrateAck,
                            trace::tracePack(n, dst)));
    if (ackFn_)
        ackFn_(src, dst, n);
}

void
HwMessaging::deliverNack(std::uint64_t seq)
{
    Pending *p = findPending(seq);
    if (p == nullptr || p->state != PendingState::NackInFlight) {
        ++stats_.staleMigratesDiscarded;
        return;
    }
    if (p->timeout != sim::kNoEvent)
        sim_.cancel(p->timeout);
    releaseStaging(*p);
    stats_.descriptorsReturned += p->reqs.size();
    const unsigned src = p->src;
    const unsigned dst = p->dst;
    ALTOC_TRACE_HOOK(tracer_,
                     record(sim_.now(), src, trace::TraceKind::MigrateNack,
                            trace::tracePack(p->count, dst)));
    // Swap the batch into the return-staging buffer so the slot can
    // retire (and be reused by anything the callback triggers)
    // before the callback observes the descriptors. The swap trades
    // vector capacities, so neither side allocates.
    std::swap(returnScratch_, p->reqs);
    freePending(seq);
    if (returnFn_)
        returnFn_(src, dst, returnScratch_);
}

void
HwMessaging::onAckTimeout(std::uint64_t seq)
{
    Pending *p = findPending(seq);
    if (p == nullptr)
        return;
    // A never-delivered message still occupies its send-FIFO slots;
    // the timeout is what finally invalidates them.
    if (!p->fifoDrained && cfg_.hardware) {
        Mailbox &box = boxes_[p->src];
        box.sendFifoUsed -= std::min(box.sendFifoUsed, p->count);
    }
    releaseStaging(*p);
    ++stats_.migratesTimedOut;
    ALTOC_TRACE_HOOK(tracer_,
                     record(sim_.now(), p->src,
                            trace::TraceKind::MigrateTimeout,
                            trace::tracePack(p->count, p->dst),
                            static_cast<std::uint8_t>(p->attempt)));
    // The reclaimed batch is empty when state reached Delivered: the
    // requests live at the destination and must not be reclaimed
    // here. Timeouts only fire under fault injection, so moving the
    // vector out (and the allocation that implies later) is off the
    // pristine hot path.
    std::vector<net::Rpc *> reqs = std::move(p->reqs);
    const unsigned src = p->src;
    const unsigned dst = p->dst;
    const unsigned attempt = p->attempt;
    freePending(seq);
    if (timeoutFn_)
        timeoutFn_(src, dst, std::move(reqs), attempt);
}

void
HwMessaging::setManagerDead(unsigned mgr)
{
    altoc_assert(mgr < deadMgr_.size(), "manager id out of range");
    // What arrived before the fail-stop stays in the registers; what
    // arrives after it is discarded.
    for (unsigned src = 0; src < numManagers(); ++src) {
        if (src != mgr)
            settleUpdate(mgr, updates_[src * numManagers() + mgr]);
    }
    deadMgr_[mgr] = 1;
}

void
HwMessaging::broadcastUpdate(unsigned src, std::size_t qlen)
{
    const unsigned n = numManagers();
    UpdateChannel *chan = &updates_[static_cast<std::size_t>(src) * n];
    for (unsigned dst = 0; dst < n; ++dst, ++chan) {
        if (dst == src || deadMgr_[dst] != 0)
            continue;
        settleUpdate(dst, *chan);
        if (!chan->inFlight) {
            launchUpdate(src, dst, *chan, qlen);
            continue;
        }
        // Coalesce: the newest value supersedes any pending one. The
        // first one behind an airborne value files the event that
        // relaunches it when the wire frees.
        if (!chan->hasPending) {
            chan->hasPending = true;
            sim_.atSeq(chan->arriveAt, chan->arriveSeq,
                       [this, src, dst] { relaunchUpdate(src, dst); });
        }
        chan->pending = qlen;
    }
}

void
HwMessaging::readUpdates(unsigned mgr, std::vector<std::size_t> &q)
{
    const unsigned n = numManagers();
    UpdateChannel *chan = &updates_[mgr];
    for (unsigned src = 0; src < n; ++src, chan += n) {
        if (src == mgr)
            continue;
        settleUpdate(mgr, *chan);
        q[src] = chan->landed;
    }
}

void
HwMessaging::launchUpdate(unsigned src, unsigned dst, UpdateChannel &chan,
                          std::size_t qlen)
{
    ++stats_.updatesSent;
    const Tick flight = cfg_.hardware
                            ? transit(src, dst, hw::kHeaderBytes)
                            : hw::kSwUpdateNs;
    // The seq is drawn where scheduling the arrival would draw it, so
    // every other event keeps its position.
    chan.inFlight = true;
    chan.airborne = qlen;
    chan.arriveAt = sim_.now() + hw::kControllerNs + flight;
    chan.arriveSeq = sim_.reserveSeq();
}

void
HwMessaging::settleUpdate(unsigned dst, UpdateChannel &chan)
{
    if (!chan.inFlight || chan.hasPending ||
        !sim_.reached(chan.arriveAt, chan.arriveSeq)) {
        return;
    }
    chan.inFlight = false;
    if (deadMgr_[dst] == 0)
        chan.landed = chan.airborne;
}

void
HwMessaging::relaunchUpdate(unsigned src, unsigned dst)
{
    UpdateChannel &chan = updates_[src * numManagers() + dst];
    if (deadMgr_[dst] == 0)
        chan.landed = chan.airborne;
    chan.hasPending = false;
    launchUpdate(src, dst, chan, chan.pending);
}

} // namespace altoc::core
