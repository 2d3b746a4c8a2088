/**
 * @file
 * The hardware messaging mechanism (Sec. V).
 *
 * Each manager tile gains migration registers (MRs), parameter
 * registers (PRs), a send FIFO, a receive FIFO, a migrator and a
 * controller (Fig. 6). Four message types flow between manager tiles
 * over the NoC's dedicated scheduling virtual network (Table II):
 *
 *  - PREDICT_CONFIG: core-local PR writes (never crosses the NoC);
 *  - MIGRATE:  a batch of RPC descriptors moved source -> dest;
 *  - UPDATE:   queue-length broadcast to all other managers;
 *  - ACK/NACK: completion / rejection of a MIGRATE.
 *
 * Faithful buffer semantics: a source stages outgoing descriptors in
 * its MR bank until the ACK arrives (ACK invalidates the entries); a
 * destination whose receive FIFO or MR bank is full drops the
 * MIGRATE and returns a NACK; the source does not replay -- it hands
 * the requests back to its local queue (Sec. V-A).
 *
 * Hardened protocol (beyond the paper's lossless-VN assumption):
 * every outstanding MIGRATE exchange is tracked in a sequence-keyed
 * table that is the single source of truth for who owns the batch.
 * With a fault injector attached, MIGRATE/ACK/NACK messages can be
 * dropped, duplicated or delayed; an armed ACK timeout then resolves
 * the exchange exactly once: a batch whose delivery never happened is
 * handed to the timeout callback for retry/reclaim, a batch that
 * landed but lost its ACK only releases the staged MR entries (the
 * requests live at the destination -- reclaiming them would duplicate
 * work), and late or duplicate protocol messages are discarded as
 * stale against the table. Without an injector no timeout is ever
 * armed and the event stream is bit-identical to the original model.
 */

#ifndef ALTOC_CORE_HW_MESSAGING_HH
#define ALTOC_CORE_HW_MESSAGING_HH

#include <cstdint>
#include <vector>

#include "common/inline_fn.hh"
#include "common/units.hh"
#include "core/params.hh"
#include "net/rpc.hh"
#include "noc/mesh.hh"
#include "sim/simulator.hh"

namespace altoc::sim {
class FaultInjector;
} // namespace altoc::sim

namespace altoc::trace {
class Tracer;
} // namespace altoc::trace

namespace altoc::core {

/** Aggregate counters for migration-traffic accounting (Sec. VIII-E). */
struct MessagingStats
{
    std::uint64_t migratesSent = 0;
    std::uint64_t migratesAcked = 0;
    std::uint64_t migratesNacked = 0;
    std::uint64_t migratesTimedOut = 0;
    std::uint64_t staleMigratesDiscarded = 0;
    std::uint64_t descriptorsSent = 0;
    std::uint64_t descriptorsDelivered = 0;
    std::uint64_t descriptorsReturned = 0;
    std::uint64_t updatesSent = 0;
    std::uint64_t sendsRefused = 0;
    std::uint64_t bytesOnNoc = 0;
    /** MIGRATEs swallowed by a fail-stopped manager's receive path
     *  (no NACK; the source's ACK timeout is the failure signal). */
    std::uint64_t migratesToDead = 0;

    /** Field-wise sum (rack-wide totals). */
    MessagingStats &
    operator+=(const MessagingStats &o)
    {
        migratesSent += o.migratesSent;
        migratesAcked += o.migratesAcked;
        migratesNacked += o.migratesNacked;
        migratesTimedOut += o.migratesTimedOut;
        staleMigratesDiscarded += o.staleMigratesDiscarded;
        descriptorsSent += o.descriptorsSent;
        descriptorsDelivered += o.descriptorsDelivered;
        descriptorsReturned += o.descriptorsReturned;
        updatesSent += o.updatesSent;
        sendsRefused += o.sendsRefused;
        bytesOnNoc += o.bytesOnNoc;
        migratesToDead += o.migratesToDead;
        return *this;
    }
};

/**
 * System-wide messaging fabric: one mailbox per manager tile.
 */
class HwMessaging
{
  public:
    struct Config
    {
        unsigned mrEntries = hw::kMrEntries;
        unsigned fifoEntries = hw::kFifoEntries;
        /** False models the software shared-cache fallback. */
        bool hardware = true;
        /** ACK deadline per MIGRATE; armed only with fault injection
         *  (a lossless VN cannot time out). */
        Tick ackTimeout = 2 * kUs;
    };

    /** Migrated descriptors arrived at manager @p mgr. */
    using MigrateInFn = InlineFunction<void(
        unsigned mgr, const std::vector<net::Rpc *> &)>;

    /** A MIGRATE from @p mgr to @p dst was NACKed and returned its
     *  descriptors to the source. */
    using ReturnFn = InlineFunction<void(
        unsigned mgr, unsigned dst, const std::vector<net::Rpc *> &)>;

    /**
     * An outstanding MIGRATE (attempt number @p attempt) from @p src
     * to @p dst hit its ACK deadline. @p reqs is the reclaimed batch
     * when the delivery provably never landed; it is EMPTY when the
     * batch was delivered but the ACK was lost -- the requests then
     * live at the destination and only the failure signal remains.
     */
    using TimeoutFn = InlineFunction<void(unsigned src, unsigned dst,
                                          std::vector<net::Rpc *> reqs,
                                          unsigned attempt)>;

    /** The ACK for a MIGRATE of @p n descriptors from @p src to
     *  @p dst arrived back at the source. */
    using AckFn =
        InlineFunction<void(unsigned src, unsigned dst, std::size_t n)>;

    /**
     * @param sim           simulation engine
     * @param mesh          NoC carrying the messages
     * @param manager_tiles NoC tile of each manager core
     */
    HwMessaging(sim::Simulator &sim, noc::Mesh &mesh,
                std::vector<unsigned> manager_tiles, const Config &cfg);

    void setMigrateIn(MigrateInFn fn) { migrateIn_ = std::move(fn); }
    void setReturn(ReturnFn fn) { returnFn_ = std::move(fn); }
    void setTimeout(TimeoutFn fn) { timeoutFn_ = std::move(fn); }
    void setAck(AckFn fn) { ackFn_ = std::move(fn); }

    /** Attach the run's fault injector (null = pristine VN). */
    void setFaults(sim::FaultInjector *faults) { faults_ = faults; }

    /**
     * Mark manager @p mgr fail-stopped: a MIGRATE arriving at it
     * vanishes into the dead receive path (no NACK -- the source's
     * ACK timeout is the only failure signal, exactly like a real
     * crashed tile), UPDATEs that arrive after this point are
     * discarded (those that arrived before stay landed) and future
     * broadcasts skip it. Only ever called under fault injection, so
     * the pristine path is untouched.
     */
    void setManagerDead(unsigned mgr);

    /** Attach the run's event tracer (null = untraced). MIGRATE
     *  protocol legs (send, arrival, ACK, NACK, timeout) are recorded
     *  on the involved manager's ring; recording is memory-only and
     *  never alters protocol behavior. */
    void setTracer(trace::Tracer *tracer) { tracer_ = tracer; }

    /**
     * Issue a MIGRATE carrying @p reqs from manager @p src to
     * manager @p dst. The descriptors are copied into the table's
     * (capacity-recycled) staging batch; the caller's vector is
     * untouched and reusable. Returns false (and touches nothing)
     * when the source lacks free MR staging entries or send-FIFO
     * slots; the caller then still owns the requests.
     * @p attempt tags retries of a timed-out batch (0 = original).
     */
    bool sendMigrate(unsigned src, unsigned dst,
                     const std::vector<net::Rpc *> &reqs,
                     unsigned attempt = 0);

    /**
     * Broadcast manager @p src's queue length to all others.
     *
     * UPDATEs carry *status*, not events: a newer value supersedes an
     * older one. At most one UPDATE per (src, dst) pair is in flight;
     * while one is airborne, newer broadcasts just overwrite the
     * pending value, and the freshest value is re-sent when the wire
     * frees. This mirrors hardware status registers and keeps tiny
     * periods (Fig. 11's 10 ns sweep) from saturating the
     * scheduling virtual network.
     *
     * A delivery is a register write, not an event. Each launch books
     * the NoC as before and reserves the dispatch position its arrival
     * event would have had; the value lands when the destination reads
     * its view (readUpdates) after that position has passed. Only a
     * coalesced value costs an event: one per airborne value, at the
     * reserved position, which relaunches the freshest value exactly
     * where the arrival would have, so its link bookings keep their
     * order against MIGRATE, ACK and NACK traffic.
     */
    void broadcastUpdate(unsigned src, std::size_t qlen);

    /**
     * Manager @p mgr reads its status registers: every UPDATE to it
     * whose arrival has passed lands, and @p q[src] takes the newest
     * value landed from each other manager src (0 before the first).
     * @p q[mgr] is left alone.
     */
    void readUpdates(unsigned mgr, std::vector<std::size_t> &q);

    /** Free MR staging capacity at manager @p mgr right now. */
    unsigned freeMrEntries(unsigned mgr) const;

    /** Largest batch sendMigrate() would currently accept. */
    unsigned sendCapacity(unsigned mgr) const;

    /** MIGRATE exchanges currently outstanding (protocol in flight). */
    std::size_t outstanding() const { return liveOutstanding_; }

    const MessagingStats &stats() const { return stats_; }

    unsigned numManagers() const
    {
        return static_cast<unsigned>(tiles_.size());
    }

  private:
    struct Mailbox
    {
        /** MR entries staged for in-flight outbound migrations. */
        unsigned mrStaged = 0;
        /** Occupied send-FIFO slots (descriptors in flight). */
        unsigned sendFifoUsed = 0;
        /** Occupied receive-FIFO slots (descriptors draining). */
        unsigned recvFifoUsed = 0;
        /** MR entries holding migrated-in descriptors being drained
         *  toward the NetRX queue. */
        unsigned mrInbound = 0;
    };

    /** Per-(src,dst) UPDATE channel: the airborne value, the one
     *  coalesced behind it and the destination's status register. */
    struct UpdateChannel
    {
        /** The value on the wire and the (tick, seq) its arrival event
         *  would have had; meaningful while inFlight. */
        std::size_t airborne = 0;
        Tick arriveAt = 0;
        std::uint64_t arriveSeq = 0;
        /** Newest value broadcast while one was airborne; a real event
         *  at the arrival's position relaunches it (hasPending). */
        std::size_t pending = 0;
        /** Newest value landed at the destination. */
        std::size_t landed = 0;
        bool inFlight = false;
        bool hasPending = false;
    };

    /** Lifecycle of one outstanding MIGRATE exchange. */
    enum class PendingState : std::uint8_t
    {
        InFlight,     //!< MIGRATE launched, not yet arrived
        Delivered,    //!< landed at the destination, ACK under way
        NackInFlight, //!< rejected at the destination, NACK under way
    };

    /**
     * Outstanding-MIGRATE table entry: the single source of truth
     * for who owns the batch. Protocol events (arrival, ACK, NACK,
     * timeout) resolve against it exactly once; anything that finds
     * no entry -- or the wrong state -- is a stale or duplicated
     * message and is discarded.
     */
    struct Pending
    {
        unsigned src = 0;
        unsigned dst = 0;
        unsigned attempt = 0;
        unsigned count = 0;
        PendingState state = PendingState::InFlight;
        /** The source send-FIFO slots were reclaimed (exactly once:
         *  by arrival, by a dropped message's drain, or by timeout,
         *  whichever resolves first). */
        bool fifoDrained = false;
        /** The batch, until it is handed over: moved out on delivery
         *  (the destination owns it) or by NACK/timeout resolution
         *  (the source reclaims it). */
        std::vector<net::Rpc *> reqs;
        sim::EventId timeout = sim::kNoEvent;
    };

    /**
     * One slot of the outstanding-MIGRATE table. The table is a flat
     * generation-counted slot pool (the event queue's idiom): a seq
     * handle encodes (generation << 32 | slot + 1), so resolving a
     * protocol leg is an array index plus a generation compare
     * instead of a hash lookup, freeing a slot is an O(1) free-list
     * push, and a freed slot's bumped generation makes every stale
     * handle miss -- exactly the discard semantics the hardened
     * protocol needs. Slot reuse keeps the batch vector's capacity,
     * so steady-state migrations allocate nothing.
     */
    struct Slot
    {
        Pending p;
        std::uint32_t gen = 0;
        std::uint32_t nextFree = kNilSlot;
        bool live = false;
    };

    static constexpr std::uint32_t kNilSlot = ~std::uint32_t{0};

    /** Largest number of recycled batch buffers kept around. */
    static constexpr std::size_t kBatchPoolCap = 64;

    /** Allocate a pending slot; @p seq_out receives its handle. */
    Pending &allocPending(std::uint64_t &seq_out);

    /** Resolve @p seq, or null for a stale/unknown handle. */
    Pending *findPending(std::uint64_t seq);

    /** Retire @p seq's slot (keeps the batch vector's capacity). */
    void freePending(std::uint64_t seq);

    /** Return a drained batch buffer to the reuse pool. */
    void recycleBatch(std::vector<net::Rpc *> &&batch);

    /** Wire size of a MIGRATE with @p n descriptors. */
    static std::uint32_t migrateBytes(std::size_t n);

    /** Launch the freshest value on @p chan, the idle update
     *  channel from @p src to @p dst. */
    void launchUpdate(unsigned src, unsigned dst, UpdateChannel &chan,
                      std::size_t qlen);

    /** Land @p chan's airborne value at @p dst if its arrival has
     *  passed and no relaunch event owns it. */
    void settleUpdate(unsigned dst, UpdateChannel &chan);

    /** The coalescing event at an airborne value's arrival: land it,
     *  then relaunch the pending value. */
    void relaunchUpdate(unsigned src, unsigned dst);

    void deliverMigrate(std::uint64_t seq);
    void deliverAck(std::uint64_t seq);
    void deliverNack(std::uint64_t seq);
    void onAckTimeout(std::uint64_t seq);

    /** The send FIFO drains once the message has left the source. */
    void drainSendFifo(std::uint64_t seq);

    /** Release the MR entries staged for @p p at its source. */
    void releaseStaging(const Pending &p);

    /** Fate draw for a protocol message (Deliver without injector). */
    int messageFate(unsigned src, unsigned dst);

    /** NoC transit time for @p bytes between two managers. */
    Tick transit(unsigned src, unsigned dst, std::uint32_t bytes);

    sim::Simulator &sim_;
    noc::Mesh &mesh_;
    std::vector<unsigned> tiles_;
    Config cfg_;
    std::vector<Mailbox> boxes_;
    /** updates_[src * numManagers + dst] */
    std::vector<UpdateChannel> updates_;
    std::vector<Slot> slots_;
    std::uint32_t freeHead_ = kNilSlot;
    std::size_t liveOutstanding_ = 0;
    /** Recycled batch buffers (vector-capacity reuse). */
    std::vector<std::vector<net::Rpc *>> batchPool_;
    /** NACK-return staging: the batch swaps out here so the slot can
     *  retire before the return callback runs. */
    std::vector<net::Rpc *> returnScratch_;
    /** deadMgr_[m] != 0 once manager m fail-stopped. */
    std::vector<std::uint8_t> deadMgr_;
    sim::FaultInjector *faults_ = nullptr;
    trace::Tracer *tracer_ = nullptr;
    MigrateInFn migrateIn_;
    ReturnFn returnFn_;
    TimeoutFn timeoutFn_;
    AckFn ackFn_;
    MessagingStats stats_;
};

} // namespace altoc::core

#endif // ALTOC_CORE_HW_MESSAGING_HH
