/**
 * @file
 * Deterministic discrete-event queue: the simulator's hot-path kernel.
 *
 * Events are ordered by (tick, sequence); the sequence counter breaks
 * ties in insertion order so simulations replay identically across
 * runs. Internals are built for zero steady-state allocation:
 *
 *  - callbacks are fixed-capacity InlineFn objects (no std::function,
 *    no heap for captures) parked out-of-line in a slot pool;
 *  - liveness is a generation-counted slot pool: EventId packs
 *    (generation, slot), and alloc/cancel are O(1) pointer bumps on a
 *    free list -- no hashing, no unordered_set;
 *  - near-future events -- almost all of them at nanosecond-scale
 *    scheduling -- sit in a timing wheel: one FIFO bucket per tick
 *    over the kWheelSpan ticks from the last dispatched one, threaded
 *    through the slot pool and found by an occupancy bitmap, so they
 *    schedule, cancel and dispatch in O(1);
 *  - everything else (events due kWheelSpan or more ticks ahead, and
 *    every cross-region event) goes to an overflow 4-ary min-heap
 *    over (when, seq, slot, gen) keys. Its cancellation is lazy (the
 *    key stays until it surfaces), but it compacts eagerly once dead
 *    keys exceed half the heap, so mass-cancellation workloads
 *    (timeout-heavy fault runs) cannot bloat it.
 *
 * Dispatch takes the smaller of the wheel front and the heap top by
 * (when, seq), so residency never changes the order: see the
 * ordering argument on EventQueue.
 *
 * A fired or cancelled slot bumps its generation, so stale handles
 * held across a slot's reuse are rejected in O(1). (A single slot
 * would need 2^32 reuses to alias a generation; no reachable
 * workload gets close.)
 */

#ifndef ALTOC_SIM_EVENT_QUEUE_HH
#define ALTOC_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/annotations.hh"
#include "common/inline_fn.hh"
#include "common/logging.hh"
#include "common/units.hh"

namespace altoc::sim {

/** Opaque handle to a scheduled event; used for cancellation. */
using EventId = std::uint64_t;

/** Sentinel for "no event". */
constexpr EventId kNoEvent = 0;

/**
 * Sequence-number floor of the cross-region subspace. Locally
 * scheduled events draw seq from a counter starting at 1 and could
 * only reach this bit after 2^63 schedules; events injected from
 * another kernel region (sim/kernel.hh) carry an explicit seq with
 * this bit set, composed from (sender region, sender counter). At
 * equal tick, every cross-region event therefore sorts after every
 * locally scheduled one, whenever either was scheduled, and
 * cross-region events from one sender keep the order it sent them in.
 * Every federated run's results depend on that order (the rack_ac_p2c
 * golden pins it).
 */
constexpr std::uint64_t kCrossSeqBase = std::uint64_t{1} << 63;

/**
 * Timing wheel in front of a 4-ary overflow heap, with stable
 * tie-breaking, O(1) slot-pool-based cancellation and bounded
 * dead-entry slack.
 *
 * Ordering. The wheel covers the window [cursor, cursor + kWheelSpan),
 * where the cursor is the last dispatched tick, so bucket `when mod
 * kWheelSpan` holds events of exactly one tick. A locally scheduled
 * event draws seq from one rising counter, so appending it to its
 * bucket keeps every bucket in seq order, and the first bucket at or
 * after the cursor's holds the wheel's (when, seq) minimum at its
 * head. Cross-region events (seq >= kCrossSeqBase), events filed
 * under a seq reserved earlier (reserveSeq), events due a window or
 * more ahead and events due before the cursor go to the heap
 * instead. Dispatch compares the wheel front with the heap top
 * by (when, seq), which is the only place the two residencies meet,
 * so the dispatch sequence is the one a single heap would produce.
 * The cursor only moves forward, to the tick just dispatched, and
 * that tick is the earliest pending one, so every wheel event stays
 * inside the window as it slides.
 */
class EventQueue
{
  public:
    using Callback = InlineFn;

    /** Width of the timing wheel in ticks (1 us of simulated time):
     *  the paper's 3 ns hops, 200 ns runtime periods and sub-us
     *  service put almost every event less than this far ahead of the
     *  one that schedules it. A power of two. */
    static constexpr Tick kWheelSpan = 1024;

    EventQueue();

    /**
     * Schedule @p cb at absolute time @p when. Returns a handle.
     *
     * Accepts any callable the Callback type can hold and constructs
     * it directly in its slot (one placement-new, no relocate hops);
     * a ready-made Callback moves in instead.
     */
    template <typename F>
    ALTOC_HOT EventId
    schedule(Tick when, F &&cb)
    {
        const std::uint32_t slot = parkCallback(std::forward<F>(cb));
        const EventId id = makeId(slot, slots_[slot].gen);
        pushKey(when, slot);
        return id;
    }

    /**
     * Draw the next local sequence number without scheduling anything.
     * The caller owns the sort position (when, seq) that schedule()
     * would have given an event here, and may file an event under it
     * later with scheduleAtSeq() -- or never, when it only needs to
     * know whether that position has been passed (lastWhen/lastSeq).
     */
    std::uint64_t reserveSeq() { return nextSeq_++; }

    /**
     * Schedule @p cb at @p when under an explicit sort sequence
     * instead of the insertion counter. @p seq is either
     *  - a cross-region seq (>= kCrossSeqBase): the kernel's delivery
     *    path uses these to place an event by its sender's stream
     *    (Kernel::crossSchedule); or
     *  - a local seq taken earlier by reserveSeq() (< the counter),
     *    filed once, before its tick is reached.
     * Either way the event goes to the heap, so every wheel bucket
     * keeps holding counter-drawn seqs in append order.
     */
    template <typename F>
    EventId
    scheduleAtSeq(Tick when, std::uint64_t seq, F &&cb)
    {
        altoc_assert(seq >= kCrossSeqBase || (seq != 0 && seq < nextSeq_),
                     "explicit seq neither cross-region nor reserved");
        const std::uint32_t slot = parkCallback(std::forward<F>(cb));
        const EventId id = makeId(slot, slots_[slot].gen);
        pushHeap(when, seq, slot);
        return id;
    }

    /**
     * Cancel a previously scheduled event. The slot is reclaimed
     * immediately (O(1)). A wheel event leaves its bucket at once; a
     * heap key lingers until it surfaces at the top or a compaction
     * sweeps it. Cancelling an already-fired or already-cancelled
     * event is a no-op and returns false, even if the slot has since
     * been reused (the generation differs).
     */
    bool cancel(EventId id);

    /** True if no live events remain. */
    bool empty() const { return liveCount_ == 0; }

    /** Number of live (non-cancelled, unfired) events. */
    std::size_t size() const { return liveCount_; }

    /** Time of the earliest live event; kTickInf when empty. */
    Tick nextTime() const;

    /**
     * Like nextTime() but compacts cancelled heap records first and
     * caches the front for the runOne()/runOneBefore() that follows,
     * so a peek-then-dispatch loop finds each event once. Preferred in
     * run loops.
     */
    Tick
    peekTime()
    {
        refreshFront();
        return front_.when;
    }

    /**
     * Full sort key of the earliest live event (same contract as
     * peekTime()). Returns false when empty. The kernel's serial merge
     * loop orders region fronts by (when, region, seq), so it needs
     * the seq component too.
     */
    bool
    peekKey(Tick &when, std::uint64_t &seq)
    {
        refreshFront();
        if (front_.slot == kNilSlot)
            return false;
        when = front_.when;
        seq = front_.seq;
        return true;
    }

    /** Id of the event a subsequent runOne() will dispatch; kNoEvent
     *  when empty. */
    EventId
    peekId()
    {
        refreshFront();
        return front_.slot == kNilSlot
                   ? kNoEvent
                   : makeId(front_.slot, slots_[front_.slot].gen);
    }

    /**
     * Pop and run the earliest event. Returns its time. Must not be
     * called on an empty queue.
     */
    Tick runOne();

    /**
     * Fused peek + pop for the run loop: if the earliest live event
     * fires at or before @p until, dispatch it and return its time;
     * otherwise dispatch nothing and return kTickInf. @p now_out is
     * set to the event time *before* the callback runs, so a
     * simulator can expose the correct now() to the callback without
     * a separate peekTime() pass per event.
     */
    Tick runOneBefore(Tick until, Tick &now_out);

    /** Total events executed so far (for perf accounting). */
    std::uint64_t executed() const { return executed_; }

    /** Sort key of the last dispatched event -- the running one,
     *  inside a callback -- or (0, 0) before the first dispatch. */
    Tick lastWhen() const { return lastWhen_; }
    std::uint64_t lastSeq() const { return lastSeq_; }

    /** Overflow-heap keys currently held, live + not-yet-swept dead
     *  (test and bench introspection; bounded at < 2x size() + 1). */
    std::size_t heapEntries() const { return heap_.size(); }

    /** High-water slot-pool size (test and bench introspection). */
    std::size_t slotCapacity() const { return slots_.size(); }

  private:
    static constexpr std::uint32_t kNilSlot = ~std::uint32_t{0};
    static constexpr Tick kWheelMask = kWheelSpan - 1;
    static constexpr unsigned kWheelWords = kWheelSpan / 64;
    static_assert((kWheelSpan & kWheelMask) == 0 && kWheelWords >= 1 &&
                      kWheelWords <= 32,
                  "the wheel is a power of two of 64-bit bitmap words, "
                  "summarized in one 32-bit word");

    /** Heap element: a POD sort key pointing into the slot pool. */
    struct Key
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t gen;
    };

    /** Pool entry owning the callback of one scheduled event. */
    struct Slot
    {
        Callback cb;
        /** Sort key; kept here only while the event is in the wheel
         *  (a heap event's key lives in its heap entry). */
        Tick when = 0;
        std::uint64_t seq = 0;
        std::uint32_t gen = 0;
        /** Free-list link while the slot is free; the next event in
         *  its bucket while it is in the wheel. */
        std::uint32_t next = kNilSlot;
        /** The previous event in its bucket while in the wheel. */
        std::uint32_t prev = kNilSlot;
        bool live = false;
        bool inWheel = false;
    };

    /** One wheel tick's FIFO; head is kNilSlot while it is empty. */
    struct Bucket
    {
        std::uint32_t head = kNilSlot;
        std::uint32_t tail = kNilSlot;
    };

    /** The earliest live event, cached between a peek and the
     *  dispatch that follows. slot == kNilSlot means empty. */
    struct Front
    {
        Tick when = kTickInf;
        std::uint64_t seq = ~std::uint64_t{0};
        std::uint32_t slot = kNilSlot;
        bool inWheel = false;
    };

    /** (when, seq) lexicographic order; seq is unique, so this is a
     *  total order and the dispatch sequence is bit-reproducible. */
    static bool
    keyLess(Tick aw, std::uint64_t as, Tick bw, std::uint64_t bs)
    {
        return aw != bw ? aw < bw : as < bs;
    }

    /** The same order over heap keys. Spelled out on the members, not
     *  forwarded to the scalar form: GCC then compiles the heap walks'
     *  child selection to conditional moves, not to branches that
     *  mispredict on every other level (measured 2x on a deep heap). */
    static bool
    keyLess(const Key &a, const Key &b)
    {
        return a.when != b.when ? a.when < b.when : a.seq < b.seq;
    }

    /** Slot indices are offset by one so kNoEvent (0) is never a
     *  valid id even for slot 0, generation 0. */
    static EventId
    makeId(std::uint32_t slot, std::uint32_t gen)
    {
        return (static_cast<EventId>(gen) << 32) |
               static_cast<EventId>(slot + 1);
    }

    bool
    keyAlive(const Key &k) const
    {
        const Slot &s = slots_[k.slot];
        return s.live && s.gen == k.gen;
    }

    /** Grab a slot and construct @p cb in it. */
    template <typename F>
    std::uint32_t
    parkCallback(F &&cb)
    {
        const std::uint32_t slot = allocSlot();
        Slot &s = slots_[slot];
        if constexpr (std::is_same_v<std::decay_t<F>, Callback>)
            s.cb = std::forward<F>(cb);
        else
            s.cb.emplace(std::forward<F>(cb));
        s.live = true;
        return slot;
    }

    // Only the slot-grab fast path inlines into schedule() callers
    // (two loads and a store); the insertion stays one out-of-line
    // call so call sites stay small -- inlining siftUp everywhere was
    // measured to bloat the macro hot loop's icache footprint for no
    // end-to-end gain.

    std::uint32_t
    allocSlot()
    {
        if (freeHead_ != kNilSlot) {
            const std::uint32_t slot = freeHead_;
            freeHead_ = slots_[slot].next;
            return slot;
        }
        return allocSlotSlow();
    }

    std::uint32_t allocSlotSlow();
    void freeSlot(std::uint32_t slot);

    /** Insertion half of schedule(): draws the next local seq, files
     *  the event in the wheel or the heap, updates the front cache. */
    void pushKey(Tick when, std::uint32_t slot);

    /** Heap insertion under a given seq (scheduleAtSeq, and local
     *  events outside the wheel's window). */
    void pushHeap(Tick when, std::uint64_t seq, std::uint32_t slot);

    /** A new event at (when, seq) replaces a valid cached front it
     *  precedes; an invalid cache stays invalid. */
    void
    offerFront(Tick when, std::uint64_t seq, std::uint32_t slot,
               bool inWheel)
    {
        if (frontValid_ && keyLess(when, seq, front_.when, front_.seq))
            front_ = Front{when, seq, slot, inWheel};
    }

    void
    refreshFront()
    {
        if (!frontValid_)
            findFront();
    }

    void findFront();
    Tick dispatchFront(Tick &now_out);

    void wheelPush(Tick when, std::uint64_t seq, std::uint32_t slot);
    void wheelUnlink(std::uint32_t slot);
    void markBucket(std::uint32_t b);
    void clearBucket(std::uint32_t b);
    std::uint32_t firstBucket() const;

    void siftUp(std::size_t i);
    void siftDown(std::size_t i);
    void popTop();
    void skipDead();
    void compact();

    std::vector<Key> heap_;
    std::vector<Slot> slots_;
    /** kWheelSpan buckets, allocated once by the constructor. */
    std::unique_ptr<Bucket[]> buckets_;
    /** Bit b set iff bucket b is non-empty; summary_ bit w set iff
     *  occupied_[w] is non-zero. */
    std::uint64_t occupied_[kWheelWords] = {};
    std::uint32_t summary_ = 0;
    /** Last dispatched tick: the wheel window's lower edge. */
    Tick cursor_ = 0;
    Front front_;
    /** The empty queue's front is the default Front. */
    bool frontValid_ = true;
    std::uint32_t freeHead_ = kNilSlot;
    std::size_t liveCount_ = 0;
    std::size_t deadInHeap_ = 0;
    std::uint64_t nextSeq_ = 1;
    std::uint64_t executed_ = 0;
    Tick lastWhen_ = 0;
    std::uint64_t lastSeq_ = 0;
};

} // namespace altoc::sim

#endif // ALTOC_SIM_EVENT_QUEUE_HH
