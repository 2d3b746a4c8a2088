/**
 * @file
 * Deterministic discrete-event queue: the simulator's hot-path kernel.
 *
 * Events are ordered by (tick, sequence); the sequence counter breaks
 * ties in insertion order so simulations replay identically across
 * runs. A seq's top byte names the kernel region that owns the event
 * (sim/kernel.hh), so one queue holds every region of a simulation in
 * the canonical (tick, region, seq) order. Internals are built for
 * zero steady-state allocation:
 *
 *  - callbacks are fixed-capacity InlineFn objects (no std::function,
 *    no heap for captures) parked out-of-line in a slot pool, and a
 *    dispatch runs one in a single indirect call
 *    (InlineFunction::consume), off its slot;
 *  - liveness is a generation-counted slot pool: EventId packs
 *    (generation, slot), and alloc/cancel are O(1) pointer bumps on a
 *    free list -- no hashing, no unordered_set;
 *  - near-future events -- almost all of them at nanosecond-scale
 *    scheduling, plus the rack link's 1 us deliveries and the 2 us
 *    ACK deadlines -- sit in a timing wheel: one seq-sorted bucket
 *    per tick over the kWheelSpan (2,048) ticks from the last
 *    dispatched one, threaded through the slot pool and found by an
 *    occupancy bitmap, so they schedule, cancel and dispatch in O(1);
 *  - events due kWheelSpan or more ticks ahead (or before the last
 *    dispatched tick) go to an overflow 4-ary min-heap over (when,
 *    seq, slot, gen) keys. Its cancellation is lazy (the key stays
 *    until it surfaces, and a heap with no dead key counted skips the
 *    liveness check), but it compacts eagerly once dead keys exceed
 *    half the heap, so mass-cancellation workloads (timeout-heavy
 *    fault runs) cannot bloat it.
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
 * Bit position of a seq's region byte. Region r of a kernel owns the
 * seqs in [r << kRegionShift, (r + 1) << kRegionShift), so ordering
 * by (tick, seq) is ordering by (tick, region, seq), and a standalone
 * queue -- region 0 -- draws exactly the seqs it would without
 * regions. A kernel holds at most 256 regions.
 */
constexpr unsigned kRegionShift = 56;

/** The region byte of region @p r, ready to OR into a seq. */
constexpr std::uint64_t
regionTag(unsigned r)
{
    return static_cast<std::uint64_t>(r) << kRegionShift;
}

/**
 * Cross-region bit, just below the region byte. Locally scheduled
 * events draw the bits below it from one rising counter starting at
 * 1, which could only reach it after 2^55 schedules; an event
 * injected from another kernel region (Kernel::crossSchedule)
 * carries an explicit seq with this bit set, composed from (sender
 * region, sender counter) under the receiving region's byte. At equal
 * tick, every cross-region event of a region therefore sorts after
 * every event scheduled locally in it, whenever either was scheduled,
 * and cross-region events from one sender keep the order it sent
 * them in. Every federated run's results depend on that order (the
 * rack_ac_p2c golden pins it).
 */
constexpr std::uint64_t kCrossSeqBase = std::uint64_t{1} << 55;

/**
 * Timing wheel in front of a 4-ary overflow heap, with stable
 * tie-breaking, O(1) slot-pool-based cancellation and bounded
 * dead-entry slack.
 *
 * Ordering. The wheel covers the window [cursor, cursor + kWheelSpan),
 * where the cursor is the last dispatched tick, so bucket `when mod
 * kWheelSpan` holds events of exactly one tick. Each bucket is kept
 * sorted by seq: an insertion starts at its tail and walks back only
 * past entries with a higher seq, which a locally scheduled event of
 * the highest region at its tick never meets. So the first bucket at
 * or after the cursor's holds the wheel's (when, seq) minimum at its
 * head, whichever seq an event was filed under -- a counter-drawn
 * one, a reserved one (reserveSeq) or a cross-region one. Only
 * events due a window or more ahead and events due before the cursor
 * go to the heap. Dispatch compares the wheel front with the heap
 * top by (when, seq), which is the only place the two residencies
 * meet, so the dispatch sequence is the one a single heap would
 * produce. The cursor only moves forward, to the tick just
 * dispatched, and that tick is the earliest pending one, so every
 * wheel event stays inside the window as it slides.
 */
class EventQueue
{
  public:
    using Callback = InlineFn;

    /** Width of the timing wheel in ticks (2 us of simulated time).
     *  The paper's 3 ns hops, 200 ns runtime periods and sub-us
     *  service put almost every event less than 1 us ahead of the one
     *  that schedules it; 2 us also holds the default rack link's
     *  deliveries (1 us of latency plus 24 ns to serialize 300 B at
     *  100 Gb/s: 1,024 ticks) and the hardened protocol's 2 us ACK
     *  deadlines (ackTimeout), so only long services, probation
     *  timers and fault windows reach the heap. A power of two: 32
     *  bitmap words, all that the 32-bit summary word covers. */
    static constexpr Tick kWheelSpan = 2048;

    EventQueue();

    /**
     * Schedule @p cb at absolute time @p when, in the region whose
     * byte is @p tag (regionTag; 0 for a standalone queue). Returns a
     * handle.
     *
     * Accepts any callable the Callback type can hold and constructs
     * it directly in its slot (one placement-new, no relocate hops);
     * a ready-made Callback moves in instead.
     */
    template <typename F>
    ALTOC_HOT EventId
    schedule(Tick when, F &&cb, std::uint64_t tag = 0)
    {
        const std::uint32_t slot = parkCallback(std::forward<F>(cb));
        const EventId id = makeId(slot, slots_[slot].gen);
        push(when, tag | nextSeq_++, slot);
        return id;
    }

    /**
     * Draw the next local sequence number of region @p tag without
     * scheduling anything. The caller owns the sort position (when,
     * seq) that schedule() would have given an event here, and may
     * file an event under it later with scheduleAtSeq() -- or never,
     * when it only needs to know whether that position has been
     * passed (lastWhen/lastSeq).
     */
    std::uint64_t reserveSeq(std::uint64_t tag = 0) { return tag | nextSeq_++; }

    /**
     * Schedule @p cb at @p when under an explicit sort sequence
     * instead of the insertion counter. @p seq is either
     *  - a cross-region seq (kCrossSeqBase set): the kernel's
     *    delivery path uses these to place an event by its sender's
     *    stream (Kernel::crossSchedule); or
     *  - a local seq taken earlier by reserveSeq() (below the
     *    counter), filed once, before its tick is reached.
     * The event goes to the wheel or the heap like any other.
     */
    template <typename F>
    EventId
    scheduleAtSeq(Tick when, std::uint64_t seq, F &&cb)
    {
        const std::uint64_t local = seq & (kCrossSeqBase - 1);
        altoc_assert((seq & kCrossSeqBase) != 0 ||
                         (local != 0 && local < nextSeq_),
                     "explicit seq neither cross-region nor reserved");
        const std::uint32_t slot = parkCallback(std::forward<F>(cb));
        const EventId id = makeId(slot, slots_[slot].gen);
        push(when, seq, slot);
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

    /** Live events of region @p r (those whose seq carries its byte);
     *  a scan of the slot pool, for end-of-run checks and gauges. */
    std::size_t sizeIn(unsigned r) const;

    /**
     * Time of the earliest live event; kTickInf when empty. Compacts
     * cancelled heap records first and caches the front for the
     * runOne()/runOneBefore() that follows, so a peek-then-dispatch
     * loop finds each event once.
     */
    Tick
    peekTime()
    {
        refreshFront();
        return front_.when;
    }

    /**
     * Full sort key of the earliest live event (same contract as
     * peekTime()). Returns false when empty. An audit build's run
     * loop reads the owning region from the seq's top byte.
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
    std::uint64_t executed() const;

    /** Events of region @p r executed so far. */
    std::uint64_t executedIn(unsigned r) const { return executed_[r]; }

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
        /** Sort key. A heap event's `when` lives only in its heap
         *  entry; `seq` is kept for both (sizeIn() reads its region
         *  byte). */
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

    /** One wheel tick's events in seq order; head is kNilSlot while
     *  it is empty. */
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
    /** Put @p slot on the free list under a new generation. Its
     *  closure is the caller's to destroy (cancel) or run (dispatch). */
    void retireSlot(std::uint32_t slot);

    /** Insertion half of schedule() and scheduleAtSeq(): files the
     *  event in the wheel or the heap, updates the front cache. */
    void push(Tick when, std::uint64_t seq, std::uint32_t slot);

    /** Heap insertion of a counted event (outside the wheel's
     *  window). */
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
    Tick lastWhen_ = 0;
    std::uint64_t lastSeq_ = 0;
    /** Executed events per region byte. */
    std::uint64_t executed_[std::size_t{1} << (64 - kRegionShift)] = {};
};

} // namespace altoc::sim

#endif // ALTOC_SIM_EVENT_QUEUE_HH
