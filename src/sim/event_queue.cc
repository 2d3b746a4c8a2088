/**
 * @file
 * EventQueue implementation: a timing wheel of per-tick, seq-sorted
 * buckets threaded through a generation-counted slot pool, in front of
 * an indexed 4-ary min-heap over POD keys for everything the wheel
 * does not hold.
 *
 * The wheel. A bucket is a doubly linked list of slots in seq order
 * (head and tail in the bucket, next/prev in the slots). Insertion
 * walks back from the tail past higher seqs, so it is O(1) for an
 * event with the highest seq at its tick -- every locally scheduled
 * event of a single-region run -- and otherwise O(events of lower
 * regions at that tick); unlinking a cancelled event and popping the
 * head are O(1). Two bitmap levels find the first non-empty bucket at
 * or after the cursor's: a bit per bucket, and a summary bit per
 * 64-bucket word. The first search after each dispatch is cached in
 * front_, so the run loop, which peeks before it dispatches, searches
 * once per event.
 *
 * The heap. 4-ary: sift paths are half as deep as a binary heap's and
 * the four child keys share two cache lines, which wins on the
 * pop-dominated access pattern of a drain loop. Sifts move a single
 * 24-byte key into a "hole" instead of swapping records, and the
 * closures themselves never move during sifts at all.
 *
 * Dead-entry policy (heap only): cancel() reclaims the slot
 * immediately but leaves the heap key in place (removing an arbitrary
 * key would be O(n) or need per-slot heap-index bookkeeping on every
 * sift). Keys whose slot generation no longer matches are skipped
 * when they surface -- a check skipDead() makes only while it counts
 * dead keys, so a run that cancels nothing in the heap never loads a
 * slot for it; compact() sweeps them wholesale as soon as they exceed
 * half the heap, so the heap never holds more than 2x size() + 1
 * entries no matter how adversarial the cancellation pattern.
 *
 * Dispatch. dispatchFront() pops the front from its residency,
 * retires its slot (free, new generation) and then consumes the
 * closure: InlineFunction::consume() moves it to the stack, empties
 * the slot and runs it, one indirect call per event.
 */

#include "sim/event_queue.hh"

#include <bit>
#include <utility>

#include "common/annotations.hh"
#include "common/logging.hh"

namespace altoc::sim {

EventQueue::EventQueue()
    : buckets_(std::make_unique<Bucket[]>(kWheelSpan))
{
}

std::uint32_t
EventQueue::allocSlotSlow()
{
    altoc_assert(slots_.size() < kNilSlot, "event slot pool exhausted");
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
}

void
EventQueue::retireSlot(std::uint32_t slot)
{
    Slot &s = slots_[slot];
    s.live = false;
    ++s.gen; // stale handles to this slot die here
    s.next = freeHead_;
    freeHead_ = slot;
}

void
EventQueue::push(Tick when, std::uint64_t seq, std::uint32_t slot)
{
    ++liveCount_;
    // One unsigned comparison: a tick before the cursor wraps to a
    // huge distance and goes to the heap with the far-future ones.
    if (when - cursor_ >= kWheelSpan) {
        pushHeap(when, seq, slot);
        return;
    }
    wheelPush(when, seq, slot);
    offerFront(when, seq, slot, true);
}

void
EventQueue::pushHeap(Tick when, std::uint64_t seq, std::uint32_t slot)
{
    Slot &s = slots_[slot];
    s.seq = seq;
    s.inWheel = false;
    heap_.push_back(Key{when, seq, slot, s.gen});
    siftUp(heap_.size() - 1);
    // A key that precedes the front precedes every heap key, dead ones
    // included (the front is never behind the heap top, and the top
    // was live when the front was found), so siftUp took it to the
    // top, where dispatchFront() pops it.
    offerFront(when, seq, slot, false);
}

void
EventQueue::wheelPush(Tick when, std::uint64_t seq, std::uint32_t slot)
{
    Slot &s = slots_[slot];
    s.when = when;
    s.seq = seq;
    s.inWheel = true;
    const auto b = static_cast<std::uint32_t>(when & kWheelMask);
    Bucket &bk = buckets_[b];
    if (bk.head == kNilSlot) {
        s.prev = kNilSlot;
        s.next = kNilSlot;
        bk.head = slot;
        bk.tail = slot;
        markBucket(b);
        return;
    }
    // Link after the last entry with a lower seq (kNilSlot: at the
    // head); seqs are unique. An event with the highest seq at its
    // tick, the usual case, appends without a step back.
    std::uint32_t prev = bk.tail;
    while (prev != kNilSlot && slots_[prev].seq > seq)
        prev = slots_[prev].prev;
    const std::uint32_t next = prev == kNilSlot ? bk.head : slots_[prev].next;
    s.prev = prev;
    s.next = next;
    if (prev == kNilSlot)
        bk.head = slot;
    else
        slots_[prev].next = slot;
    if (next == kNilSlot)
        bk.tail = slot;
    else
        slots_[next].prev = slot;
}

void
EventQueue::wheelUnlink(std::uint32_t slot)
{
    const Slot &s = slots_[slot];
    const auto b = static_cast<std::uint32_t>(s.when & kWheelMask);
    Bucket &bk = buckets_[b];
    if (s.prev == kNilSlot)
        bk.head = s.next;
    else
        slots_[s.prev].next = s.next;
    if (s.next == kNilSlot)
        bk.tail = s.prev;
    else
        slots_[s.next].prev = s.prev;
    if (bk.head == kNilSlot)
        clearBucket(b);
}

void
EventQueue::markBucket(std::uint32_t b)
{
    occupied_[b / 64] |= std::uint64_t{1} << (b % 64);
    summary_ |= std::uint32_t{1} << (b / 64);
}

void
EventQueue::clearBucket(std::uint32_t b)
{
    std::uint64_t &word = occupied_[b / 64];
    word &= ~(std::uint64_t{1} << (b % 64));
    if (word == 0)
        summary_ &= ~(std::uint32_t{1} << (b / 64));
}

std::uint32_t
EventQueue::firstBucket() const
{
    // The window [cursor_, cursor_ + kWheelSpan) starts at the
    // cursor's bucket and wraps, so tick order is bucket order from
    // there. Precondition: summary_ != 0.
    const auto start = static_cast<std::uint32_t>(cursor_ & kWheelMask);
    const std::uint32_t w = start / 64;
    const std::uint64_t here =
        occupied_[w] & (~std::uint64_t{0} << (start % 64));
    if (here != 0)
        return w * 64 + static_cast<std::uint32_t>(std::countr_zero(here));
    // Later words first; failing those, wrap to the lowest non-empty
    // word, which may be w's part below the cursor.
    const std::uint32_t later = summary_ & (~std::uint32_t{1} << w);
    const auto ww = static_cast<std::uint32_t>(
        std::countr_zero(later != 0 ? later : summary_));
    return ww * 64 +
           static_cast<std::uint32_t>(std::countr_zero(occupied_[ww]));
}

bool
EventQueue::cancel(EventId id)
{
    const std::uint32_t raw = static_cast<std::uint32_t>(id);
    if (raw == 0)
        return false;
    const std::uint32_t slot = raw - 1;
    const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
    if (slot >= slots_.size())
        return false;
    Slot &s = slots_[slot];
    if (!s.live || s.gen != gen)
        return false;
    frontValid_ = false;
    --liveCount_;
    s.cb.reset();
    if (s.inWheel) {
        wheelUnlink(slot);
        retireSlot(slot);
        return true;
    }
    retireSlot(slot);
    ++deadInHeap_;
    if (deadInHeap_ * 2 > heap_.size())
        compact();
    return true;
}

void
EventQueue::compact()
{
    std::size_t out = 0;
    for (const Key &k : heap_) {
        if (keyAlive(k))
            heap_[out++] = k;
    }
    heap_.resize(out);
    deadInHeap_ = 0;
    if (out < 2)
        return;
    for (std::size_t i = (out - 2) / 4 + 1; i-- > 0;)
        siftDown(i);
}

void
EventQueue::popTop()
{
    // Bottom-up hole pop (Wegener's heapsort trick): walk the hole
    // from the root to a leaf along minimum children, then drop the
    // displaced last key into the hole and sift it up. A classic
    // sift-down additionally compares the moved key at every level,
    // but that key came from the bottom of the heap, so it nearly
    // always sinks the whole way -- the upward pass here terminates
    // after one comparison instead.
    const std::size_t n = heap_.size() - 1;
    if (n == 0) {
        heap_.pop_back();
        return;
    }
    std::size_t hole = 0;
    for (;;) {
        const std::size_t first = 4 * hole + 1;
        if (first >= n)
            break;
        std::size_t best = first;
        const std::size_t last = first + 4 < n ? first + 4 : n;
        for (std::size_t c = first + 1; c < last; ++c) {
            if (keyLess(heap_[c], heap_[best]))
                best = c;
        }
        heap_[hole] = heap_[best];
        hole = best;
    }
    heap_[hole] = heap_[n];
    heap_.pop_back();
    siftUp(hole);
}

void
EventQueue::skipDead()
{
    // Only a cancel leaves a dead key, and compact() sweeps them all:
    // with none counted, a pristine run's heap top costs no slot load.
    if (deadInHeap_ == 0)
        return;
    while (!heap_.empty() && !keyAlive(heap_.front())) {
        popTop();
        --deadInHeap_;
    }
}

void
EventQueue::findFront()
{
    skipDead();
    Front f;
    if (!heap_.empty()) {
        const Key &k = heap_.front();
        f = Front{k.when, k.seq, k.slot, false};
    }
    if (summary_ != 0) {
        const std::uint32_t slot = buckets_[firstBucket()].head;
        const Slot &s = slots_[slot];
        if (keyLess(s.when, s.seq, f.when, f.seq))
            f = Front{s.when, s.seq, slot, true};
    }
    front_ = f;
    frontValid_ = true;
}

std::size_t
EventQueue::sizeIn(unsigned r) const
{
    std::size_t n = 0;
    for (const Slot &s : slots_)
        n += s.live && (s.seq >> kRegionShift) == r;
    return n;
}

std::uint64_t
EventQueue::executed() const
{
    std::uint64_t n = 0;
    for (const std::uint64_t e : executed_)
        n += e;
    return n;
}

/** Pop the cached front from its residency, then run it. */
ALTOC_HOT Tick
EventQueue::dispatchFront(Tick &now_out)
{
    const Front f = front_;
    frontValid_ = false;
    if (f.inWheel)
        wheelUnlink(f.slot); // the head of its bucket
    else
        popTop();
    // Only an event scheduled before the cursor (raw queue API) can
    // fire behind it; the window must not slide back for it.
    if (f.when > cursor_)
        cursor_ = f.when;
    lastWhen_ = f.when;
    lastSeq_ = f.seq;
    // Retire the slot first, so cancel(own id) inside the callback
    // reports "already fired"; then consume() moves the closure to the
    // stack, empties the slot and runs it in one indirect call. The
    // closure is off the slot before it runs, so the callback may
    // schedule into this very slot or grow slots_. (In-place dispatch
    // from a chunked stable pool was tried and measured slower: the
    // chunk indirection on every slot touch costs more than the one
    // move of a warm <=48-byte closure saves.)
    retireSlot(f.slot);
    --liveCount_;
    ++executed_[f.seq >> kRegionShift];
    now_out = f.when;
    slots_[f.slot].cb.consume();
    return f.when;
}

ALTOC_HOT Tick
EventQueue::runOne()
{
    refreshFront();
    altoc_assert(front_.slot != kNilSlot, "runOne() on an empty event queue");
    Tick now = 0;
    return dispatchFront(now);
}

ALTOC_HOT Tick
EventQueue::runOneBefore(Tick until, Tick &now_out)
{
    refreshFront();
    if (front_.slot == kNilSlot || front_.when > until)
        return kTickInf;
    return dispatchFront(now_out);
}

void
EventQueue::siftUp(std::size_t i)
{
    const Key k = heap_[i];
    while (i > 0) {
        const std::size_t parent = (i - 1) / 4;
        if (!keyLess(k, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = k;
}

void
EventQueue::siftDown(std::size_t i)
{
    const std::size_t n = heap_.size();
    const Key k = heap_[i];
    for (;;) {
        const std::size_t first = 4 * i + 1;
        if (first >= n)
            break;
        std::size_t best = first;
        const std::size_t last = first + 4 < n ? first + 4 : n;
        for (std::size_t c = first + 1; c < last; ++c) {
            if (keyLess(heap_[c], heap_[best]))
                best = c;
        }
        if (!keyLess(heap_[best], k))
            break;
        heap_[i] = heap_[best];
        i = best;
    }
    heap_[i] = k;
}

} // namespace altoc::sim
