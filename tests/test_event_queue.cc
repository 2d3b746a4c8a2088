/**
 * @file
 * Event-kernel tests for the slotted queue: generation-counted handle
 * reuse, mass-cancellation compaction, schedule/cancel interleaving
 * against a reference model over both residencies (timing wheel and
 * overflow heap), cross-region seqs, late-filed reserved seqs and
 * region-tagged seqs, tie-break stability, one-call dispatch (a
 * callback cancelling itself, reusing its slot and growing the pool;
 * each closure destroyed once), the 2 us window's edge, the
 * inline-callback capture-size compile check, the zero-allocation
 * guarantee on the steady-state hot path, and a whole-pipeline bound
 * on allocations and bytes per completed request across a warm
 * runExperiment slice, for one server and for a load-reading rack.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/inline_fn.hh"
#include "sim/event_queue.hh"
#include "system/experiment.hh"
#include "workload/distributions.hh"

using namespace altoc;
using namespace altoc::sim;

// ---------------------------------------------------------------------
// Global allocation counter: every operator new in this binary bumps
// g_allocs and adds its size to g_bytes, so a test can assert a region
// of the kernel hot path performs zero heap allocations and bound what
// a longer run holds.
// ---------------------------------------------------------------------

namespace {
std::atomic<std::size_t> g_allocs{0};
std::atomic<std::size_t> g_bytes{0};
} // namespace

void *
operator new(std::size_t n)
{
    ++g_allocs;
    g_bytes += n;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

// noinline: inlined, a replacement delete shows GCC 12 a std::free of
// a pointer that came from operator new, which -Wmismatched-new-delete
// flags at every delete site.
[[gnu::noinline]] void operator delete(void *p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void *p) noexcept { std::free(p); }
[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

// ---------------------------------------------------------------------
// Generation-counted handles
// ---------------------------------------------------------------------

TEST(EventSlots, StaleHandleAfterFireIsRejected)
{
    EventQueue q;
    const EventId a = q.schedule(10, [] {});
    q.runOne();
    // The slot is free; a new event reuses it with a new generation.
    const EventId b = q.schedule(20, [] {});
    EXPECT_NE(a, b);
    EXPECT_FALSE(q.cancel(a)) << "stale handle cancelled a reused slot";
    EXPECT_EQ(q.size(), 1u);
    EXPECT_TRUE(q.cancel(b));
    EXPECT_TRUE(q.empty());
}

TEST(EventSlots, StaleHandleAfterCancelIsRejected)
{
    EventQueue q;
    const EventId a = q.schedule(10, [] {});
    EXPECT_TRUE(q.cancel(a));
    const EventId b = q.schedule(10, [] {});
    EXPECT_FALSE(q.cancel(a));
    EXPECT_TRUE(q.cancel(b));
    EXPECT_FALSE(q.cancel(b));
}

TEST(EventSlots, HandlesNeverEqualNoEvent)
{
    EventQueue q;
    for (int i = 0; i < 100; ++i) {
        const EventId id = q.schedule(static_cast<Tick>(i + 1), [] {});
        EXPECT_NE(id, kNoEvent);
    }
    EXPECT_FALSE(q.cancel(kNoEvent));
}

TEST(EventSlots, SlotsAreReusedNotLeaked)
{
    EventQueue q;
    Tick t = 1;
    for (int round = 0; round < 1000; ++round) {
        q.schedule(t++, [] {});
        q.runOne();
    }
    // One live event at a time: the pool must stay O(1), not O(rounds).
    EXPECT_LE(q.slotCapacity(), 4u);
}

// ---------------------------------------------------------------------
// Mass cancellation / eager compaction
// ---------------------------------------------------------------------

TEST(EventCompaction, MassCancelBoundsHeapSlack)
{
    EventQueue q;
    std::vector<EventId> ids;
    const unsigned kTotal = 4096;
    for (unsigned i = 0; i < kTotal; ++i)
        ids.push_back(q.schedule(1 + i, [] {}));
    // Cancel all but every 64th event -- the timeout-heavy fault-run
    // pattern that used to leave the heap full of corpses.
    unsigned live = 0;
    for (unsigned i = 0; i < kTotal; ++i) {
        if (i % 64 == 0) {
            ++live;
            continue;
        }
        EXPECT_TRUE(q.cancel(ids[i]));
    }
    EXPECT_EQ(q.size(), live);
    // Eager compaction keeps dead keys at no more than half the heap.
    EXPECT_LE(q.heapEntries(), 2 * q.size() + 1)
        << "cancelled records bloated the heap";
    // The survivors still fire, in order.
    Tick last = 0;
    while (!q.empty()) {
        const Tick when = q.runOne();
        EXPECT_GT(when, last);
        last = when;
    }
    EXPECT_EQ(q.executed(), live);
}

TEST(EventCompaction, CancelEverythingEmptiesHeap)
{
    EventQueue q;
    std::vector<EventId> ids;
    for (unsigned i = 0; i < 512; ++i)
        ids.push_back(q.schedule(1 + i, [] {}));
    for (const EventId id : ids)
        EXPECT_TRUE(q.cancel(id));
    EXPECT_TRUE(q.empty());
    EXPECT_LE(q.heapEntries(), 1u);
    EXPECT_EQ(q.nextTime(), kTickInf);
    EXPECT_EQ(q.peekTime(), kTickInf);
}

// ---------------------------------------------------------------------
// Interleaving stress against a reference model
// ---------------------------------------------------------------------

namespace {

/** Which delays the reference-model stress draws. */
enum class DelayMix
{
    /** Up to 50 ticks ahead: the wheel alone. */
    Near,
    /** 0, W - 1, W, W + 1, several windows ahead and ticks of other
     *  pending events (W = the wheel span), plus idle jumps: the queue
     *  drains and the next event lies more than a window away. Both
     *  residencies, and local events of both at one tick. */
    StraddleWindow,
    /** StraddleWindow plus unique scheduleAtSeq events (seq >=
     *  kCrossSeqBase) at ticks that local events also use. */
    StraddleWithCrossSeq,
    /** StraddleWithCrossSeq plus local seqs taken by reserveSeq() and
     *  filed later with scheduleAtSeq(), before their position is
     *  passed -- or never, once it is -- at ticks that local and
     *  cross-region events also use. */
    StraddleWithReservedSeq,
    /** StraddleWithReservedSeq with every local and reserved seq
     *  under a random region's byte (drawn from the one counter) and
     *  cross-region seqs under random destination bytes, as a
     *  kernel's regions file them into its one queue: events of lower
     *  regions land in buckets behind ones of higher regions. */
    RegionTaggedSeqs,
};

/** Small deterministic generator for the stress test. */
struct Lcg
{
    std::uint64_t state;

    std::uint64_t
    operator()(std::uint64_t mod)
    {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return (state >> 33) % mod;
    }
};

/**
 * Drive an EventQueue with a random schedule/cancel/fire
 * interleaving drawn from @p mix and check it against a reference
 * model: an ordered map keyed by (when, seq), the defined dispatch
 * order. Every fire checks peekTime()/peekKey() and the fired token,
 * every operation checks size(), and cancels check both residencies
 * and stale handles.
 */
void
checkAgainstReferenceModel(DelayMix mix)
{
    using ModelKey = std::pair<Tick, std::uint64_t>;
    constexpr Tick kW = EventQueue::kWheelSpan;
    EventQueue q;
    std::map<ModelKey, int> model;
    struct Pending
    {
        EventId id;
        ModelKey key;
        bool inWheel; // filed within a window of the last fired tick
    };
    std::vector<Pending> live;
    std::vector<EventId> retired;
    std::vector<int> fired;
    std::vector<int> expected;
    std::uint64_t crossCtr[4] = {};
    constexpr unsigned kRegions = 5;
    std::size_t cancelled[2] = {}; // [heap, wheel]
    std::size_t crossScheduled = 0;
    std::size_t sameTickAcrossResidency = 0;
    const bool withCross = mix >= DelayMix::StraddleWithCrossSeq;
    const bool withReserved = mix >= DelayMix::StraddleWithReservedSeq;
    const bool withRegions = mix == DelayMix::RegionTaggedSeqs;
    // Reserved positions not filed yet, with the token an event filed
    // there will carry; and the last dispatched key, which decides
    // whether one may still be filed.
    std::vector<std::pair<ModelKey, int>> reserved;
    ModelKey lastFired{0, 0};
    std::size_t reservedFiled = 0;
    std::size_t reservedPassed = 0;
    std::size_t reservedBehindLater = 0; // filed after a higher seq at its tick
    // Wheel events filed while a higher seq of their tick was in the
    // wheel, so the bucket insert had to walk back past it.
    std::size_t wheelBehindLater = 0;

    Lcg rnd{12345};
    std::uint64_t seq = 1; // the queue's local counter starts at 1
    int token = 0;
    Tick now = 0;

    auto drawWhen = [&]() -> Tick {
        if (mix == DelayMix::Near)
            return now + rnd(50);
        switch (rnd(10)) {
          case 0: return now;
          case 1: return now + kW - 1;
          case 2: return now + kW;
          case 3: return now + kW + 1;
          case 4: {
            const Tick windows = 2 + rnd(6);
            return now + kW * windows + rnd(3) - 1;
          }
          case 5:
          case 6:
            if (!reserved.empty() && rnd(2) == 0)
                return reserved[rnd(reserved.size())].first.first;
            if (!live.empty())
                return live[rnd(live.size())].key.first;
            return now + rnd(kW);
          default: return now + rnd(kW + kW / 2);
        }
    };
    auto fireOne = [&] {
        const auto it = model.begin();
        expected.push_back(it->second);
        const ModelKey key = it->first;
        model.erase(it);
        for (std::size_t i = 0; i < live.size(); ++i) {
            if (live[i].key == key) {
                retired.push_back(live[i].id);
                live[i] = live.back();
                live.pop_back();
                break;
            }
        }
        Tick when = 0;
        std::uint64_t s = 0;
        EXPECT_EQ(q.peekTime(), key.first);
        ASSERT_TRUE(q.peekKey(when, s));
        EXPECT_EQ(std::make_pair(when, s), key);
        now = q.runOne();
        lastFired = key;
        ASSERT_EQ(now, key.first);
        ASSERT_EQ(std::make_pair(q.lastWhen(), q.lastSeq()), key);
        ASSERT_EQ(fired.size(), expected.size());
        ASSERT_EQ(fired.back(), expected.back()) << "dispatch order";
    };
    // Count what filing @p key in the residency @p inWheel meets.
    auto noteFiling = [&](const ModelKey &key, bool inWheel) {
        bool otherResidency = false, behindLater = false;
        for (const Pending &p : live) {
            if (p.key.first != key.first)
                continue;
            otherResidency |= p.inWheel != inWheel;
            behindLater |= inWheel && p.inWheel && p.key.second > key.second;
        }
        sameTickAcrossResidency += otherResidency;
        wheelBehindLater += behindLater;
    };
    auto schedule = [&](Tick when) {
        const int tok = token++;
        auto cb = [tok, &fired] { fired.push_back(tok); };
        const bool inWheel = when - now < kW;
        const bool cross = withCross && rnd(4) == 0;
        const std::uint64_t tag = withRegions ? regionTag(rnd(kRegions)) : 0;
        // Few reservations are open at once, so later schedules often
        // share their ticks (drawWhen) before they are filed.
        if (!cross && withReserved && reserved.size() < 8 && rnd(3) == 0) {
            // Take the position now; the event may be filed later.
            const ModelKey key{when, q.reserveSeq(tag)};
            EXPECT_EQ(key.second, tag | seq++);
            reserved.emplace_back(key, tok);
            return;
        }
        ModelKey key;
        EventId id = kNoEvent;
        if (cross) {
            // The kernel's composition: (sender region, its counter)
            // under the receiving region's byte.
            const std::uint64_t region = rnd(4);
            key = {when, tag | kCrossSeqBase | region << 40 |
                             crossCtr[region]++};
            id = q.scheduleAtSeq(when, key.second, cb);
            ++crossScheduled;
        } else {
            key = {when, tag | seq++};
            id = q.schedule(when, cb, tag);
        }
        noteFiling(key, inWheel);
        model.emplace(key, tok);
        live.push_back(Pending{id, key, inWheel});
    };

    for (int op = 0; op < 20000; ++op) {
        const std::uint64_t kind = rnd(100);
        if (kind < 50 || live.empty()) {
            schedule(drawWhen());
        } else if (kind < 70) {
            // Cancel a random live event; a second cancel is stale.
            const std::size_t pick = rnd(live.size());
            const Pending p = live[pick];
            live[pick] = live.back();
            live.pop_back();
            EXPECT_TRUE(q.cancel(p.id));
            EXPECT_FALSE(q.cancel(p.id));
            ++cancelled[p.inWheel];
            model.erase(p.key);
            EXPECT_EQ(q.nextTime(),
                      model.empty() ? kTickInf : model.begin()->first.first);
        } else if (kind < 99 && (kind < 90 || reserved.empty())) {
            if (!model.empty())
                fireOne();
        } else if (kind < 99) {
            // File a reserved position, or retire it once dispatch has
            // passed it (an event there would already have run).
            const std::size_t pick = rnd(reserved.size());
            const auto [key, tok] = reserved[pick];
            reserved[pick] = reserved.back();
            reserved.pop_back();
            if (key < lastFired) {
                ++reservedPassed;
            } else {
                const EventId id = q.scheduleAtSeq(
                    key.first, key.second,
                    [tok = tok, &fired] { fired.push_back(tok); });
                for (const Pending &p : live) {
                    if (p.key.first == key.first &&
                        p.key.second > key.second) {
                        ++reservedBehindLater;
                        break;
                    }
                }
                const bool inWheel = key.first - now < kW;
                noteFiling(key, inWheel);
                model.emplace(key, tok);
                live.push_back(Pending{id, key, inWheel});
                ++reservedFiled;
            }
        } else if (mix != DelayMix::Near) {
            // Idle jump: drain, then resume more than a window away.
            while (!model.empty())
                fireOne();
            EXPECT_EQ(q.peekTime(), kTickInf);
            const Tick windows = 2 + rnd(4);
            schedule(now + kW * windows + rnd(kW));
        }
        if (!retired.empty()) {
            // Fired handles stay dead however their slots were reused.
            EXPECT_FALSE(q.cancel(retired[rnd(retired.size())]));
        }
        ASSERT_EQ(q.size(), model.size());
        if (rnd(4) == 0) {
            // Peek between operations too, so that later schedules
            // meet a valid cached front.
            EXPECT_EQ(q.peekTime(),
                      model.empty() ? kTickInf : model.begin()->first.first);
        }
    }
    while (!model.empty())
        fireOne();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.peekTime(), kTickInf);
    ASSERT_EQ(fired.size(), expected.size());
    EXPECT_EQ(fired, expected);

    // The mix reached what it was drawn to reach.
    EXPECT_GT(cancelled[1], 0u) << "no wheel-resident cancel";
    if (mix != DelayMix::Near) {
        EXPECT_GT(cancelled[0], 0u) << "no heap-resident cancel";
        EXPECT_GT(sameTickAcrossResidency, 0u)
            << "wheel and heap never held one tick";
    }
    if (withCross) {
        EXPECT_GT(crossScheduled, 0u);
    }
    if (withReserved) {
        EXPECT_GT(reservedFiled, 0u);
        EXPECT_GT(reservedPassed, 0u);
        EXPECT_GT(reservedBehindLater, 0u)
            << "no reserved seq filed behind a later one at its tick";
        EXPECT_GT(wheelBehindLater, 0u)
            << "no bucket insert walked back past a later seq";
    }
}

} // namespace

TEST(EventStress, ScheduleCancelInterleavingMatchesReferenceModel)
{
    checkAgainstReferenceModel(DelayMix::Near);
}

TEST(EventStress, WindowStraddlingDelaysMatchReferenceModel)
{
    checkAgainstReferenceModel(DelayMix::StraddleWindow);
}

TEST(EventStress, CrossSeqEventsAtSharedTicksMatchReferenceModel)
{
    checkAgainstReferenceModel(DelayMix::StraddleWithCrossSeq);
}

TEST(EventStress, ReservedSeqEventsFiledLateMatchReferenceModel)
{
    checkAgainstReferenceModel(DelayMix::StraddleWithReservedSeq);
}

TEST(EventStress, RegionTaggedSeqsMatchReferenceModel)
{
    checkAgainstReferenceModel(DelayMix::RegionTaggedSeqs);
}

// ---------------------------------------------------------------------
// Tie-break stability
// ---------------------------------------------------------------------

TEST(EventOrdering, EqualTicksFireInScheduleOrderAcrossCancels)
{
    EventQueue q;
    std::vector<int> order;
    std::vector<EventId> ids;
    for (int i = 0; i < 64; ++i)
        ids.push_back(q.schedule(7, [i, &order] { order.push_back(i); }));
    // Punch holes: cancel every third event, which exercises the
    // sift paths without disturbing the (when, seq) order.
    for (int i = 0; i < 64; i += 3)
        q.cancel(ids[static_cast<std::size_t>(i)]);
    while (!q.empty())
        q.runOne();
    int prev = -1;
    for (const int i : order) {
        EXPECT_GT(i, prev) << "tie-break order violated";
        EXPECT_NE(i % 3, 0) << "cancelled event fired";
        prev = i;
    }
    EXPECT_EQ(order.size(), 64u - 22u);
}

TEST(EventOrdering, RescheduleInsideCallbackKeepsOrder)
{
    EventQueue q;
    std::vector<Tick> times;
    q.schedule(10, [&q, &times] {
        times.push_back(10);
        // Scheduling from inside a dispatch reuses the just-freed
        // slot while the pool may grow; both paths must be safe.
        q.schedule(15, [&times] { times.push_back(15); });
        q.schedule(12, [&times] { times.push_back(12); });
    });
    q.schedule(11, [&times] { times.push_back(11); });
    while (!q.empty())
        q.runOne();
    EXPECT_EQ(times, (std::vector<Tick>{10, 11, 12, 15}));
}

// ---------------------------------------------------------------------
// One-call dispatch: the closure leaves its slot before it runs
// ---------------------------------------------------------------------

TEST(EventDispatch, CallbackMayCancelItselfReuseItsSlotAndGrowThePool)
{
    EventQueue q;
    std::vector<int> order;
    EventId self = kNoEvent;
    self = q.schedule(10, [&q, &order, &self, tag = 7] {
        order.push_back(0);
        EXPECT_FALSE(q.cancel(self)) << "a running event is already retired";
        // The retired slot heads the free list: the first schedule
        // takes it, under a new generation.
        const EventId again =
            q.schedule(11, [&order] { order.push_back(1); });
        EXPECT_EQ(static_cast<std::uint32_t>(again),
                  static_cast<std::uint32_t>(self));
        EXPECT_NE(again, self);
        // Reallocate the slot pool under the running closure; its
        // captures must still read back (ASan flags a closure run in
        // place from the old storage).
        const std::size_t before = q.slotCapacity();
        for (int i = 0; i < 1000; ++i)
            q.schedule(12 + i, [&order, i] { order.push_back(2 + i); });
        EXPECT_GE(q.slotCapacity(), before + 1000);
        order.push_back(-tag);
    });
    while (!q.empty())
        q.runOne();
    ASSERT_EQ(order.size(), 1003u);
    EXPECT_EQ(order[0], 0);
    EXPECT_EQ(order[1], -7);
    for (int i = 0; i < 1001; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(2 + i)], 1 + i);
    EXPECT_FALSE(q.cancel(self));
}

namespace {

/** A closure that counts its calls and the destructions of whichever
 *  object owns it (a moved-from one owns nothing). */
struct Counted
{
    int *calls;
    int *dtors;

    Counted(int *c, int *d) : calls(c), dtors(d) {}
    Counted(Counted &&o) noexcept : calls(o.calls), dtors(o.dtors)
    {
        o.dtors = nullptr;
    }
    Counted &operator=(Counted &&) = delete;
    ~Counted()
    {
        if (dtors != nullptr)
            ++*dtors;
    }

    void operator()() const { ++*calls; }
};

} // namespace

TEST(EventDispatch, ClosureIsDestroyedExactlyOnce)
{
    // In the wheel (+5) and in the heap (+5,000), dispatched or
    // cancelled, and left pending when the queue dies.
    for (const Tick delay : {Tick{5}, Tick{5000}}) {
        int calls = 0;
        int dtors = 0;
        {
            EventQueue q;
            q.schedule(delay, Counted{&calls, &dtors});
            EXPECT_EQ(dtors, 0) << delay;
            q.runOne();
            EXPECT_EQ(calls, 1) << delay;
            EXPECT_EQ(dtors, 1) << delay;

            const EventId id =
                q.schedule(2 * delay, Counted{&calls, &dtors});
            EXPECT_TRUE(q.cancel(id));
            EXPECT_EQ(calls, 1) << delay;
            EXPECT_EQ(dtors, 2) << delay;

            // Refilling a dispatched or cancelled slot destroys
            // nothing more.
            q.schedule(3 * delay, Counted{&calls, &dtors});
            q.runOne();
            EXPECT_EQ(calls, 2) << delay;
            EXPECT_EQ(dtors, 3) << delay;

            q.schedule(4 * delay, Counted{&calls, &dtors});
        }
        EXPECT_EQ(calls, 2) << delay;
        EXPECT_EQ(dtors, 4) << delay << ": pending closure at teardown";
    }
}

// ---------------------------------------------------------------------
// The 2 us window
// ---------------------------------------------------------------------

TEST(EventWheel, RackLinkAndAckDelaysStayInTheWheel)
{
    ASSERT_EQ(EventQueue::kWheelSpan, Tick{2048});
    EventQueue q;
    q.schedule(100, [] {});
    q.runOne(); // the cursor is at 100
    std::vector<Tick> fired;
    auto at = [&q, &fired](Tick when) {
        return q.schedule(when, [&fired, when] { fired.push_back(when); });
    };
    // A rack link delivery lands 1,024 ticks out, an ACK deadline
    // 2,000: both, and the window's last tick, stay in the wheel.
    at(100 + 1024);
    const EventId cancelMe = at(100 + 2000);
    at(100 + 2047);
    EXPECT_EQ(q.heapEntries(), 0u);
    EXPECT_TRUE(q.cancel(cancelMe));
    EXPECT_EQ(q.heapEntries(), 0u);
    // The window's end is the heap's.
    at(100 + 2048);
    EXPECT_EQ(q.heapEntries(), 1u);
    while (!q.empty())
        q.runOne();
    EXPECT_EQ(fired, (std::vector<Tick>{1124, 2147, 2148}));

    // The same from a later cursor, dispatched through the wheel.
    const Tick now = q.lastWhen();
    at(now + 1024);
    at(now + 2000);
    const EventId last = at(now + 2047);
    EXPECT_EQ(q.heapEntries(), 0u);
    EXPECT_EQ(q.runOne(), now + 1024);
    EXPECT_EQ(q.runOne(), now + 2000);
    EXPECT_TRUE(q.cancel(last));
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.heapEntries(), 0u);
}

TEST(EventCompaction, DeadHeapTopsAreSkippedInOrder)
{
    // Heap events only (5,000 ticks apart, beyond the window of any
    // dispatched one): cancel the top, the one below it or one deep
    // inside, then dispatch, and check against an ordered map. So a
    // dead key surfaces at the top on some dispatches and a clean top
    // meets no dead key on others.
    EventQueue q;
    std::map<Tick, EventId> model;
    std::vector<Tick> fired;
    std::vector<Tick> expected;
    Lcg rnd{99};
    Tick next = 10000;
    auto add = [&] {
        const Tick when = next;
        next += 5000;
        model.emplace(when, q.schedule(when, [&fired, when] {
            fired.push_back(when);
        }));
    };
    for (int i = 0; i < 64; ++i)
        add();
    for (int round = 0; round < 2000; ++round) {
        const std::uint64_t op = rnd(6);
        if (op < 3 && model.size() > 3) {
            auto it = model.begin();
            std::advance(it, op == 2 ? rnd(model.size()) : op);
            EXPECT_TRUE(q.cancel(it->second));
            model.erase(it);
        } else if (op < 5 && !model.empty()) {
            expected.push_back(model.begin()->first);
            model.erase(model.begin());
            EXPECT_EQ(q.runOne(), expected.back());
        } else {
            add();
        }
        ASSERT_EQ(q.size(), model.size());
        ASSERT_EQ(q.peekTime(),
                  model.empty() ? kTickInf : model.begin()->first);
        ASSERT_GE(q.heapEntries(), q.size()) << "an event left the heap";
        ASSERT_LE(q.heapEntries(), 2 * q.size() + 1);
    }
    while (!model.empty()) {
        expected.push_back(model.begin()->first);
        model.erase(model.begin());
        q.runOne();
    }
    EXPECT_EQ(fired, expected);
    EXPECT_EQ(q.heapEntries(), 0u);
}

// ---------------------------------------------------------------------
// Inline-callback capture budget (compile-time check)
// ---------------------------------------------------------------------

namespace {

struct SmallCapture
{
    void *a;
    std::uint64_t b;
    std::uint32_t c;
};

struct BigCapture
{
    char blob[InlineFn::kCapacity + 1];
};

} // namespace

TEST(InlineCallback, CaptureBudgetIsCompileChecked)
{
    const SmallCapture small{nullptr, 1, 2};
    auto fits = [small] { (void)small; };
    static_assert(std::is_constructible_v<InlineFn, decltype(fits)>,
                  "a 20-byte capture must fit the inline budget");
    static_assert(InlineFn::fits<decltype(fits)>);

    const BigCapture big{};
    auto too_big = [big] { (void)big; };
    static_assert(!std::is_constructible_v<InlineFn, decltype(too_big)>,
                  "an over-budget capture must be rejected at compile "
                  "time, not spilled to the heap");
    static_assert(!InlineFn::fits<decltype(too_big)>);

    InlineFn fn(fits);
    EXPECT_TRUE(static_cast<bool>(fn));
    fn();
}

TEST(InlineCallback, MoveTransfersOwnership)
{
    int calls = 0;
    InlineFn a([&calls] { ++calls; });
    InlineFn b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a)); // NOLINT: testing moved-from
    EXPECT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(calls, 1);
    InlineFn c;
    c = std::move(b);
    c();
    EXPECT_EQ(calls, 2);
}

TEST(InlineCallback, MoveOnlyClosuresAreSupported)
{
    // std::function would reject this closure (it requires
    // copy-constructible targets); the kernel must not.
    auto owner = std::make_unique<int>(41);
    int seen = 0;
    InlineFn fn([o = std::move(owner), &seen] { seen = *o + 1; });
    fn();
    EXPECT_EQ(seen, 42);
}

// ---------------------------------------------------------------------
// Zero-allocation steady state
// ---------------------------------------------------------------------

TEST(EventHotPath, SteadyStateScheduleDispatchDoesNotAllocate)
{
    EventQueue q;
    Tick t = 1;
    // Warm-up: size the slot pool and heap storage, then hold the
    // queue at constant depth so vector growth is off the table.
    for (unsigned i = 0; i < 1024; ++i)
        q.schedule(t++, [] {});
    for (unsigned i = 0; i < 2048; ++i) {
        q.schedule(t++, [] {});
        q.runOne();
    }

    const std::size_t before = g_allocs.load();
    for (unsigned i = 0; i < 100000; ++i) {
        q.schedule(t++, [] {});
        q.runOne();
    }
    EXPECT_EQ(g_allocs.load(), before)
        << "schedule/dispatch allocated on the steady-state hot path";

    // Cancellation is also allocation-free once warm: slots recycle
    // through the free list and dead heap keys are compacted in
    // place. One warm-up round first -- lazy cancellation legitimately
    // carries up to live+1 dead keys before compaction, so the heap
    // vector's high-water capacity is ~2x depth, reached here.
    for (unsigned i = 0; i < 10000; ++i) {
        const EventId id = q.schedule(t++, [] {});
        q.cancel(id);
    }
    const std::size_t before_cancel = g_allocs.load();
    for (unsigned i = 0; i < 10000; ++i) {
        const EventId id = q.schedule(t++, [] {});
        q.cancel(id);
    }
    EXPECT_EQ(g_allocs.load(), before_cancel)
        << "schedule/cancel allocated on the steady-state hot path";
    while (!q.empty())
        q.runOne();
}

// ---------------------------------------------------------------------
// Whole-pipeline allocation bound per completed request
// ---------------------------------------------------------------------

#if !ALTOC_AUDIT_ENABLED
namespace {

/** Heap traffic of one run: allocation count and bytes requested. */
struct HeapUse
{
    std::size_t allocs = 0;
    std::size_t bytes = 0;
};

HeapUse
allocsForAcIntRun(std::uint64_t requests,
                  const altoc::system::RackConfig &rack)
{
    altoc::system::DesignConfig cfg;
    cfg.design = altoc::system::Design::AcInt;
    cfg.cores = 16;
    cfg.groups = 2;
    cfg.rack = rack;
    altoc::system::WorkloadSpec spec;
    spec.service = altoc::workload::makeFixed(1 * kUs);
    spec.rateMrps = 8.0;
    spec.requests = requests;
    spec.seed = 42;
    const HeapUse before{g_allocs.load(), g_bytes.load()};
    const altoc::system::RunResult res =
        altoc::system::runExperiment(cfg, spec);
    const HeapUse used{g_allocs.load() - before.allocs,
                       g_bytes.load() - before.bytes};
    EXPECT_EQ(res.completed, requests);
    return used;
}

} // namespace
#endif // !ALTOC_AUDIT_ENABLED

TEST(EventHotPath, CompletedRequestAllocationIsBounded)
{
#if ALTOC_AUDIT_ENABLED
    GTEST_SKIP() << "audit builds allocate in the invariant auditor";
#else
    // Fixed setup costs (servers, schedulers, pool slabs) are
    // identical between an N- and a 2N-request run of the same
    // config, so the difference isolates what actually scales with
    // completed requests. Allocations: a handful of regrowths for the
    // *whole* extra slice -- bound them at 1 per 20 completed requests
    // so any per-request heap traffic sneaking back in fails loudly.
    // Bytes: only the latency sample stores may grow with a run's
    // length (a server's, a rack's per-server ones and its rack-wide
    // one), so at most three 8-B samples per extra request. The rack
    // runs p2c, whose ToR reads two servers' backlogs per dispatch.
    constexpr std::uint64_t kN = 4000;
    constexpr double kMaxBytesPerRequest = 3 * sizeof(Tick);
    altoc::system::RackConfig p2c;
    p2c.servers = 4;
    p2c.policy = altoc::system::TorPolicy::PowerOfK;
    const std::pair<const char *, altoc::system::RackConfig> shapes[] = {
        {"one server", altoc::system::RackConfig{}},
        {"4-server p2c rack", p2c}};
    for (const auto &[label, rack] : shapes) {
        SCOPED_TRACE(label);
        const HeapUse small = allocsForAcIntRun(kN, rack);
        const HeapUse big = allocsForAcIntRun(2 * kN, rack);
        ASSERT_GE(big.allocs, small.allocs)
            << "longer run allocated less; harness assumption broken";
        const std::size_t per_slice = big.allocs - small.allocs;
        EXPECT_LE(per_slice, kN / 20)
            << "steady-state pipeline allocates per completed request ("
            << per_slice << " extra allocations across " << kN
            << " extra requests)";
        const double bytes_per_request =
            (static_cast<double>(big.bytes) -
             static_cast<double>(small.bytes)) /
            static_cast<double>(kN);
        EXPECT_LE(bytes_per_request, kMaxBytesPerRequest)
            << "a run's heap grows with its length beyond its sample "
               "stores";
    }
#endif
}
