/**
 * @file
 * Event queue, simulator and multi-region kernel tests: ordering,
 * tie-breaking, cancellation, run bounds, per-region counters.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/kernel.hh"
#include "sim/simulator.hh"

using namespace altoc;
using namespace altoc::sim;

TEST(EventQueue, OrdersByTime)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    while (!q.empty())
        q.runOne();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    while (!q.empty())
        q.runOne();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue q;
    bool ran = false;
    const EventId id = q.schedule(10, [&] { ran = true; });
    EXPECT_TRUE(q.cancel(id));
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelTwiceFails)
{
    EventQueue q;
    const EventId id = q.schedule(10, [] {});
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterRunFails)
{
    EventQueue q;
    const EventId id = q.schedule(10, [] {});
    q.runOne();
    EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelMiddleKeepsOthers)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(10, [&] { order.push_back(1); });
    const EventId id = q.schedule(20, [&] { order.push_back(2); });
    q.schedule(30, [&] { order.push_back(3); });
    q.cancel(id);
    while (!q.empty())
        q.runOne();
    EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, PeekTimeSkipsCancelled)
{
    EventQueue q;
    const EventId id = q.schedule(10, [] {});
    q.schedule(20, [] {});
    q.cancel(id);
    EXPECT_EQ(q.peekTime(), 20u);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&] {
        ++fired;
        q.schedule(20, [&] { ++fired; });
    });
    while (!q.empty())
        q.runOne();
    EXPECT_EQ(fired, 2);
}

TEST(Simulator, NowAdvancesWithEvents)
{
    Simulator sim;
    Tick seen = 0;
    sim.after(100, [&] { seen = sim.now(); });
    sim.run();
    EXPECT_EQ(seen, 100u);
    EXPECT_EQ(sim.now(), 100u);
}

TEST(Simulator, RunUntilStopsEarly)
{
    Simulator sim;
    bool late_ran = false;
    sim.after(50, [] {});
    sim.after(500, [&] { late_ran = true; });
    sim.run(100);
    EXPECT_EQ(sim.now(), 100u);
    EXPECT_FALSE(late_ran);
    sim.run();
    EXPECT_TRUE(late_ran);
}

TEST(Simulator, ChainedEventsKeepRelativeDelays)
{
    Simulator sim;
    std::vector<Tick> times;
    std::function<void()> tick = [&] {
        times.push_back(sim.now());
        if (times.size() < 5)
            sim.after(7, tick);
    };
    sim.after(7, tick);
    sim.run();
    ASSERT_EQ(times.size(), 5u);
    for (std::size_t i = 0; i < times.size(); ++i)
        EXPECT_EQ(times[i], 7 * (i + 1));
}

TEST(Simulator, StepExecutesExactlyOne)
{
    Simulator sim;
    int fired = 0;
    sim.after(1, [&] { ++fired; });
    sim.after(2, [&] { ++fired; });
    EXPECT_TRUE(sim.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(sim.step());
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(sim.step());
}

TEST(Simulator, RequestStopHaltsRun)
{
    Simulator sim;
    int fired = 0;
    sim.after(10, [&] {
        ++fired;
        sim.requestStop();
    });
    sim.after(20, [&] { ++fired; });
    sim.run();
    EXPECT_EQ(fired, 1);
    sim.run();
    EXPECT_EQ(fired, 2);
}

TEST(Simulator, ReachedFollowsTheDispatchPosition)
{
    // A reserved position (tick, seq) counts as reached exactly when
    // an event filed there would already have run.
    Simulator sim;
    const std::uint64_t lo = sim.reserveSeq();
    bool checked = false;
    sim.at(10, [&] {
        checked = true;
        EXPECT_TRUE(sim.reached(9, ~std::uint64_t{0} >> 1))
            << "earlier tick";
        EXPECT_TRUE(sim.reached(10, lo)) << "same tick, lower seq";
        EXPECT_FALSE(sim.reached(10, lo + 2)) << "same tick, higher seq";
        EXPECT_FALSE(sim.reached(11, lo)) << "later tick";
    });
    const std::uint64_t hi = sim.reserveSeq();
    EXPECT_EQ(hi, lo + 2);
    EXPECT_FALSE(sim.reached(0, lo)) << "nothing dispatched yet";
    sim.run(10);
    EXPECT_TRUE(checked);
    EXPECT_TRUE(sim.reached(10, lo));
    EXPECT_FALSE(sim.reached(10, hi)) << "the clock sits on the last event";
    // run(until) moves the clock past the last dispatch only once
    // every event up to `until` has run.
    sim.run(25);
    EXPECT_EQ(sim.now(), 25u);
    EXPECT_TRUE(sim.reached(10, hi));
    EXPECT_TRUE(sim.reached(25, hi));
    EXPECT_FALSE(sim.reached(26, lo));
}

TEST(Simulator, EventAtAReservedSeqRunsInItsPlace)
{
    // An event filed late under a reserved seq runs where one
    // scheduled at the reservation would have, ahead of same-tick
    // events scheduled in between.
    Simulator sim;
    std::vector<int> order;
    sim.at(5, [&] { order.push_back(0); });
    const std::uint64_t seq = sim.reserveSeq();
    sim.at(5, [&] { order.push_back(2); });
    sim.at(1, [&] { sim.atSeq(5, seq, [&] { order.push_back(1); }); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Simulator, ManyEventsStressOrdering)
{
    Simulator sim;
    Tick last = 0;
    bool monotone = true;
    for (int i = 0; i < 20000; ++i) {
        const Tick when = static_cast<Tick>((i * 7919) % 10000);
        sim.at(when, [&, when] {
            if (sim.now() < last)
                monotone = false;
            last = sim.now();
            (void)when;
        });
    }
    sim.run();
    EXPECT_TRUE(monotone);
    EXPECT_EQ(sim.eventsExecuted(), 20000u);
}

namespace {

/** An event body that appends @p tag to @p order. */
auto
logTo(std::vector<std::string> &order, const char *tag)
{
    return [&order, tag] { order.emplace_back(tag); };
}

} // namespace

TEST(Kernel, DispatchesInTickRegionSeqOrder)
{
    Kernel k;
    Simulator &r0 = k.addRegion();
    Simulator &r1 = k.addRegion();
    Simulator &r2 = k.addRegion();
    std::vector<std::string> order;
    // Scheduled out of region order: highest region first.
    r2.at(10, logTo(order, "r2@10"));
    r1.at(10, logTo(order, "r1@10a"));
    r0.at(10, logTo(order, "r0@10a"));
    r2.at(5, [&] {
        order.emplace_back("r2@5");
        // Into lower regions: one at a tick region 0 shares with its
        // own events, one ahead of region 1's earliest event.
        k.crossSchedule(2, 0, 10, logTo(order, "r0@10 cross"));
        k.crossSchedule(2, 1, 6, logTo(order, "r1@6 cross"));
        // A local event filed after the cross one still sorts first.
        r0.at(10, logTo(order, "r0@10b"));
    });
    r1.at(5, logTo(order, "r1@5"));
    r0.at(7, logTo(order, "r0@7"));
    r1.at(10, logTo(order, "r1@10b"));

    EXPECT_EQ(k.run(), 10u);
    EXPECT_EQ(order, (std::vector<std::string>{
                         "r1@5", "r2@5", "r1@6 cross", "r0@7", "r0@10a",
                         "r0@10b", "r0@10 cross", "r1@10a", "r1@10b",
                         "r2@10"}));
    EXPECT_EQ(k.eventsExecuted(), 10u);
    EXPECT_TRUE(k.idle());
    for (unsigned r = 0; r < k.numRegions(); ++r)
        EXPECT_EQ(k.region(r).now(), 10u) << "region " << r;
}

TEST(Kernel, RegionStopHaltsBeforeTheNextDispatch)
{
    Kernel k;
    Simulator &r0 = k.addRegion();
    Simulator &r1 = k.addRegion();
    Simulator &r2 = k.addRegion();
    std::vector<std::string> order;
    r0.at(5, logTo(order, "r0@5"));
    r1.at(8, [&] {
        order.emplace_back("r1@8");
        r1.requestStop();
    });
    r2.at(8, logTo(order, "r2@8"));
    r0.at(9, logTo(order, "r0@9"));

    EXPECT_EQ(k.run(), 8u);
    EXPECT_EQ(order, (std::vector<std::string>{"r0@5", "r1@8"}));
    for (unsigned r = 0; r < k.numRegions(); ++r)
        EXPECT_EQ(k.region(r).now(), 8u) << "region " << r;
    EXPECT_FALSE(k.idle());

    // The next run starts with the stop cleared.
    EXPECT_EQ(k.run(), 9u);
    EXPECT_EQ(order, (std::vector<std::string>{"r0@5", "r1@8", "r2@8",
                                               "r0@9"}));
}

TEST(Kernel, RunUntilEndsAtTheBound)
{
    Kernel k;
    Simulator &r0 = k.addRegion();
    Simulator &r1 = k.addRegion();
    Simulator &r2 = k.addRegion();
    std::vector<std::string> order;
    r0.at(5, logTo(order, "r0@5"));
    r1.at(12, logTo(order, "r1@12"));
    r1.at(20, logTo(order, "r1@20"));
    r2.at(30, logTo(order, "r2@30"));

    EXPECT_EQ(k.run(12), 12u);
    EXPECT_EQ(order, (std::vector<std::string>{"r0@5", "r1@12"}));
    for (unsigned r = 0; r < k.numRegions(); ++r)
        EXPECT_EQ(k.region(r).now(), 12u) << "region " << r;
    EXPECT_EQ(k.run(25), 25u);
    EXPECT_EQ(k.now(), 25u);
    EXPECT_EQ(k.run(), 30u);
    EXPECT_TRUE(k.idle());
    EXPECT_EQ(order.back(), "r2@30");
}

TEST(Kernel, LowerRegionFiledLaterDispatchesFirst)
{
    // One queue holds every region: an event of a lower region filed
    // at a tick where higher regions already filed runs ahead of them,
    // inside the wheel window and beyond it.
    Kernel k;
    Simulator &r0 = k.addRegion();
    Simulator &r1 = k.addRegion();
    Simulator &r2 = k.addRegion();
    std::vector<std::string> order;
    const Tick far = 3 * EventQueue::kWheelSpan;
    for (Tick t : {Tick{10}, far}) {
        r2.at(t, logTo(order, "r2a"));
        r1.at(t, logTo(order, "r1a"));
        r2.at(t, logTo(order, "r2b"));
        r0.at(t, logTo(order, "r0a"));
        r1.at(t, logTo(order, "r1b"));
    }
    r1.at(5, [&] {
        // Inside the window: region 0 files behind regions 1 and 2.
        order.emplace_back("r1@5");
        r2.at(10, logTo(order, "r2c"));
        r0.at(10, logTo(order, "r0b"));
    });

    EXPECT_EQ(k.run(), far);
    const std::vector<std::string> atTen{"r0a", "r0b", "r1a", "r1b",
                                         "r2a", "r2b", "r2c"};
    const std::vector<std::string> atFar{"r0a", "r1a", "r1b", "r2a",
                                         "r2b"};
    std::vector<std::string> want{"r1@5"};
    want.insert(want.end(), atTen.begin(), atTen.end());
    want.insert(want.end(), atFar.begin(), atFar.end());
    EXPECT_EQ(order, want);
}

TEST(Kernel, CrossAndReservedSeqsInsideTheWindowKeepTheirPlace)
{
    // A cross-region event and a reserved-seq event, both filed well
    // inside the wheel window behind later seqs of their tick, still
    // take their canonical places: the reserved one where its
    // reservation was taken, the cross one after every local event of
    // its region, both ahead of the higher region.
    Kernel k;
    Simulator &r0 = k.addRegion();
    Simulator &r1 = k.addRegion();
    Simulator &r2 = k.addRegion();
    std::vector<std::string> order;
    r1.at(20, logTo(order, "r1 first"));
    const std::uint64_t seq = r1.reserveSeq();
    r1.at(20, logTo(order, "r1 last"));
    r2.at(20, logTo(order, "r2"));
    r0.at(20, logTo(order, "r0"));
    r2.at(5, [&] {
        order.emplace_back("r2@5");
        k.crossSchedule(2, 1, 20, logTo(order, "r1 cross"));
        r1.atSeq(20, seq, logTo(order, "r1 reserved"));
    });

    EXPECT_EQ(k.run(), 20u);
    EXPECT_EQ(order, (std::vector<std::string>{
                         "r2@5", "r0", "r1 first", "r1 reserved",
                         "r1 last", "r1 cross", "r2"}));
}

TEST(Kernel, ReachedFollowsTheRegionOrderWithinATick)
{
    // A reserved position of region 1 at tick 10 is passed once
    // region 0's events at 10 have run and region 2's have not: it is
    // reached inside region 2's event at 10, not inside region 0's.
    Kernel k;
    Simulator &r0 = k.addRegion();
    Simulator &r1 = k.addRegion();
    Simulator &r2 = k.addRegion();
    const std::uint64_t mid = r1.reserveSeq();
    int checks = 0;
    r0.at(10, [&] {
        ++checks;
        EXPECT_FALSE(r1.reached(10, mid)) << "region 1 runs after 0";
    });
    r2.at(10, [&] {
        ++checks;
        EXPECT_TRUE(r1.reached(10, mid)) << "region 1 ran before 2";
        EXPECT_FALSE(r1.reached(11, mid)) << "later tick";
    });
    const std::uint64_t late = r2.reserveSeq();
    r2.at(10, [&] {
        ++checks;
        EXPECT_TRUE(r2.reached(10, late)) << "lower seq, same region";
    });
    EXPECT_EQ(k.run(10), 10u);
    EXPECT_EQ(checks, 3);
    EXPECT_FALSE(r2.reached(10, r2.reserveSeq()))
        << "the clock sits on the last event";
}

TEST(Kernel, RegionCountersCountOnlyTheirOwnEvents)
{
    Kernel k;
    Simulator &r0 = k.addRegion();
    Simulator &r1 = k.addRegion();
    Simulator &r2 = k.addRegion();
    r0.at(1, [&] { k.crossSchedule(0, 2, 5, [] {}); });
    r0.at(2, [] {});
    r0.at(3 * EventQueue::kWheelSpan, [] {});
    r1.at(2, [] {});
    const EventId dropped = r1.at(4, [] {});
    EXPECT_EQ(r0.pendingEvents(), 3u);
    EXPECT_EQ(r1.pendingEvents(), 2u);
    EXPECT_TRUE(r2.idle());

    EXPECT_TRUE(r1.cancel(dropped));
    EXPECT_FALSE(r1.cancel(dropped));
    EXPECT_EQ(r1.pendingEvents(), 1u);

    EXPECT_EQ(k.run(2), 2u);
    EXPECT_EQ(r0.eventsExecuted(), 2u);
    EXPECT_EQ(r0.pendingEvents(), 1u);
    EXPECT_EQ(r1.eventsExecuted(), 1u);
    EXPECT_TRUE(r1.idle());
    EXPECT_EQ(r2.eventsExecuted(), 0u);
    EXPECT_EQ(r2.pendingEvents(), 1u) << "the cross-region event";
    EXPECT_FALSE(k.idle());

    k.run();
    EXPECT_EQ(r0.eventsExecuted(), 3u);
    EXPECT_EQ(r1.eventsExecuted(), 1u);
    EXPECT_EQ(r2.eventsExecuted(), 1u);
    EXPECT_EQ(k.eventsExecuted(), 5u);
    for (unsigned r = 0; r < k.numRegions(); ++r)
        EXPECT_TRUE(k.region(r).idle()) << "region " << r;
    EXPECT_TRUE(k.idle());
}
