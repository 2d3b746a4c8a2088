/**
 * @file
 * Hardware messaging mechanism tests: MIGRATE/ACK/NACK protocol,
 * buffer bounds, UPDATE broadcast, software fallback.
 */

#include <gtest/gtest.h>

#include "core/hw_messaging.hh"
#include "sim/simulator.hh"

using namespace altoc;
using namespace altoc::core;

namespace {

struct MsgHarness
{
    sim::Simulator sim;
    noc::Mesh mesh{4, 4};
    net::RpcPool pool;
    std::unique_ptr<HwMessaging> msg;

    std::vector<std::pair<unsigned, std::size_t>> delivered; // (mgr, n)
    std::vector<std::pair<unsigned, std::size_t>> returned;  // (mgr, n)

    explicit MsgHarness(HwMessaging::Config cfg = {},
                        std::vector<unsigned> tiles = {0, 3, 12, 15})
    {
        msg = std::make_unique<HwMessaging>(sim, mesh, tiles, cfg);
        msg->setMigrateIn(
            [this](unsigned mgr, const std::vector<net::Rpc *> &reqs) {
                delivered.emplace_back(mgr, reqs.size());
            });
        msg->setReturn([this](unsigned mgr, unsigned,
                              const std::vector<net::Rpc *> &reqs) {
            returned.emplace_back(mgr, reqs.size());
        });
    }

    /** Drain the queue, then have every manager read its UPDATE
     *  registers from an event @p delay ticks later, as its runtime
     *  would. views[mgr][src]; a manager's own entry stays 0. */
    std::vector<std::vector<std::size_t>>
    readViewsAfter(Tick delay)
    {
        const unsigned n = msg->numManagers();
        std::vector<std::vector<std::size_t>> views(
            n, std::vector<std::size_t>(n, 0));
        sim.run();
        sim.after(delay, [this, &views, n] {
            for (unsigned m = 0; m < n; ++m)
                msg->readUpdates(m, views[m]);
        });
        sim.run();
        return views;
    }

    std::vector<net::Rpc *>
    batch(unsigned n)
    {
        std::vector<net::Rpc *> v;
        for (unsigned i = 0; i < n; ++i) {
            net::Rpc *r = pool.alloc();
            r->service = 100;
            r->remaining = 100;
            v.push_back(r);
        }
        return v;
    }
};

} // namespace

TEST(HwMessaging, MigrateDeliversAndAcks)
{
    MsgHarness h;
    EXPECT_TRUE(h.msg->sendMigrate(0, 1, h.batch(4)));
    h.sim.run();
    ASSERT_EQ(h.delivered.size(), 1u);
    EXPECT_EQ(h.delivered[0].first, 1u);
    EXPECT_EQ(h.delivered[0].second, 4u);
    EXPECT_EQ(h.msg->stats().migratesSent, 1u);
    EXPECT_EQ(h.msg->stats().migratesAcked, 1u);
    EXPECT_EQ(h.msg->stats().descriptorsDelivered, 4u);
    // ACK freed the staged MR entries.
    EXPECT_EQ(h.msg->freeMrEntries(0), hw::kMrEntries);
}

TEST(HwMessaging, MigrationMarksDescriptors)
{
    MsgHarness h;
    auto reqs = h.batch(2);
    net::Rpc *first = reqs[0];
    EXPECT_FALSE(first->migrated);
    h.msg->sendMigrate(0, 2, std::move(reqs));
    h.sim.run();
    EXPECT_TRUE(first->migrated);
    EXPECT_EQ(first->curGroup, 2u);
}

TEST(HwMessaging, MigrationTakesNocTime)
{
    MsgHarness h;
    h.msg->sendMigrate(0, 3, h.batch(8)); // tiles 0 -> 15: 6 hops
    Tick deliver_time = 0;
    h.msg->setMigrateIn(
        [&](unsigned, const std::vector<net::Rpc *> &) {
            deliver_time = h.sim.now();
        });
    h.sim.run();
    // At least the NoC flight time (18 ns) plus controller/migrator.
    EXPECT_GE(deliver_time, 18u);
    // Paper bound: migration latency < 50 ns even at 256 cores.
    EXPECT_LT(deliver_time, 50u);
}

TEST(HwMessaging, StagingBoundRefusesOversizedSends)
{
    MsgHarness h;
    // MR bank holds 11 entries; a 12-descriptor MIGRATE cannot stage.
    EXPECT_EQ(h.msg->sendCapacity(0), hw::kMrEntries);
    EXPECT_FALSE(h.msg->sendMigrate(0, 1, h.batch(12)));
    EXPECT_EQ(h.msg->stats().sendsRefused, 1u);
    // In-flight staging blocks a second full batch until the ACK.
    EXPECT_TRUE(h.msg->sendMigrate(0, 1, h.batch(8)));
    EXPECT_EQ(h.msg->sendCapacity(0), hw::kMrEntries - 8);
    EXPECT_FALSE(h.msg->sendMigrate(0, 1, h.batch(8)));
    h.sim.run();
    EXPECT_EQ(h.msg->sendCapacity(0), hw::kMrEntries);
}

TEST(HwMessaging, ReceiverOverflowNacksAndReturns)
{
    MsgHarness h;
    // Two equidistant senders hit manager 1 in the same cycle:
    // 8 + 8 > 11 MR entries, so the second MIGRATE must be dropped
    // and returned (managers 0 and 3 are both 3 hops from tile 3).
    EXPECT_TRUE(h.msg->sendMigrate(0, 1, h.batch(8)));
    EXPECT_TRUE(h.msg->sendMigrate(3, 1, h.batch(8)));
    h.sim.run();
    EXPECT_EQ(h.delivered.size() + h.returned.size(), 2u);
    EXPECT_EQ(h.msg->stats().migratesNacked, 1u);
    ASSERT_EQ(h.returned.size(), 1u);
    EXPECT_EQ(h.returned[0].second, 8u);
    // NACKed descriptors are not marked migrated.
    EXPECT_EQ(h.msg->stats().descriptorsReturned, 8u);
}

TEST(HwMessaging, UpdateBroadcastReachesAllOthers)
{
    MsgHarness h;
    h.msg->broadcastUpdate(1, 42);
    const auto views = h.readViewsAfter(1000);
    for (unsigned mgr = 0; mgr < 4; ++mgr) {
        for (unsigned src = 0; src < 4; ++src) {
            EXPECT_EQ(views[mgr][src], mgr != 1 && src == 1 ? 42u : 0u)
                << "manager " << mgr << " reading " << src;
        }
    }
    EXPECT_EQ(h.msg->stats().updatesSent, 3u);
}

TEST(HwMessaging, UpdateLandsInDispatchOrderWithinItsTick)
{
    // An arrival sorts where its delivery event would have: after
    // everything filed before the launch at its tick, before
    // everything filed after it. Manager 0 (tile 0) -> manager 1
    // (tile 3) on an idle mesh.
    MsgHarness h;
    const Tick arrive = hw::kControllerNs + h.mesh.flightTime(0, 3);
    std::vector<std::size_t> before(4, 0), after(4, 0), later(4, 0);
    h.sim.at(arrive, [&] { h.msg->readUpdates(1, before); });
    h.msg->broadcastUpdate(0, 7);
    h.sim.at(arrive, [&] { h.msg->readUpdates(1, after); });
    h.sim.at(arrive - 1, [&] { h.msg->readUpdates(1, later); });
    h.sim.run();
    EXPECT_EQ(before[0], 0u);
    EXPECT_EQ(after[0], 7u);
    EXPECT_EQ(later[0], 0u) << "a tick early";
}

TEST(HwMessaging, UpdatesToADeadManagerStopAtTheFailStop)
{
    // Manager 0's UPDATE reaches manager 1 before it fail-stops and
    // stays in its registers, although nothing read them in time;
    // manager 2's arrives after and is dropped. Later broadcasts skip
    // the dead manager.
    MsgHarness h;
    const Tick arrive0 = hw::kControllerNs + h.mesh.flightTime(0, 3);
    std::vector<std::size_t> view(4, 0);
    std::uint64_t sentBeforeKill = 0;
    h.msg->broadcastUpdate(0, 5);
    h.sim.at(arrive0 + 10, [&] { h.msg->broadcastUpdate(2, 9); });
    h.sim.at(arrive0 + 11, [&] {
        h.msg->setManagerDead(1);
        sentBeforeKill = h.msg->stats().updatesSent;
        h.msg->broadcastUpdate(0, 6);
    });
    h.sim.at(arrive0 + 1000, [&] { h.msg->readUpdates(1, view); });
    h.sim.run();
    EXPECT_EQ(view[0], 5u);
    EXPECT_EQ(view[2], 0u);
    EXPECT_EQ(view[3], 0u);
    EXPECT_EQ(sentBeforeKill, 6u);
    EXPECT_EQ(h.msg->stats().updatesSent, sentBeforeKill + 2);
}

TEST(HwMessaging, SoftwareFallbackIsSlower)
{
    HwMessaging::Config sw;
    sw.hardware = false;
    MsgHarness hw_h;
    MsgHarness sw_h(sw);

    Tick hw_time = 0, sw_time = 0;
    hw_h.msg->setMigrateIn(
        [&](unsigned, const std::vector<net::Rpc *> &) {
            hw_time = hw_h.sim.now();
        });
    sw_h.msg->setMigrateIn(
        [&](unsigned, const std::vector<net::Rpc *> &) {
            sw_time = sw_h.sim.now();
        });
    hw_h.msg->sendMigrate(0, 1, hw_h.batch(4));
    sw_h.msg->sendMigrate(0, 1, sw_h.batch(4));
    hw_h.sim.run();
    sw_h.sim.run();
    EXPECT_GT(sw_time, hw_time * 3);
    EXPECT_GE(sw_time, hw::kSwMessageNs);
}

TEST(HwMessaging, SoftwareFallbackIgnoresBufferBounds)
{
    HwMessaging::Config sw;
    sw.hardware = false;
    MsgHarness h(sw);
    EXPECT_TRUE(h.msg->sendMigrate(0, 1, h.batch(40)));
    h.sim.run();
    ASSERT_EQ(h.delivered.size(), 1u);
    EXPECT_EQ(h.delivered[0].second, 40u);
}

TEST(HwMessaging, UpdateCoalescingBoundsTraffic)
{
    // Thousands of broadcasts while the wire is busy must collapse
    // into at most one in-flight + one pending value per channel.
    MsgHarness h;
    for (std::size_t q = 0; q < 1000; ++q)
        h.msg->broadcastUpdate(0, q);
    const auto views = h.readViewsAfter(1000);
    // 3 destinations; first value flies immediately, later ones
    // coalesce into (few) follow-ups.
    EXPECT_LE(h.msg->stats().updatesSent, 3u * 4u);
    // Every destination must end at the freshest value, and hear
    // from manager 0 only.
    for (unsigned mgr = 1; mgr < 4; ++mgr) {
        EXPECT_EQ(views[mgr][0], 999u);
        for (unsigned src = 1; src < 4; ++src)
            EXPECT_EQ(views[mgr][src], 0u);
    }
}

TEST(HwMessaging, UpdateChannelRecoversAfterIdle)
{
    MsgHarness h;
    h.msg->broadcastUpdate(0, 1);
    EXPECT_EQ(h.readViewsAfter(1000)[1][0], 1u);
    const auto first_batch = h.msg->stats().updatesSent;
    h.msg->broadcastUpdate(0, 2);
    // Channel went idle, so the second broadcast sends fresh
    // messages to all three peers again.
    EXPECT_EQ(h.msg->stats().updatesSent, first_batch + 3);
    EXPECT_EQ(h.readViewsAfter(1000)[1][0], 2u);
}

TEST(HwMessaging, ConcurrentMigrationsBetweenDisjointPairs)
{
    MsgHarness h;
    EXPECT_TRUE(h.msg->sendMigrate(0, 1, h.batch(4)));
    EXPECT_TRUE(h.msg->sendMigrate(2, 3, h.batch(4)));
    h.sim.run();
    EXPECT_EQ(h.msg->stats().migratesAcked, 2u);
    EXPECT_EQ(h.delivered.size(), 2u);
}

TEST(HwMessaging, NocBytesAccounted)
{
    MsgHarness h;
    h.msg->sendMigrate(0, 1, h.batch(4));
    h.sim.run();
    // MIGRATE (8 + 4*14 = 64 B) + ACK (8 B).
    EXPECT_EQ(h.msg->stats().bytesOnNoc, 72u);
}

TEST(HwMessaging, ReceiveFifoBoundNacksIndependently)
{
    // Shrink the receive FIFO below the MR bank so the FIFO is the
    // binding constraint: 3 + 3 fits 64 MR entries but not 4 FIFO
    // slots when two equidistant MIGRATEs land in the same cycle.
    HwMessaging::Config cfg;
    cfg.mrEntries = 64;
    cfg.fifoEntries = 4;
    MsgHarness h(cfg);
    EXPECT_TRUE(h.msg->sendMigrate(0, 1, h.batch(3)));
    EXPECT_TRUE(h.msg->sendMigrate(3, 1, h.batch(3)));
    h.sim.run();
    EXPECT_EQ(h.msg->stats().migratesNacked, 1u);
    ASSERT_EQ(h.returned.size(), 1u);
    EXPECT_EQ(h.returned[0].second, 3u);
}

TEST(HwMessaging, MrBankBoundNacksIndependently)
{
    // Now the MR bank binds: 4 + 4 fits 16 FIFO slots but not 6 MR
    // entries.
    HwMessaging::Config cfg;
    cfg.mrEntries = 6;
    cfg.fifoEntries = 16;
    MsgHarness h(cfg);
    EXPECT_TRUE(h.msg->sendMigrate(0, 1, h.batch(4)));
    EXPECT_TRUE(h.msg->sendMigrate(3, 1, h.batch(4)));
    h.sim.run();
    EXPECT_EQ(h.msg->stats().migratesNacked, 1u);
    ASSERT_EQ(h.returned.size(), 1u);
    EXPECT_EQ(h.returned[0].second, 4u);
}

TEST(HwMessaging, NackCountsOncePerBatchNotPerDescriptor)
{
    MsgHarness h;
    // 8 + 8 > 11 MR entries: one whole batch bounces. The NACK is a
    // single protocol event regardless of batch size.
    EXPECT_TRUE(h.msg->sendMigrate(0, 1, h.batch(8)));
    EXPECT_TRUE(h.msg->sendMigrate(3, 1, h.batch(8)));
    h.sim.run();
    EXPECT_EQ(h.msg->stats().migratesNacked, 1u);
    EXPECT_EQ(h.msg->stats().descriptorsReturned, 8u);
    // And the staging the bounced batch held is fully released.
    EXPECT_EQ(h.msg->freeMrEntries(0), hw::kMrEntries);
    EXPECT_EQ(h.msg->freeMrEntries(3), hw::kMrEntries);
    EXPECT_EQ(h.msg->outstanding(), 0u);
}

TEST(HwMessaging, NackPreservesMigratedOnceState)
{
    MsgHarness h;
    // First hop 0 -> 1 lands and marks the batch migrated-once.
    auto reqs = h.batch(2);
    net::Rpc *probe = reqs[0];
    std::vector<net::Rpc *> landed;
    h.msg->setMigrateIn(
        [&](unsigned, const std::vector<net::Rpc *> &in) {
            landed = in;
        });
    EXPECT_TRUE(h.msg->sendMigrate(0, 1, std::move(reqs)));
    h.sim.run();
    ASSERT_EQ(landed.size(), 2u);
    EXPECT_TRUE(probe->migrated);
    EXPECT_EQ(probe->curGroup, 1u);

    // A later 1 -> 2 attempt that bounces must leave both the flag
    // and the landed group untouched: the request still lives at
    // group 1 and still counts as migrated exactly once. Manager 2's
    // MR bank is held by its own outbound staging (freed only by the
    // much later ACK), so the probe's arrival deterministically finds
    // no room: 10 staged + 2 inbound > 11 entries.
    EXPECT_TRUE(h.msg->sendMigrate(2, 3, h.batch(10)));
    EXPECT_TRUE(h.msg->sendMigrate(1, 2, std::move(landed)));
    h.sim.run();
    EXPECT_EQ(h.msg->stats().migratesNacked, 1u);
    EXPECT_TRUE(probe->migrated);
    EXPECT_EQ(probe->curGroup, 1u);
}
