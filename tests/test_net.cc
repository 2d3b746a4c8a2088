/**
 * @file
 * NIC, PCIe model, RPC pool and NetRX queue tests.
 */

#include <gtest/gtest.h>

#include <map>

#include "net/netrx.hh"
#include "net/nic.hh"
#include "net/pcie.hh"
#include "net/rpc.hh"
#include "sim/simulator.hh"

using namespace altoc;
using namespace altoc::net;

TEST(Pcie, LatencyBoundsAndMonotonicity)
{
    EXPECT_EQ(pcieLatency(0), lat::kPcieMin);
    EXPECT_EQ(pcieLatency(kPcieSaturationBytes), lat::kPcieMax);
    EXPECT_EQ(pcieLatency(1 << 20), lat::kPcieMax);
    Tick prev = 0;
    for (std::uint32_t b = 0; b <= kPcieSaturationBytes; b += 64) {
        const Tick l = pcieLatency(b);
        EXPECT_GE(l, prev);
        prev = l;
    }
}

TEST(RpcPool, RecyclesDescriptors)
{
    RpcPool pool(8);
    Rpc *a = pool.alloc();
    a->id = 77;
    a->migrated = true;
    pool.release(a);
    Rpc *b = pool.alloc();
    // Same storage, but zero-initialized on reuse.
    EXPECT_EQ(b, a);
    EXPECT_EQ(b->id, 0u);
    EXPECT_FALSE(b->migrated);
    pool.release(b);
    EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(RpcPool, PointersStableAcrossGrowth)
{
    RpcPool pool(2);
    std::vector<Rpc *> all;
    for (int i = 0; i < 100; ++i) {
        Rpc *r = pool.alloc();
        r->id = static_cast<std::uint64_t>(i);
        all.push_back(r);
    }
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(all[i]->id, static_cast<std::uint64_t>(i));
    EXPECT_EQ(pool.outstanding(), 100u);
}

TEST(RpcPool, GrowsOneDefaultSlabAtATime)
{
    RpcPool pool;
    EXPECT_EQ(pool.capacity(), 0u) << "a pool is built empty";
    std::vector<Rpc *> held;
    for (std::size_t i = 0; i < RpcPool::kDefaultSlab; ++i)
        held.push_back(pool.alloc());
    EXPECT_EQ(pool.capacity(), RpcPool::kDefaultSlab);
    // One past the slab grows exactly one more.
    held.push_back(pool.alloc());
    EXPECT_EQ(pool.capacity(), 2 * RpcPool::kDefaultSlab);
    // Released descriptors are reused before the pool grows again.
    for (Rpc *r : held)
        pool.release(r);
    for (std::size_t i = 0; i < 2 * RpcPool::kDefaultSlab; ++i)
        pool.alloc();
    EXPECT_EQ(pool.capacity(), 2 * RpcPool::kDefaultSlab);
    EXPECT_EQ(pool.outstanding(), 2 * RpcPool::kDefaultSlab);
}

TEST(NetRx, FifoOrderAndTailOps)
{
    NetRxQueue q;
    RpcPool pool;
    Rpc *a = pool.alloc();
    Rpc *b = pool.alloc();
    Rpc *c = pool.alloc();
    q.enqueue(a, 1);
    q.enqueue(b, 2);
    q.enqueue(c, 3);
    EXPECT_EQ(q.length(), 3u);
    EXPECT_EQ(q.dequeueTail(), c);
    EXPECT_EQ(q.dequeueHead(), a);
    EXPECT_EQ(q.dequeueHead(), b);
    EXPECT_EQ(q.dequeueHead(), nullptr);
    EXPECT_EQ(q.dequeueTail(), nullptr);
}

TEST(NetRx, PushFrontRestoresHead)
{
    NetRxQueue q;
    RpcPool pool;
    Rpc *a = pool.alloc();
    Rpc *b = pool.alloc();
    q.enqueue(a, 1);
    q.enqueue(b, 1);
    Rpc *head = q.dequeueHead();
    q.pushFront(head);
    EXPECT_EQ(q.front(), a);
    EXPECT_EQ(q.peakLength(), 2u);
}

TEST(NetRx, EnqueueStampsTime)
{
    NetRxQueue q;
    RpcPool pool;
    Rpc *a = pool.alloc();
    q.enqueue(a, 123);
    EXPECT_EQ(a->enqueued, 123u);
}

namespace {

struct NicHarness
{
    sim::Simulator sim;
    RpcPool pool;
    std::unique_ptr<Nic> nic;
    std::vector<std::pair<Rpc *, unsigned>> delivered;

    explicit NicHarness(Nic::Config cfg)
    {
        nic = std::make_unique<Nic>(sim, cfg, Rng(1));
        nic->setDeliver([this](Rpc *r, unsigned q) {
            delivered.emplace_back(r, q);
        });
    }

    Rpc *
    makeRpc(std::uint32_t conn, std::uint32_t bytes)
    {
        Rpc *r = pool.alloc();
        r->conn = conn;
        r->sizeBytes = bytes;
        r->service = 100;
        r->remaining = 100;
        return r;
    }
};

} // namespace

TEST(Nic, StampsArrivalAndDelivers)
{
    Nic::Config cfg;
    cfg.numQueues = 4;
    NicHarness h(cfg);
    Rpc *r = h.makeRpc(7, 300);
    h.sim.after(50, [&] { h.nic->receive(r); });
    h.sim.run();
    ASSERT_EQ(h.delivered.size(), 1u);
    EXPECT_EQ(r->nicArrival, 50u);
    EXPECT_LT(h.delivered[0].second, 4u);
}

TEST(Nic, PcieDeliveryIsSlowerThanIntegrated)
{
    Nic::Config pcie;
    pcie.attach = NicAttach::Pcie;
    Nic::Config integ;
    integ.attach = NicAttach::Integrated;
    NicHarness a(pcie), b(integ);
    EXPECT_GT(a.nic->deliveryLatency(300), b.nic->deliveryLatency(300));
    EXPECT_GE(b.nic->deliveryLatency(300), lat::kNicMac);
}

TEST(Nic, RssSteeringIsPerConnectionStable)
{
    Nic::Config cfg;
    cfg.numQueues = 8;
    cfg.steering = Steering::Rss;
    NicHarness h(cfg);
    for (int round = 0; round < 3; ++round) {
        for (std::uint32_t conn = 0; conn < 16; ++conn)
            h.nic->receive(h.makeRpc(conn, 64));
    }
    h.sim.run();
    std::map<std::uint32_t, unsigned> seen;
    for (auto &[r, q] : h.delivered) {
        auto it = seen.find(r->conn);
        if (it == seen.end())
            seen[r->conn] = q;
        else
            EXPECT_EQ(it->second, q) << "conn " << r->conn;
    }
}

TEST(Nic, RssSpreadsManyConnections)
{
    Nic::Config cfg;
    cfg.numQueues = 4;
    cfg.steering = Steering::Rss;
    NicHarness h(cfg);
    for (std::uint32_t conn = 0; conn < 4000; ++conn)
        h.nic->receive(h.makeRpc(conn, 64));
    h.sim.run();
    unsigned counts[4] = {};
    for (auto &[r, q] : h.delivered)
        ++counts[q];
    for (unsigned c : counts)
        EXPECT_NEAR(static_cast<double>(c), 1000.0, 150.0);
}

TEST(Nic, RoundRobinRotates)
{
    Nic::Config cfg;
    cfg.numQueues = 3;
    cfg.steering = Steering::RoundRobin;
    NicHarness h(cfg);
    for (int i = 0; i < 6; ++i)
        h.nic->receive(h.makeRpc(0, 64));
    h.sim.run();
    // Delivery order can interleave, so check counts.
    unsigned counts[3] = {};
    for (auto &[r, q] : h.delivered)
        ++counts[q];
    EXPECT_EQ(counts[0], 2u);
    EXPECT_EQ(counts[1], 2u);
    EXPECT_EQ(counts[2], 2u);
}

TEST(Nic, CentralSteeringAlwaysQueueZero)
{
    Nic::Config cfg;
    cfg.numQueues = 4;
    cfg.steering = Steering::Central;
    NicHarness h(cfg);
    for (std::uint32_t conn = 0; conn < 20; ++conn)
        h.nic->receive(h.makeRpc(conn, 64));
    h.sim.run();
    for (auto &[r, q] : h.delivered)
        EXPECT_EQ(q, 0u);
}

TEST(Nic, LineRatePacesBursts)
{
    // At 10 Gbps a 1250-byte packet serializes for 1 us; a burst of
    // 10 spreads over ~10 us of delivery.
    Nic::Config cfg;
    cfg.lineRateGbps = 10.0;
    NicHarness h(cfg);
    for (int i = 0; i < 10; ++i)
        h.nic->receive(h.makeRpc(0, 1250));
    Tick last = 0;
    h.nic->setDeliver([&](Rpc *, unsigned) { last = h.sim.now(); });
    h.sim.run();
    EXPECT_GE(last, 10u * 1000u);
}

TEST(Nic, SerializationTimeMatchesLineRate)
{
    Nic::Config cfg;
    cfg.lineRateGbps = 100.0;
    NicHarness h(cfg);
    // 100 Gbps = 12.5 bytes/ns -> 125 bytes take 10 ns.
    EXPECT_EQ(h.nic->serializationTime(125), 10u);
    EXPECT_GE(h.nic->serializationTime(1), 1u);
}
