/**
 * @file
 * Mesh NoC tests: geometry, XY routing, contention, virtual-network
 * isolation.
 */

#include <gtest/gtest.h>

#include "noc/mesh.hh"

using namespace altoc;
using namespace altoc::noc;

TEST(Mesh, ForTilesCoversCount)
{
    for (unsigned n : {1u, 4u, 16u, 17u, 64u, 100u, 256u}) {
        Mesh m = Mesh::forTiles(n);
        EXPECT_GE(m.tiles(), n);
        // Square-ish: no dimension more than one step larger.
        EXPECT_LE(m.cols(), m.rows() + m.cols() / 2 + 1);
    }
}

TEST(Mesh, HopsAreManhattan)
{
    Mesh m(4, 4);
    EXPECT_EQ(m.hops(0, 0), 0u);
    EXPECT_EQ(m.hops(0, 3), 3u);   // same row
    EXPECT_EQ(m.hops(0, 12), 3u);  // same column
    EXPECT_EQ(m.hops(0, 15), 6u);  // opposite corner
    EXPECT_EQ(m.hops(5, 10), 2u);
    EXPECT_EQ(m.hops(10, 5), 2u);  // symmetric
}

TEST(Mesh, FlightTimeUsesPerHopLatency)
{
    Mesh m(4, 4);
    EXPECT_EQ(m.flightTime(0, 15), 18u);
    EXPECT_EQ(m.flightTime(3, 3), 0u);
}

TEST(Mesh, SelfSendIsFree)
{
    Mesh m(4, 4);
    EXPECT_EQ(m.send(kVnData, 5, 5, 64, 100), 100u);
}

TEST(Mesh, UncontendedSendMatchesFlightTime)
{
    Mesh m(4, 4);
    // 14-byte descriptor = 1 flit: no serialization tail.
    const Tick arrive = m.send(kVnData, 0, 3, 14, 1000);
    EXPECT_EQ(arrive, 1000u + 9u);
}

TEST(Mesh, MultiFlitAddsSerialization)
{
    Mesh m(4, 4);
    // 64 bytes = 4 flits: 3 extra flit slots on arrival.
    const Tick arrive = m.send(kVnData, 0, 1, 64, 0);
    EXPECT_EQ(arrive, 3u + 3u);
}

TEST(Mesh, BackToBackMessagesQueueOnLink)
{
    Mesh m(4, 4);
    const Tick first = m.send(kVnData, 0, 3, 64, 0);
    const Tick second = m.send(kVnData, 0, 3, 64, 0);
    EXPECT_GT(second, first);
}

TEST(Mesh, VirtualNetworksDoNotContend)
{
    Mesh a(4, 4);
    // Saturate the data VN...
    for (int i = 0; i < 50; ++i)
        a.send(kVnData, 0, 3, 64, 0);
    // ...the scheduling VN still sees an uncontended path.
    const Tick sched_arrival = a.send(kVnSched, 0, 3, 14, 0);
    Mesh b(4, 4);
    EXPECT_EQ(sched_arrival, b.send(kVnSched, 0, 3, 14, 0));
}

TEST(Mesh, DisjointPathsDoNotContend)
{
    Mesh m(4, 4);
    const Tick row0 = m.send(kVnData, 0, 3, 64, 0);
    // Row 3 uses different links entirely.
    const Tick row3 = m.send(kVnData, 12, 15, 64, 0);
    EXPECT_EQ(row0, row3);
}

TEST(Mesh, TrafficAccounting)
{
    Mesh m(4, 4);
    m.send(kVnData, 0, 3, 32, 0); // 2 flits x 3 hops
    EXPECT_EQ(m.messages(), 1u);
    EXPECT_EQ(m.flitHops(), 6u);
}

TEST(Mesh, XyRoutingIsDeterministic)
{
    Mesh a(8, 8);
    Mesh b(8, 8);
    for (unsigned src = 0; src < 64; src += 7) {
        for (unsigned dst = 0; dst < 64; dst += 5) {
            EXPECT_EQ(a.send(kVnData, src, dst, 14, 0),
                      b.send(kVnData, src, dst, 14, 0));
        }
    }
}
