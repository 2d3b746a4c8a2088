/**
 * @file
 * MICA substrate tests: circular log, hash index, partitioned store,
 * handlers.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "mica/handlers.hh"
#include "mica/hash_table.hh"
#include "mica/kvs.hh"
#include "mica/log.hh"

using namespace altoc;
using namespace altoc::mica;

// ---------------------------------------------------------------------
// CircularLog
// ---------------------------------------------------------------------

TEST(CircularLog, AppendReadRoundTrip)
{
    CircularLog log(4096);
    const auto h = hashKey("alpha");
    auto off = log.append(h, "alpha", "value-1");
    ASSERT_TRUE(off.has_value());
    auto entry = log.read(*off);
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->key, "alpha");
    EXPECT_EQ(entry->value, "value-1");
    EXPECT_EQ(entry->keyHash, h);
}

TEST(CircularLog, WrapInvalidatesOldEntries)
{
    CircularLog log(1024);
    std::string value(100, 'x');
    auto first = log.append(1, "key0", value);
    ASSERT_TRUE(first.has_value());
    // Push enough data through to lap the ring.
    for (int i = 0; i < 50; ++i)
        ASSERT_TRUE(log.append(2 + i, "keyN", value).has_value());
    EXPECT_FALSE(log.live(*first));
    EXPECT_FALSE(log.read(*first).has_value());
    EXPECT_GT(log.overwrittenReads(), 0u);
}

TEST(CircularLog, RecentEntriesSurviveWrap)
{
    CircularLog log(1024);
    std::string value(100, 'y');
    std::optional<std::uint64_t> last;
    for (int i = 0; i < 100; ++i)
        last = log.append(i, "key", value);
    ASSERT_TRUE(last.has_value());
    auto entry = log.read(*last);
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->value, value);
}

TEST(CircularLog, OversizedAppendRejected)
{
    CircularLog log(1024);
    std::string huge(5000, 'z');
    EXPECT_FALSE(log.append(1, "k", huge).has_value());
}

TEST(CircularLog, EntriesNeverStraddleRingEdge)
{
    // Entries sized so the ring edge falls mid-entry; padding must
    // keep every read contiguous and intact.
    CircularLog log(1024);
    std::string value(300, 'w');
    for (int i = 0; i < 40; ++i) {
        auto off = log.append(i, "kk", value);
        ASSERT_TRUE(off.has_value());
        auto entry = log.read(*off);
        ASSERT_TRUE(entry.has_value());
        EXPECT_EQ(entry->value, value);
    }
}

// ---------------------------------------------------------------------
// HashTable
// ---------------------------------------------------------------------

TEST(HashTable, InsertFindErase)
{
    HashTable ht(64);
    const auto h = hashKey("key-a");
    EXPECT_FALSE(ht.find(h).has_value());
    EXPECT_FALSE(ht.insert(h, 1234));
    auto off = ht.find(h);
    ASSERT_TRUE(off.has_value());
    EXPECT_EQ(*off, 1234u);
    EXPECT_TRUE(ht.erase(h));
    EXPECT_FALSE(ht.find(h).has_value());
    EXPECT_FALSE(ht.erase(h));
}

TEST(HashTable, UpdateInPlace)
{
    HashTable ht(64);
    const auto h = hashKey("key-b");
    ht.insert(h, 10);
    EXPECT_TRUE(ht.insert(h, 20));
    EXPECT_EQ(*ht.find(h), 20u);
}

TEST(HashTable, BucketOverflowEvictsOldest)
{
    HashTable ht(1); // rounded to 1 bucket: all keys collide
    // Fill all 7 slots plus one more.
    for (std::uint64_t i = 0; i < HashTable::kSlotsPerBucket + 1; ++i) {
        // Craft hashes with distinct tags but the same bucket.
        const std::uint64_t h = (i + 1) << 48;
        ht.insert(h, i + 100);
    }
    EXPECT_EQ(ht.evictions(), 1u);
    // The oldest offset (100) was evicted.
    EXPECT_FALSE(ht.find(std::uint64_t{1} << 48).has_value());
    EXPECT_TRUE(ht.find(std::uint64_t{2} << 48).has_value());
}

TEST(HashTable, ManyKeysRetrievable)
{
    HashTable ht(1 << 12);
    for (std::uint64_t i = 0; i < 2000; ++i)
        ht.insert(hashKey("key" + std::to_string(i)), i);
    unsigned found = 0;
    for (std::uint64_t i = 0; i < 2000; ++i) {
        auto off = ht.find(hashKey("key" + std::to_string(i)));
        if (off && *off == i)
            ++found;
    }
    // Lossy index: collisions may evict, but the vast majority stay.
    EXPECT_GT(found, 1950u);
}

// ---------------------------------------------------------------------
// Partition / MicaStore
// ---------------------------------------------------------------------

TEST(Partition, SetThenGet)
{
    Partition part(1 << 10, 1 << 16);
    const OpResult set_res = part.set("user:1", "dataA");
    EXPECT_TRUE(set_res.hit);
    EXPECT_GT(set_res.serviceNs, 0u);
    std::string out;
    const OpResult get_res = part.get("user:1", &out);
    EXPECT_TRUE(get_res.hit);
    EXPECT_EQ(out, "dataA");
}

TEST(Partition, GetMissingKeyMisses)
{
    Partition part(1 << 10, 1 << 16);
    const OpResult res = part.get("nope");
    EXPECT_FALSE(res.hit);
    EXPECT_GT(res.serviceNs, 0u);
}

TEST(Partition, OverwriteReturnsLatest)
{
    Partition part(1 << 10, 1 << 16);
    part.set("k", "v1");
    part.set("k", "v2");
    std::string out;
    EXPECT_TRUE(part.get("k", &out).hit);
    EXPECT_EQ(out, "v2");
}

TEST(Partition, GetCostScalesWithValueSize)
{
    Partition part(1 << 10, 1 << 20);
    part.set("small", std::string(64, 's'));
    part.set("large", std::string(4096, 'l'));
    const Tick small_ns = part.get("small").serviceNs;
    const Tick large_ns = part.get("large").serviceNs;
    EXPECT_GT(large_ns, small_ns + 50);
}

TEST(Partition, ScanWalksManyEntries)
{
    Partition part(1 << 10, 1 << 20);
    for (int i = 0; i < 500; ++i)
        part.set(std::string("k").append(std::to_string(i)),
                 std::string(512, 'v'));
    const OpResult res = part.scan(400);
    EXPECT_TRUE(res.hit);
    EXPECT_GE(res.memAccesses, 400u);
    // A long scan costs orders of magnitude more than a GET.
    EXPECT_GT(res.serviceNs, part.get("k1").serviceNs * 100);
}

TEST(MicaStore, ErewPartitioningIsStable)
{
    MicaStore::Config cfg;
    cfg.partitions = 4;
    cfg.keysPerPartition = 100;
    MicaStore store(cfg);
    for (std::uint64_t id = 0; id < 400; ++id)
        EXPECT_EQ(store.partitionOf(id), id % 4);
}

TEST(MicaStore, PopulateThenGetAll)
{
    MicaStore::Config cfg;
    cfg.partitions = 2;
    cfg.keysPerPartition = 200;
    cfg.buckets = 1 << 10;
    cfg.logBytes = 1 << 22;
    MicaStore store(cfg);
    Rng rng(1);
    store.populate(rng);
    unsigned hits = 0;
    for (std::uint64_t id = 0; id < 400; ++id)
        hits += store.executeGet(id).hit ? 1 : 0;
    EXPECT_GT(hits, 390u);
}

TEST(MicaStore, RwServiceTimesAreNanosecondScale)
{
    MicaStore::Config cfg;
    cfg.partitions = 2;
    cfg.keysPerPartition = 100;
    cfg.valueLen = 512;
    MicaStore store(cfg);
    Rng rng(2);
    store.populate(rng);
    const OpResult get = store.executeGet(5);
    const OpResult set = store.executeSet(5, {});
    // Sec. IX-D: GET/SET around ~50 ns with the nanoRPC stack.
    EXPECT_GE(get.serviceNs, 30u);
    EXPECT_LE(get.serviceNs, 120u);
    EXPECT_GE(set.serviceNs, 30u);
    EXPECT_LE(set.serviceNs, 120u);
    // "GETs ... usually taking longer delay than SETs" for equal
    // value sizes once the log read is DRAM-resident.
    EXPECT_GE(get.serviceNs + 20, set.serviceNs);
}

TEST(MicaStore, ScanIsMicrosecondScale)
{
    MicaStore::Config cfg;
    cfg.partitions = 1;
    cfg.keysPerPartition = 3000;
    cfg.scanEntries = 1600;
    cfg.logBytes = 8u << 20;
    MicaStore store(cfg);
    Rng rng(3);
    store.populate(rng);
    const OpResult scan = store.executeScan(0);
    // ~50 us nominal (Sec. IX-D).
    EXPECT_GT(scan.serviceNs, 20 * kUs);
    EXPECT_LT(scan.serviceNs, 120 * kUs);
}

// ---------------------------------------------------------------------
// MicaHandler
// ---------------------------------------------------------------------

namespace {

struct HandlerHarness
{
    MicaStore store;
    MicaHandler handler;
    sim::Simulator sim;
    net::RpcPool pool;
    cpu::Core core0{sim, 1, 1};  // group 0 (per the map below)
    cpu::Core core1{sim, 17, 17}; // group 1

    HandlerHarness()
        : store([] {
              MicaStore::Config cfg;
              cfg.partitions = 2;
              cfg.keysPerPartition = 500;
              return cfg;
          }()),
          handler(
              store, [](unsigned core) { return core / 16; },
              [](unsigned group) { return group * 16; }, 0.005)
    {
        Rng rng(4);
        store.populate(rng);
    }
};

} // namespace

TEST(MicaHandler, SampleRequestSetsHomeGroup)
{
    HandlerHarness h;
    Rng rng(5);
    for (int i = 0; i < 200; ++i) {
        net::WireRpc w;
        h.handler.sampleRequest(w, rng);
        EXPECT_EQ(w.homeGroup, h.store.partitionOf(w.key));
        EXPECT_GT(w.service, 0u);
    }
}

TEST(MicaHandler, ResolveExecutesRealOperation)
{
    HandlerHarness h;
    net::Rpc r;
    r.kind = net::RequestKind::Get;
    r.key = 2; // partition 0, local to core0's group
    r.homeGroup = 0;
    r.service = 50;
    r.remaining = 50;
    h.handler.resolve(r, h.core0);
    EXPECT_EQ(h.handler.gets(), 1u);
    EXPECT_GT(r.service, 0u);
    EXPECT_EQ(r.service, r.remaining);
    EXPECT_EQ(h.handler.remoteExecutions(), 0u);
}

TEST(MicaHandler, RemoteExecutionPaysPenalty)
{
    HandlerHarness h;
    net::Rpc local, remote;
    for (net::Rpc *r : {&local, &remote}) {
        r->kind = net::RequestKind::Get;
        r->key = 2; // partition 0
        r->homeGroup = 0;
        r->service = 50;
        r->remaining = 50;
    }
    h.handler.resolve(local, h.core0);  // same group
    h.handler.resolve(remote, h.core1); // foreign group
    EXPECT_EQ(h.handler.remoteExecutions(), 1u);
    EXPECT_GT(remote.service, local.service);
}

TEST(MicaHandler, NonMicaRequestsUntouched)
{
    HandlerHarness h;
    net::Rpc r;
    r.kind = net::RequestKind::Generic;
    r.service = 777;
    r.remaining = 777;
    h.handler.resolve(r, h.core0);
    EXPECT_EQ(r.service, 777u);
}
