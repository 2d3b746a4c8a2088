/**
 * @file
 * Trace subsystem tests: ring wraparound and drop accounting, the
 * encode/decode round trip (fuzzed by altoc::Rng against a reference
 * merge model), stale/truncated-file rejection in the decoder, and
 * the zero-cost-when-disabled contract of the record path.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "trace/reader.hh"
#include "trace/trace.hh"

using namespace altoc;
using namespace altoc::trace;

// ---------------------------------------------------------------------
// Global allocation counter (the test_event_queue.cc harness): every
// operator new in this binary bumps g_allocs, so a test can assert a
// region of the record path performs zero heap allocations.
// ---------------------------------------------------------------------

namespace {
std::atomic<std::size_t> g_allocs{0};
} // namespace

void *
operator new(std::size_t n)
{
    ++g_allocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

// The nothrow forms must route through the same allocator: libstdc++'s
// stable_sort temporary buffer pairs nothrow new with sized delete,
// and ASan flags the mismatch if only the throwing forms are replaced.
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    ++g_allocs;
    return std::malloc(n ? n : 1);
}

void *
operator new[](std::size_t n, const std::nothrow_t &t) noexcept
{
    return ::operator new(n, t);
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
[[gnu::noinline]] void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
[[gnu::noinline]] void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace {

std::string
tmpPath(const char *name)
{
    return ::testing::TempDir() + "altoc_trace_" + name;
}

bool
sameRecord(const TraceRecord &a, const TraceRecord &b)
{
    return a.tick == b.tick && a.arg == b.arg && a.core == b.core &&
           a.kind == b.kind && a.aux == b.aux;
}

std::vector<char>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
}

void
spit(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

// -------------------------------------------------------------------
// Record layout and helpers
// -------------------------------------------------------------------

TEST(TraceRecordLayout, SixteenBytePod)
{
    static_assert(sizeof(TraceRecord) == 16);
    static_assert(std::is_trivially_copyable_v<TraceRecord>);
    EXPECT_EQ(sizeof(TraceFileHeader), 16u);
    EXPECT_EQ(sizeof(TraceRingHeader), 24u);
}

TEST(TraceRecordLayout, PackRoundTrips)
{
    const std::uint32_t arg = tracePack(37, 12);
    EXPECT_EQ(traceCount(arg), 37u);
    EXPECT_EQ(tracePeer(arg), 12u);
    EXPECT_EQ(traceCount(tracePack(0xffff, 0xffff)), 0xffffu);
    EXPECT_EQ(tracePeer(tracePack(0xffff, 0xffff)), 0xffffu);
}

TEST(TraceRecordLayout, KindNamesRoundTrip)
{
    for (std::size_t k = 0; k < kTraceKindCount; ++k) {
        const auto kind = static_cast<TraceKind>(k);
        EXPECT_EQ(traceKindFromName(traceKindName(kind)), kind);
    }
    EXPECT_EQ(traceKindFromName("NoSuchKind"), TraceKind::Invalid);
    EXPECT_STREQ(traceKindName(static_cast<TraceKind>(200)), "?");
}

// -------------------------------------------------------------------
// Ring semantics: wraparound, drop counter, snapshot order
// -------------------------------------------------------------------

TEST(TraceRing, FillsWithoutDropsUpToCapacity)
{
    Tracer tr(1, 8);
    for (unsigned i = 0; i < 8; ++i)
        tr.record(100 + i, 0, TraceKind::MigrateSend, i);
    EXPECT_EQ(tr.written(0), 8u);
    EXPECT_EQ(tr.dropped(0), 0u);
    EXPECT_EQ(tr.stored(0), 8u);
    const auto snap = tr.snapshot(0);
    ASSERT_EQ(snap.size(), 8u);
    for (unsigned i = 0; i < 8; ++i) {
        EXPECT_EQ(snap[i].tick, 100 + i);
        EXPECT_EQ(snap[i].arg, i);
    }
}

TEST(TraceRing, WraparoundKeepsNewestAndCountsDrops)
{
    Tracer tr(1, 8);
    for (unsigned i = 0; i < 20; ++i)
        tr.record(i, 0, TraceKind::ThresholdRecompute, i);
    EXPECT_EQ(tr.written(0), 20u);
    EXPECT_EQ(tr.dropped(0), 12u);
    EXPECT_EQ(tr.stored(0), 8u);
    const auto snap = tr.snapshot(0);
    ASSERT_EQ(snap.size(), 8u);
    // The 12 oldest records were overwritten; 12..19 remain in order.
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(snap[i].arg, 12 + i);
    EXPECT_EQ(tr.totalWritten(), 20u);
    EXPECT_EQ(tr.totalDropped(), 12u);
}

TEST(TraceRing, RingsAreIndependent)
{
    Tracer tr(3, 4);
    tr.record(1, 0, TraceKind::MigrateSend, 0);
    tr.record(2, 2, TraceKind::MigrateAck, 0);
    tr.record(3, 2, TraceKind::MigrateAck, 1);
    EXPECT_EQ(tr.written(0), 1u);
    EXPECT_EQ(tr.written(1), 0u);
    EXPECT_EQ(tr.written(2), 2u);
}

TEST(TraceRing, OutOfRangeCoreIsDroppedSilently)
{
    Tracer tr(2, 4);
    tr.record(1, 7, TraceKind::MigrateSend, 0);
    EXPECT_EQ(tr.totalWritten(), 0u);
}

TEST(TraceRing, DisabledTracerWritesNothing)
{
    Tracer tr(1, 4);
    tr.setEnabled(false);
    tr.record(1, 0, TraceKind::MigrateSend, 0);
    EXPECT_EQ(tr.written(0), 0u);
    tr.setEnabled(true);
    tr.record(2, 0, TraceKind::MigrateSend, 0);
    EXPECT_EQ(tr.written(0), 1u);
}

TEST(TraceRing, ResetForgetsRecordsKeepsStorage)
{
    Tracer tr(1, 4);
    for (unsigned i = 0; i < 9; ++i)
        tr.record(i, 0, TraceKind::MigrateSend, i);
    tr.reset();
    EXPECT_EQ(tr.written(0), 0u);
    EXPECT_EQ(tr.dropped(0), 0u);
    EXPECT_TRUE(tr.snapshot(0).empty());
}

TEST(TraceRing, HookMacroToleratesNullTracer)
{
    // Unused when the hook compiles away (ALTOC_TRACE=OFF).
    [[maybe_unused]] Tracer *tr = nullptr;
    ALTOC_TRACE_HOOK(tr, record(1, 0, TraceKind::MigrateSend, 0));
    SUCCEED();
}

// -------------------------------------------------------------------
// Zero-cost-when-disabled: the record path allocates nothing, and a
// disabled tracer performs no ring writes either.
// -------------------------------------------------------------------

TEST(TraceOverhead, RecordPathDoesNotAllocate)
{
    Tracer tr(4, 64);
    const std::size_t before = g_allocs.load();
    for (unsigned i = 0; i < 10000; ++i)
        tr.record(i, i % 4, TraceKind::ThresholdRecompute, i);
    EXPECT_EQ(g_allocs.load(), before)
        << "Tracer::record allocated on the hot path";
    EXPECT_EQ(tr.totalWritten(), 10000u);
}

TEST(TraceOverhead, DisabledTracerNeitherAllocatesNorWrites)
{
    Tracer tr(4, 64);
    tr.setEnabled(false);
    const std::size_t before = g_allocs.load();
    for (unsigned i = 0; i < 10000; ++i)
        tr.record(i, i % 4, TraceKind::MigrateSend, i);
    EXPECT_EQ(g_allocs.load(), before);
    EXPECT_EQ(tr.totalWritten(), 0u);
    EXPECT_EQ(tr.totalDropped(), 0u);
}

// -------------------------------------------------------------------
// Encode/decode round trip
// -------------------------------------------------------------------

TEST(TraceFile, EmptyTracerRoundTrips)
{
    const std::string path = tmpPath("empty.trace");
    Tracer tr(3, 16);
    ASSERT_TRUE(tr.writeFile(path));

    TraceFileImage image;
    ASSERT_EQ(readTraceFile(path, image), TraceReadStatus::Ok);
    ASSERT_EQ(image.rings.size(), 3u);
    for (unsigned i = 0; i < 3; ++i) {
        EXPECT_EQ(image.rings[i].core, i);
        EXPECT_EQ(image.rings[i].written, 0u);
        EXPECT_TRUE(image.rings[i].records.empty());
    }
    EXPECT_TRUE(mergeTimeline(image).empty());
    std::remove(path.c_str());
}

TEST(TraceFile, WrappedRingRoundTripsOldestFirst)
{
    const std::string path = tmpPath("wrapped.trace");
    Tracer tr(2, 8);
    for (unsigned i = 0; i < 20; ++i)
        tr.record(i, 0, TraceKind::MigrateSend, i);
    tr.record(5, 1, TraceKind::MigrateArrive, tracePack(3, 0));
    ASSERT_TRUE(tr.writeFile(path));

    TraceFileImage image;
    ASSERT_EQ(readTraceFile(path, image), TraceReadStatus::Ok);
    ASSERT_EQ(image.rings.size(), 2u);
    EXPECT_EQ(image.rings[0].written, 20u);
    EXPECT_EQ(image.rings[0].dropped, 12u);
    ASSERT_EQ(image.rings[0].records.size(), 8u);
    const auto snap = tr.snapshot(0);
    for (std::size_t i = 0; i < snap.size(); ++i)
        EXPECT_TRUE(sameRecord(image.rings[0].records[i], snap[i]));
    ASSERT_EQ(image.rings[1].records.size(), 1u);
    EXPECT_EQ(tracePeer(image.rings[1].records[0].arg), 0u);
    EXPECT_EQ(image.totalWritten(), 21u);
    EXPECT_EQ(image.totalDropped(), 12u);
    std::remove(path.c_str());
}

TEST(TraceFile, WriteIsByteDeterministic)
{
    const std::string a = tmpPath("det_a.trace");
    const std::string b = tmpPath("det_b.trace");
    Tracer tr(2, 8);
    for (unsigned i = 0; i < 12; ++i)
        tr.record(i, i % 2, TraceKind::ThresholdRecompute, i);
    ASSERT_TRUE(tr.writeFile(a));
    ASSERT_TRUE(tr.writeFile(b));
    EXPECT_EQ(slurp(a), slurp(b));
    std::remove(a.c_str());
    std::remove(b.c_str());
}

// -------------------------------------------------------------------
// Fuzzed round trip: 4-ary merge order matches the reference model
// (stable sort by tick of the core-ordered concatenation).
// -------------------------------------------------------------------

TEST(TraceFileProperty, FuzzedMergeMatchesReferenceModel)
{
    Rng rng(0xACE5);
    for (unsigned round = 0; round < 30; ++round) {
        const std::string path = tmpPath("fuzz.trace");
        constexpr unsigned kRings = 4;
        const std::size_t slots = 16 + rng.next() % 64;
        Tracer tr(kRings, slots);

        // Per-ring monotone tick streams (the simulator only moves
        // forward), random kinds/payloads, random lengths -- some
        // rings wrap, some stay short, some stay empty.
        for (unsigned core = 0; core < kRings; ++core) {
            const std::size_t n = rng.next() % (2 * slots);
            Tick tick = rng.next() % 100;
            for (std::size_t i = 0; i < n; ++i) {
                tick += rng.next() % 8;
                const auto kind = static_cast<TraceKind>(
                    1 + rng.next() % (kTraceKindCount - 1));
                tr.record(tick, core,
                          kind, static_cast<std::uint32_t>(rng.next()),
                          static_cast<std::uint8_t>(rng.next()));
            }
        }
        ASSERT_TRUE(tr.writeFile(path));

        TraceFileImage image;
        ASSERT_EQ(readTraceFile(path, image), TraceReadStatus::Ok);

        // Reference model: concatenate rings in core order, stable
        // sort by tick. The k-way merge must agree exactly.
        std::vector<TraceRecord> expected;
        for (const TraceRingImage &ring : image.rings)
            expected.insert(expected.end(), ring.records.begin(),
                            ring.records.end());
        std::stable_sort(expected.begin(), expected.end(),
                         [](const TraceRecord &a, const TraceRecord &b) {
                             return a.tick < b.tick;
                         });

        const std::vector<TraceRecord> merged = mergeTimeline(image);
        ASSERT_EQ(merged.size(), expected.size());
        for (std::size_t i = 0; i < merged.size(); ++i) {
            ASSERT_TRUE(sameRecord(merged[i], expected[i]))
                << "round " << round << " diverges at record " << i;
        }

        // Decoded counters agree with the writer.
        for (unsigned core = 0; core < kRings; ++core) {
            EXPECT_EQ(image.rings[core].written, tr.written(core));
            EXPECT_EQ(image.rings[core].dropped, tr.dropped(core));
        }
        std::remove(path.c_str());
    }
}

// -------------------------------------------------------------------
// Decoder rejection: missing, stale and truncated files
// -------------------------------------------------------------------

class TraceReject : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // One file per case: ctest runs the cases as concurrent
        // processes.
        const std::string name =
            std::string("reject_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".trace";
        path_ = tmpPath(name.c_str());
        Tracer tr(2, 8);
        for (unsigned i = 0; i < 6; ++i)
            tr.record(i, i % 2, TraceKind::MigrateSend,
                      tracePack(1, 1 - i % 2));
        ASSERT_TRUE(tr.writeFile(path_));
        bytes_ = slurp(path_);
        ASSERT_GT(bytes_.size(), sizeof(TraceFileHeader));
    }

    void TearDown() override { std::remove(path_.c_str()); }

    TraceReadStatus
    decode()
    {
        TraceFileImage image;
        const TraceReadStatus st = readTraceFile(path_, image);
        if (st != TraceReadStatus::Ok) {
            EXPECT_TRUE(image.rings.empty())
                << "failed decode must not leak partial state";
        }
        return st;
    }

    std::string path_;
    std::vector<char> bytes_;
};

TEST_F(TraceReject, MissingFileIsOpenFailed)
{
    std::remove(path_.c_str());
    EXPECT_EQ(decode(), TraceReadStatus::OpenFailed);
}

TEST_F(TraceReject, BadMagicIsRejected)
{
    bytes_[0] = 'X';
    spit(path_, bytes_);
    EXPECT_EQ(decode(), TraceReadStatus::BadMagic);
}

TEST_F(TraceReject, StaleVersionIsRejected)
{
    // version lives at offset 4 (uint16 after the magic).
    bytes_[4] = static_cast<char>(kTraceVersion + 1);
    spit(path_, bytes_);
    EXPECT_EQ(decode(), TraceReadStatus::BadVersion);
}

TEST_F(TraceReject, WrongRecordSizeIsRejected)
{
    // recordSize lives at offset 6.
    bytes_[6] = 8;
    spit(path_, bytes_);
    EXPECT_EQ(decode(), TraceReadStatus::BadVersion);
}

TEST_F(TraceReject, TruncatedHeaderIsRejected)
{
    bytes_.resize(sizeof(TraceFileHeader) - 3);
    spit(path_, bytes_);
    EXPECT_EQ(decode(), TraceReadStatus::Truncated);
}

TEST_F(TraceReject, TruncatedRingIsRejected)
{
    bytes_.resize(bytes_.size() - 7);
    spit(path_, bytes_);
    EXPECT_EQ(decode(), TraceReadStatus::Truncated);
}

TEST_F(TraceReject, EmptyFileIsRejected)
{
    spit(path_, {});
    EXPECT_EQ(decode(), TraceReadStatus::Truncated);
}

TEST_F(TraceReject, InvalidKindIsRejected)
{
    // First record of ring 0 sits right after the file and ring
    // headers; its kind byte is at offset +14 within the record.
    const std::size_t rec0 =
        sizeof(TraceFileHeader) + sizeof(TraceRingHeader);
    bytes_[rec0 + 14] = 0;
    spit(path_, bytes_);
    EXPECT_EQ(decode(), TraceReadStatus::BadRecord);
}

TEST_F(TraceReject, TrailingGarbageIsRejected)
{
    bytes_.push_back('z');
    spit(path_, bytes_);
    EXPECT_EQ(decode(), TraceReadStatus::BadRecord);
}

TEST_F(TraceReject, InconsistentRingHeaderIsRejected)
{
    // stored (offset +4 in the ring header) larger than written.
    const std::size_t ring0 = sizeof(TraceFileHeader);
    std::uint32_t stored = 0;
    std::memcpy(&stored, bytes_.data() + ring0 + 4, sizeof(stored));
    stored += 100;
    std::memcpy(bytes_.data() + ring0 + 4, &stored, sizeof(stored));
    spit(path_, bytes_);
    EXPECT_EQ(decode(), TraceReadStatus::BadRecord);
}

// -------------------------------------------------------------------
// Timeline validation semantics
// -------------------------------------------------------------------

TEST(TraceValidate, CleanMigrationTimelinePasses)
{
    std::vector<TraceRecord> tl;
    tl.push_back({10, tracePack(4, 1), 0,
                  static_cast<std::uint8_t>(TraceKind::MigrateSend), 0});
    tl.push_back({25, tracePack(4, 0), 1,
                  static_cast<std::uint8_t>(TraceKind::MigrateArrive), 0});
    tl.push_back({40, tracePack(4, 1), 0,
                  static_cast<std::uint8_t>(TraceKind::MigrateAck), 0});
    std::vector<std::string> errors;
    EXPECT_TRUE(validateTimeline(tl, errors)) << errors.front();
}

TEST(TraceValidate, AckBeforeSendFails)
{
    std::vector<TraceRecord> tl;
    tl.push_back({10, tracePack(4, 1), 0,
                  static_cast<std::uint8_t>(TraceKind::MigrateAck), 0});
    std::vector<std::string> errors;
    EXPECT_FALSE(validateTimeline(tl, errors));
    EXPECT_EQ(errors.size(), 1u);
}

TEST(TraceValidate, ProbeWithoutEnterFails)
{
    std::vector<TraceRecord> tl;
    tl.push_back({10, tracePack(1, 2), 0,
                  static_cast<std::uint8_t>(TraceKind::QuarantineProbe),
                  0});
    std::vector<std::string> errors;
    EXPECT_FALSE(validateTimeline(tl, errors));
}

TEST(TraceValidate, QuarantineLifecyclePasses)
{
    std::vector<TraceRecord> tl;
    tl.push_back({10, tracePack(2, 3), 0,
                  static_cast<std::uint8_t>(TraceKind::QuarantineEnter),
                  0});
    tl.push_back({60, tracePack(1, 3), 0,
                  static_cast<std::uint8_t>(TraceKind::QuarantineProbe),
                  0});
    tl.push_back({80, tracePack(0, 3), 0,
                  static_cast<std::uint8_t>(TraceKind::QuarantineRejoin),
                  0});
    std::vector<std::string> errors;
    EXPECT_TRUE(validateTimeline(tl, errors)) << errors.front();
}

TEST(TraceValidate, UnsortedTimelineFails)
{
    std::vector<TraceRecord> tl;
    tl.push_back({50, 0, 0,
                  static_cast<std::uint8_t>(TraceKind::ManagerStall), 0});
    tl.push_back({10, 0, 0,
                  static_cast<std::uint8_t>(TraceKind::ManagerStall), 0});
    std::vector<std::string> errors;
    EXPECT_FALSE(validateTimeline(tl, errors));
}

TEST(TraceValidate, SummaryCountsAndRanges)
{
    std::vector<TraceRecord> tl;
    tl.push_back({10, 7, 0,
                  static_cast<std::uint8_t>(TraceKind::ThresholdRecompute),
                  0});
    tl.push_back({20, 9, 0,
                  static_cast<std::uint8_t>(TraceKind::ThresholdRecompute),
                  0});
    tl.push_back({15, tracePack(1, 1), 0,
                  static_cast<std::uint8_t>(TraceKind::MigrateSend), 0});
    const auto sums = summarize(tl);
    const auto &th =
        sums[static_cast<std::size_t>(TraceKind::ThresholdRecompute)];
    EXPECT_EQ(th.count, 2u);
    EXPECT_EQ(th.first, 10u);
    EXPECT_EQ(th.last, 20u);
    const auto &send =
        sums[static_cast<std::size_t>(TraceKind::MigrateSend)];
    EXPECT_EQ(send.count, 1u);
}

} // namespace
