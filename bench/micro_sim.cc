/**
 * @file
 * google-benchmark micro benches for the simulation substrate and
 * the MICA data structures: event-queue throughput, NoC message
 * timing, descriptor pooling and KVS ops.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "bench_util.hh"
#include "common/rng.hh"
#include "mica/kvs.hh"
#include "net/rpc.hh"
#include "noc/mesh.hh"
#include "sim/kernel.hh"
#include "sim/simulator.hh"

using namespace altoc;

// The BM_Event* group is the checked-in kernel baseline
// (BENCH_kernel.json, compared by scripts/bench_compare.py). The
// steady-state schedule/dispatch path performs zero heap allocations
// by construction -- InlineFn callbacks live in the slot pool, whose
// storage is fixed once warm (enforced by
// tests/test_event_queue.cc:EventHotPath.*).

static void
BM_EventScheduleRun(benchmark::State &state)
{
    sim::Simulator sim;
    Tick t = 1;
    for (auto _ : state) {
        sim.at(t, [] {});
        sim.step();
        ++t;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventScheduleRun);

static void
BM_EventQueueDepth(benchmark::State &state)
{
    // Sustained operation with a deep queue. Every event is due
    // `depth` ticks ahead: /1024 inside the timing wheel's 2,048-tick
    // window, /65536 far past it, in the overflow heap.
    const unsigned depth = static_cast<unsigned>(state.range(0));
    sim::Simulator sim;
    Tick t = 1;
    for (unsigned i = 0; i < depth; ++i)
        sim.at(t++, [] {});
    for (auto _ : state) {
        sim.at(t++, [] {});
        sim.step();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueDepth)->Arg(1024)->Arg(65536);

namespace {

/** Ticks the hold models' near delays stay below: NoC hops, runtime
 *  periods and sub-us service. Fixed, so the models do not change
 *  with the event queue's wheel span. */
constexpr Tick kNearDelays = 1024;

/** The default rack link's delivery delay: 1 us of latency plus
 *  24 ns to serialize a 300-byte request at 100 Gb/s. */
constexpr Tick kTorDelivery = 1 * kUs + 24 * kNs;

/** The hold models' cycled table of successor delays. */
struct HoldDelays
{
    /** Power of two, so the cycle index masks. */
    static constexpr std::size_t kDelays = 4096;

    std::vector<Tick> delays;
    std::size_t next = 0;

    HoldDelays() : delays(kDelays)
    {
        // The mix the simulator's workloads schedule: 99.8% of events
        // land within ~1 us (NoC hops, runtime periods, sub-us
        // service), the rest tens of us out (long services, timers).
        Rng rng(7);
        for (Tick &d : delays) {
            d = rng.chance(0.998) ? rng.below(kNearDelays)
                                  : rng.range(10 * kUs, 50 * kUs);
        }
    }

    Tick nextDelay() { return delays[next++ & (kDelays - 1)]; }
};

/** Host state of the hold model: its simulator and its delays. */
struct HoldModel
{
    sim::Simulator sim;
    HoldDelays delays;

    Tick nextDelay() { return delays.nextDelay(); }
};

/** One hold-model event: it schedules its own successor. */
struct HoldEvent
{
    HoldModel *m;

    void operator()() const { m->sim.after(m->nextDelay(), HoldEvent{m}); }
};

} // namespace

static void
BM_EventHold(benchmark::State &state)
{
    // The classic hold model: N events pending, and each dispatch
    // schedules one successor, so the queue holds N throughout.
    HoldModel m;
    for (std::int64_t i = 0; i < state.range(0); ++i)
        m.sim.after(m.nextDelay(), HoldEvent{&m});
    for (auto _ : state)
        benchmark::DoNotOptimize(m.sim.step());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventHold)->Arg(16)->Arg(512);

namespace {

/** The hold model spread over the regions of one kernel: each event
 *  schedules its successor in its own region, except that with more
 *  than one region one successor in six crosses to the next region
 *  kTorDelivery ticks out, as a ToR delivery does. */
struct RegionHoldModel
{
    sim::Kernel kernel;
    HoldDelays delays;
    std::uint64_t successors = 0;

    explicit RegionHoldModel(unsigned regions)
    {
        for (unsigned r = 0; r < regions; ++r)
            kernel.addRegion();
    }
};

/** One region-hold event of region @p r. */
struct RegionHoldEvent
{
    RegionHoldModel *m;
    unsigned r;

    void
    operator()() const
    {
        sim::Kernel &k = m->kernel;
        const unsigned n = k.numRegions();
        if (n > 1 && ++m->successors % 6 == 0) {
            const unsigned dst = (r + 1) % n;
            k.crossSchedule(r, dst, k.region(r).now() + kTorDelivery,
                            RegionHoldEvent{m, dst});
            return;
        }
        k.region(r).after(m->delays.nextDelay(), RegionHoldEvent{m, r});
    }
};

} // namespace

static void
BM_EventRegions(benchmark::State &state)
{
    // BM_EventHold/512 over N kernel regions, driven through
    // Kernel::run in 1-us slices: the rack's one-queue path against
    // the single-region one.
    constexpr Tick kSlice = 1 * kUs;
    RegionHoldModel m(static_cast<unsigned>(state.range(0)));
    for (unsigned i = 0; i < 512; ++i) {
        const unsigned r = i % m.kernel.numRegions();
        m.kernel.region(r).after(m.delays.nextDelay(),
                                 RegionHoldEvent{&m, r});
    }
    Tick until = 0;
    const std::uint64_t before = m.kernel.eventsExecuted();
    for (auto _ : state) {
        until += kSlice;
        benchmark::DoNotOptimize(m.kernel.run(until));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(m.kernel.eventsExecuted() - before));
}
BENCHMARK(BM_EventRegions)->Arg(1)->Arg(17);

static void
BM_EventScheduleCancel(benchmark::State &state)
{
    // The timeout pattern of the hardened migration protocol: almost
    // every armed deadline is cancelled before it fires. Exercises
    // slot-pool recycling plus the >=50%-dead heap compaction.
    sim::Simulator sim;
    Tick t = 1;
    for (auto _ : state) {
        const sim::EventId id = sim.at(t + 1000, [] {});
        sim.cancel(id);
        ++t;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventScheduleCancel);

static void
BM_RpcPoolAllocRelease(benchmark::State &state)
{
    net::RpcPool pool;
    for (auto _ : state) {
        net::Rpc *r = pool.alloc();
        benchmark::DoNotOptimize(r);
        pool.release(r);
    }
}
BENCHMARK(BM_RpcPoolAllocRelease);

static void
BM_MeshSend(benchmark::State &state)
{
    noc::Mesh mesh(16, 16);
    Tick t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            mesh.send(noc::kVnSched, 0, 255, 64, t));
        t += 10;
    }
}
BENCHMARK(BM_MeshSend);

static void
BM_MicaGet(benchmark::State &state)
{
    mica::MicaStore::Config cfg;
    cfg.partitions = 1;
    cfg.keysPerPartition = 10000;
    mica::MicaStore store(cfg);
    Rng rng(1);
    store.populate(rng);
    std::uint64_t key = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(store.executeGet(key));
        key = (key + 7919) % 10000;
    }
}
BENCHMARK(BM_MicaGet);

static void
BM_MicaSet(benchmark::State &state)
{
    mica::MicaStore::Config cfg;
    cfg.partitions = 1;
    cfg.keysPerPartition = 10000;
    mica::MicaStore store(cfg);
    Rng rng(2);
    store.populate(rng);
    std::uint64_t key = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(store.executeSet(key, {}));
        key = (key + 104729) % 10000;
    }
}
BENCHMARK(BM_MicaSet);

static void
BM_HashTableFind(benchmark::State &state)
{
    mica::HashTable ht(1 << 16);
    for (std::uint64_t i = 0; i < 40000; ++i)
        ht.insert(mica::hashKey("key" + std::to_string(i)), i);
    std::uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            ht.find(mica::hashKey("key" + std::to_string(i))));
        i = (i + 6151) % 40000;
    }
}
BENCHMARK(BM_HashTableFind);

// BENCHMARK_MAIN() with the --json shorthand of the perf-regression
// harness expanded first (see bench_util.hh:JsonFlagArgs).
int
main(int argc, char **argv)
{
    bench::JsonFlagArgs args(argc, argv);
    benchmark::Initialize(&args.argc(), args.argv());
    if (benchmark::ReportUnrecognizedArguments(args.argc(), args.argv()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
