/**
 * @file
 * Host-cost benchmark binary: how much host time and memory the
 * simulator spends per simulated request, end to end and layer by
 * layer. bench/perf/run.py builds this binary, runs it, checks its
 * outputs and aggregates the numbers; see bench/perf/README.md.
 *
 * One process makes one call, as a user runs one simulation per
 * process; run.py starts as many as a run has time for. Modes:
 *
 *   e2e     runExperiment(cfg, spec) with nothing traced: wall, host
 *           CPU, peak RSS and the simulated identity fields.
 *   setup   Rack(cfg, spec) + Rack::reserveFor(total), the set-up
 *           runExperiment performs.
 *   traced  the same workload driven through the public system::Rack
 *           API with the bench's own copy of the load generator,
 *           timing the bench's calls into each layer and reading each
 *           layer's public counters. It must reproduce runExperiment's
 *           fingerprint, completion count and percentiles.
 *
 * The result is one JSON object on stdout; the library's own log
 * lines go to stderr.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "common/fingerprint.hh"
#include "common/logging.hh"
#include "core/group.hh"
#include "sim/fault_injector.hh"
#include "sim/fault_spec.hh"
#include "system/experiment.hh"
#include "system/rack.hh"
#include "workload/arrivals.hh"
#include "workload/distributions.hh"

using namespace altoc;
using namespace altoc::system;

namespace {

using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
nanos(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

struct Workload
{
    DesignConfig cfg;
    WorkloadSpec spec;
};

/** The Fig. 10 bimodal mix: 99.5% x 0.5 us, 0.5% x 50 us. */
std::shared_ptr<workload::ServiceDist>
fig10Mix()
{
    return std::make_shared<workload::BimodalDist>(0.005, 500, 50 * kUs);
}

std::uint64_t
scaledRequests(std::uint64_t n, double scale)
{
    return std::max<std::uint64_t>(
        1000, static_cast<std::uint64_t>(static_cast<double>(n) * scale));
}

/**
 * The four workloads. Why each exists is recorded in README.md. The
 * request counts are per simulation call, sized so one call takes
 * ~150 ms of host time: a run of a few seconds then holds enough
 * calls for its median to ride out bursts of host interference.
 */
Workload
makeWorkload(const std::string &name, std::uint64_t seed, double scale)
{
    Workload w;
    DesignConfig &cfg = w.cfg;
    WorkloadSpec &spec = w.spec;
    spec.seed = seed;
    if (name == "rss16_fig10") {
        cfg.design = Design::Rss;
        cfg.cores = 16;
        spec.service = fig10Mix();
        spec.rateMrps = 10.0;
        spec.requests = scaledRequests(500000, scale);
        spec.sloAbsolute = 300 * kUs;
    } else if (name == "ac256_fig11") {
        cfg.design = Design::AcInt;
        cfg.cores = 256;
        cfg.groups = 16;
        cfg.lineRateGbps = 1600.0;
        cfg.params.period = 200;
        cfg.params.bulk = 16;
        cfg.params.concurrency = 8;
        spec.service =
            std::make_shared<workload::BimodalDist>(0.005, 500, 26 * kUs);
        spec.rateMrps = 350.0;
        spec.requests = scaledRequests(150000, scale);
        spec.requestBytes = 64;
        spec.connections = 256;
        spec.sloFactor = 10.0;
    } else if (name == "rack16_p2c") {
        cfg.design = Design::AcInt;
        cfg.cores = 16;
        cfg.groups = 2;
        cfg.rack.servers = 16;
        cfg.rack.policy = TorPolicy::PowerOfK;
        cfg.shards = 2;
        spec.service = fig10Mix();
        spec.rateMrps = 160.0;
        spec.requests = scaledRequests(150000, scale);
        spec.sloAbsolute = 300 * kUs;
    } else if (name == "acrss16_lossy") {
        cfg.design = Design::AcRss;
        cfg.cores = 16;
        cfg.groups = 4;
        spec.service = fig10Mix();
        spec.rateMrps = 8.0;
        spec.requests = scaledRequests(150000, scale);
        spec.connections = 8;
        spec.sloAbsolute = 300 * kUs;
        spec.faults = sim::FaultSpec::parse("drop=0.02,dup=0.01");
        spec.faults.seed = seed;
        // Twice the nominal duration: a lost MIGRATE the protocol
        // fails to recover must end the run, not spin it forever.
        const double nominal_ns = static_cast<double>(spec.requests) /
                                  (spec.rateMrps * 1e-3);
        spec.timeLimit = static_cast<Tick>(2.0 * nominal_ns);
    } else {
        fatal("unknown workload '%s' (rss16_fig10, ac256_fig11, "
              "rack16_p2c, acrss16_lossy)",
              name.c_str());
    }
    return w;
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

/** One JSON object per stdout line. */
class JsonLine
{
  public:
    explicit JsonLine(const char *kind) { str("kind", kind); }

    JsonLine &
    num(const char *key, double v)
    {
        return raw(key, detail::vformat("%.17g", v));
    }

    JsonLine &
    u64(const char *key, std::uint64_t v)
    {
        return raw(key, detail::vformat(
                            "%llu", static_cast<unsigned long long>(v)));
    }

    JsonLine &
    str(const char *key, const std::string &v)
    {
        return raw(key, "\"" + v + "\"");
    }

    JsonLine &
    hex(const char *key, std::uint64_t v)
    {
        return str(key, detail::vformat(
                            "%016llx", static_cast<unsigned long long>(v)));
    }

    void
    emit() const
    {
        std::printf("{%s}\n", body_.c_str());
        std::fflush(stdout);
    }

  private:
    JsonLine &
    raw(const char *key, const std::string &value)
    {
        if (!body_.empty())
            body_ += ", ";
        body_ += "\"" + std::string(key) + "\": " + value;
        return *this;
    }

    std::string body_;
};

double
hostCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/** Resident set size now, from /proc/self/statm (0 if unreadable). */
double
residentBytes()
{
    std::FILE *f = std::fopen("/proc/self/statm", "r");
    if (f == nullptr)
        return 0.0;
    unsigned long long size = 0;
    unsigned long long resident = 0;
    const int got = std::fscanf(f, "%llu %llu", &size, &resident);
    std::fclose(f);
    if (got != 2)
        return 0.0;
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE));
}

/** The simulated outputs the traced and untraced calls must agree on. */
void
addIdentity(JsonLine &line, std::uint64_t fingerprint,
            std::uint64_t fp_events, std::uint64_t completed,
            const stats::Summary &lat, double violation_ratio,
            double achieved_mrps)
{
    line.hex("fingerprint", fingerprint)
        .u64("fp_events", fp_events)
        .u64("completed", completed)
        .u64("p50_ns", lat.p50)
        .u64("p99_ns", lat.p99)
        .u64("p999_ns", lat.p999)
        .num("violation_ratio", violation_ratio)
        .num("achieved_mrps", achieved_mrps);
}

// ---------------------------------------------------------------------
// End-to-end and set-up calls
// ---------------------------------------------------------------------

volatile std::uint64_t sink = 0;

/** Make @p v observable so the computation behind it is not elided. */
void
keep(std::uint64_t v)
{
    sink = v;
}

/**
 * Two untouched heap blocks of pseudo-random size, allocated before a
 * process's one call, so the call's own allocations land at shifted
 * addresses. Host time on rss16_fig10 moves by ~15% between heap
 * layouts, and without a pad every process of one build gets the same
 * layout: lucky for one commit, unlucky for the next. A different pad
 * per call makes a run's median an average over layouts.
 */
class LayoutPad
{
  public:
    explicit LayoutPad(Rng &rng)
        : small_(std::malloc(16 * (1 + rng.below(4096)))),
          large_(std::malloc(4096 * (1 + rng.below(64)) + 200000))
    {
        // An unused malloc/free pair may be elided.
        keep(reinterpret_cast<std::uintptr_t>(small_));
        keep(reinterpret_cast<std::uintptr_t>(large_));
    }


    ~LayoutPad()
    {
        std::free(small_);
        std::free(large_);
    }

    LayoutPad(const LayoutPad &) = delete;
    LayoutPad &operator=(const LayoutPad &) = delete;

  private:
    void *small_;
    void *large_;
};

/**
 * A fixed kernel of bench-only code, timed in every end-to-end process
 * just before its simulation: 400K pop/push pairs on a binary heap of
 * 4096 keys. Like the simulator's event loop it is branchy and
 * cache-resident, so it slows with the simulator when other tenants
 * share the host's cores (by up to ~10% over minutes on the recording
 * host); run.py divides it out. Its own xorshift stream keeps it
 * independent of the simulator's code. Returns milliseconds.
 */
double
referenceMs()
{
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    const Clock::time_point t0 = Clock::now();
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<>>
        heap;
    for (int i = 0; i < 4096; ++i)
        heap.push(next() >> 16);
    for (int i = 0; i < 400000; ++i) {
        const std::uint64_t top = heap.top();
        heap.pop();
        heap.push(top + (next() & 0xffff));
    }
    const Clock::time_point t1 = Clock::now();
    keep(heap.top());
    return nanos(t0, t1) * 1e-6;
}

/** One runExperiment call, nothing traced inside it. */
void
e2eCall(const Workload &w)
{
    const double ref_ms = referenceMs();
    const double cpu0 = hostCpuSeconds();
    const Clock::time_point t0 = Clock::now();
    const RunResult r = runExperiment(w.cfg, w.spec);
    const Clock::time_point t1 = Clock::now();
    const double cpu1 = hostCpuSeconds();

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    JsonLine line("e2e");
    line.num("wall_s", seconds(t0, t1))
        .num("cpu_s", cpu1 - cpu0)
        .num("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0)
        .num("ref_ms", ref_ms)
        .u64("seed", w.spec.seed)
        .u64("requests", w.spec.requests)
        .u64("shed", r.requestsShed)
        .u64("tor_shed", r.torShed);
    addIdentity(line, r.fingerprint, r.fingerprintEvents, r.completed,
                r.latency, r.violationRatio, r.achievedMrps);
    line.emit();
}

/** The set-up runExperiment performs, timed alone. */
void
setupCall(const Workload &w)
{
    const Clock::time_point t0 = Clock::now();
    auto rack = std::make_unique<Rack>(w.cfg, w.spec);
    rack->reserveFor(w.spec.requests);
    const Clock::time_point t1 = Clock::now();
    rack.reset();
    JsonLine("setup").num("setup_s", seconds(t0, t1)).emit();
}

// ---------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------

/** Time 1 call in 32; the rest run untimed. */
constexpr std::uint64_t kSampleMask = 31;

/** Completions between samples of the queue-depth gauges. */
constexpr std::uint64_t kGaugeMask = 4095;

/** Accumulates sampled per-call spans. */
struct SampledSpan
{
    std::uint64_t calls = 0;
    std::uint64_t samples = 0;
    double rawNs = 0.0;

    /** Mean of the sampled spans minus @p intervals empty spans. */
    double
    netNs(double empty_ns, unsigned intervals = 1) const
    {
        if (samples == 0)
            return 0.0;
        return rawNs / static_cast<double>(samples) -
               empty_ns * intervals;
    }

    /** Estimated total over every call, clock cost excluded. */
    double
    totalNs(double empty_ns, unsigned intervals = 1) const
    {
        return netNs(empty_ns, intervals) * static_cast<double>(calls);
    }
};

/** Everything the traced run's hooks and generator touch; the hooks
 *  capture one pointer to it (the inline callback budget is small). */
struct TraceState
{
    Rack *rack = nullptr;
    std::uint64_t warmup = 0;
    stats::SloTracker tracker;
    Fnv1a fp;
    std::uint64_t fpEvents = 0;
    std::uint64_t seen = 0;
    std::uint64_t completions = 0;
    bool gauges = true; //!< false under sharding (cross-region reads)
    std::size_t pendingMax = 0;
    std::size_t queuedMax = 0;
    SampledSpan pick;
    SampledSpan sample; //!< two intervals per sample
    SampledSpan deliver;
    SampledSpan record;
    double gaugeNs = 0.0;
    std::uint64_t clockReads = 0;

    explicit TraceState(Tick slo, bool log) : tracker(slo, log) {}

    Clock::time_point
    stamp()
    {
        ++clockReads;
        return Clock::now();
    }

    void
    recordLatency(Tick latency)
    {
        if ((record.calls++ & kSampleMask) != 0) {
            tracker.record(latency);
            return;
        }
        const Clock::time_point a = stamp();
        tracker.record(latency);
        const Clock::time_point b = stamp();
        record.rawNs += nanos(a, b);
        ++record.samples;
    }

    /** Sample the kernel-wide pending-event and scheduler-queue
     *  gauges every kGaugeMask + 1 completions. */
    void
    noteCompletion()
    {
        if (!gauges || (++completions & kGaugeMask) != 0)
            return;
        // Its clock reads are part of gaugeNs, not clockReads.
        const Clock::time_point a = Clock::now();
        std::size_t pending = 0;
        for (unsigned r = 0; r < rack->kernel().numRegions(); ++r)
            pending += rack->kernel().region(r).pendingEvents();
        std::size_t queued = 0;
        for (unsigned s = 0; s < rack->numServers(); ++s)
            queued += rack->server(s).scheduler().totalQueued();
        pendingMax = std::max(pendingMax, pending);
        queuedMax = std::max(queuedMax, queued);
        gaugeNs += nanos(a, Clock::now());
    }
};

/**
 * The bench's own open-loop generator. Its field-fill and RNG-draw
 * order is the program's (system/rack.cc RackLoadGenerator, itself
 * the LoadGenerator order), so a traced run consumes the identical
 * random stream; the timed spans wrap the calls into each layer.
 */
class TracedGenerator
{
  public:
    TracedGenerator(TraceState &st, const WorkloadSpec &spec)
        : st_(st), rack_(*st.rack), spec_(spec),
          rng_(rack_.server(0).forkRng(spec.seed))
    {
        // Every workload here is Poisson (rate in requests per ns).
        arrivals_ = workload::makePoisson(spec_.rateMrps * 1e-3);
    }

    void
    start()
    {
        next_ = arrivals_->nextGap(rng_);
        rack_.sim().at(next_, [this] { injectNext(); });
    }

    std::uint64_t injected() const { return injected_; }

  private:
    /** The request's workload draws, in the program's order. */
    net::WireRpc
    draw()
    {
        net::WireRpc w;
        w.id = injected_;
        const workload::ServiceSample smp = spec_.service->sample(rng_);
        w.service = smp.service;
        w.kind = smp.kind;
        w.conn = static_cast<std::uint32_t>(rng_.below(spec_.connections));
        w.sizeBytes = spec_.requestBytes;
        return w;
    }

    void
    injectNext()
    {
        if ((st_.pick.calls++ & kSampleMask) == 0) {
            injectTimed();
        } else {
            const int s = rack_.pickServer();
            if (s >= 0) {
                rack_.deliver(static_cast<unsigned>(s), draw());
                ++st_.sample.calls;
                ++st_.deliver.calls;
            } else {
                rack_.shedAtTor(injected_);
            }
            ++injected_;
            if (injected_ < spec_.requests)
                next_ += arrivals_->nextGap(rng_);
        }
        if (injected_ < spec_.requests)
            rack_.sim().at(next_, [this] { injectNext(); });
    }

    /** injectNext with five chained stamps: pick | draws | deliver |
     *  next gap. Each interval carries one clock read. */
    void
    injectTimed()
    {
        const Clock::time_point t0 = st_.stamp();
        const int s = rack_.pickServer();
        const Clock::time_point t1 = st_.stamp();
        st_.pick.rawNs += nanos(t0, t1);
        ++st_.pick.samples;
        if (s < 0) {
            rack_.shedAtTor(injected_++);
            if (injected_ < spec_.requests)
                next_ += arrivals_->nextGap(rng_);
            return;
        }
        const net::WireRpc w = draw();
        const Clock::time_point t2 = st_.stamp();
        rack_.deliver(static_cast<unsigned>(s), w);
        const Clock::time_point t3 = st_.stamp();
        st_.deliver.rawNs += nanos(t2, t3);
        ++st_.deliver.samples;
        ++st_.deliver.calls;
        ++st_.sample.calls;
        if (++injected_ < spec_.requests) {
            next_ += arrivals_->nextGap(rng_);
            st_.sample.rawNs += nanos(t1, t2) + nanos(t3, st_.stamp());
            ++st_.sample.samples;
        }
    }

    TraceState &st_;
    Rack &rack_;
    const WorkloadSpec &spec_;
    Rng rng_;
    std::unique_ptr<workload::ArrivalProcess> arrivals_;
    std::uint64_t injected_ = 0;
    Tick next_ = 0;
};

/** One observation in a federated server's log, replayed after the
 *  run in (tick, server, log position) order -- the canonical merge
 *  runRackExperiment performs. */
struct ObsRec
{
    Tick now = 0;
    std::uint64_t id = 0;
    Tick latency = 0;
    std::uint32_t aux = 0;
    std::uint16_t kind = 0;
    std::uint16_t core = 0;
    bool fault = false;
};

void
mixCompletion(TraceState &st, Tick now, std::uint64_t kind,
              std::uint64_t core, std::uint64_t id)
{
    st.fp.mix(now);
    st.fp.mix(kind);
    st.fp.mix(core);
    st.fp.mix(id);
    ++st.fpEvents;
}

void
mixFault(TraceState &st, Tick now, std::uint64_t kind, std::uint64_t a,
         std::uint64_t b)
{
    st.fp.mix(now);
    st.fp.mix(0xFA000000ull + kind);
    st.fp.mix(a);
    st.fp.mix(b);
    ++st.fpEvents;
}

void
tracedCall(const Workload &w, double empty_ns)
{
    const DesignConfig &cfg = w.cfg;
    const WorkloadSpec &spec = w.spec;
    const std::uint64_t total = spec.requests;
    const Tick slo = spec.sloAbsolute
                         ? *spec.sloAbsolute
                         : static_cast<Tick>(spec.sloFactor *
                                             spec.service->mean());

    const double rss0 = residentBytes();
    const Clock::time_point t_build = Clock::now();
    auto rack = std::make_unique<Rack>(cfg, spec);
    const Clock::time_point t_reserve = Clock::now();
    rack->reserveFor(total);
    const Clock::time_point t_reserved = Clock::now();
    const double rss1 = residentBytes();
    rack->stopAfterCompletions(total);
    const unsigned n = rack->numServers();

    TraceState st(slo, spec.logLatencyHistogram);
    st.rack = rack.get();
    st.warmup = static_cast<std::uint64_t>(spec.warmupFraction *
                                           static_cast<double>(total));
    st.tracker.reserve(static_cast<std::size_t>(total));
    TraceState *stp = &st;

    std::vector<std::vector<ObsRec>> obs;
    if (n == 1) {
        Server &srv = rack->server(0);
        srv.setCompletionHook([stp](const net::Rpc &, Tick latency) {
            if (++stp->seen > stp->warmup)
                stp->recordLatency(latency);
        });
        srv.setCompletionProbe(
            [stp](const cpu::Core &core, const net::Rpc &r, Tick now) {
                mixCompletion(*stp, now, static_cast<std::uint64_t>(r.kind),
                              core.id(), r.id);
                stp->noteCompletion();
            });
        if (sim::FaultInjector *fi = srv.faultInjector()) {
            fi->setEventHook([stp](sim::FaultInjector::Kind kind, Tick now,
                                   unsigned a, unsigned b) {
                mixFault(*stp, now, static_cast<std::uint64_t>(kind), a, b);
            });
        }
    } else {
        obs.resize(n);
        for (auto &log : obs)
            log.reserve(static_cast<std::size_t>(total / n + total / (2 * n) +
                                                  1024));
        for (unsigned s = 0; s < n; ++s) {
            std::vector<ObsRec> *log = &obs[s];
            rack->server(s).setCompletionProbe(
                [log, stp](const cpu::Core &core, const net::Rpc &r,
                           Tick now) {
                    ObsRec o;
                    o.now = now;
                    o.id = r.id;
                    o.kind = static_cast<std::uint16_t>(r.kind);
                    o.core = static_cast<std::uint16_t>(core.id());
                    log->push_back(o);
                    stp->noteCompletion();
                });
            rack->server(s).setCompletionHook(
                [log](const net::Rpc &, Tick latency) {
                    log->back().latency = latency;
                });
            if (sim::FaultInjector *fi = rack->server(s).faultInjector()) {
                fi->setEventHook([log](sim::FaultInjector::Kind kind,
                                       Tick now, unsigned a, unsigned b) {
                    ObsRec o;
                    o.now = now;
                    o.fault = true;
                    o.kind = static_cast<std::uint16_t>(kind);
                    o.id = a;
                    o.aux = b;
                    log->push_back(o);
                });
            }
        }
    }

    TracedGenerator gen(st, spec);
    const unsigned shards = rack->resolveShards(cfg.shards);
    st.gauges = shards <= 1;
    gen.start();
    const Clock::time_point t_run = Clock::now();
    const Tick end =
        shards > 1
            ? rack->runSharded(shards, spec.timeLimit,
                               sim::Kernel::ParallelGate(
                                   [&gen, total] {
                                       return gen.injected() < total;
                                   }))
            : rack->run(spec.timeLimit);
    const Clock::time_point t_ran = Clock::now();
    const std::uint64_t in_run_reads = st.clockReads;
    const double in_run_record_ns =
        n == 1 ? st.record.totalNs(empty_ns) : 0.0;

    if (n > 1) {
        std::vector<std::size_t> pos(n, 0);
        for (;;) {
            unsigned best = n;
            Tick bw = kTickInf;
            for (unsigned s = 0; s < n; ++s) {
                if (pos[s] < obs[s].size() && obs[s][pos[s]].now < bw) {
                    bw = obs[s][pos[s]].now;
                    best = s;
                }
            }
            if (best == n)
                break;
            const ObsRec &o = obs[best][pos[best]++];
            if (o.fault) {
                mixFault(st, o.now, o.kind, o.id, o.aux);
                st.fp.mix(best);
                continue;
            }
            mixCompletion(st, o.now, o.kind, o.core, o.id);
            st.fp.mix(best);
            if (++st.seen > st.warmup)
                st.recordLatency(o.latency);
        }
    }

    const Clock::time_point t_summary = Clock::now();
    const stats::Summary lat = st.tracker.summary();
    const Clock::time_point t_summarized = Clock::now();

    // Layer counters, read through the public getters.
    std::uint64_t nic_received = 0;
    std::uint64_t noc_messages = 0;
    std::uint64_t noc_flit_hops = 0;
    std::uint64_t dropped = 0;
    std::uint64_t rescued = 0;
    std::uint64_t faults = 0;
    std::uint64_t migrated = 0;
    std::uint64_t retried = 0;
    std::uint64_t timed_out = 0;
    std::uint64_t predicted = 0;
    std::uint64_t true_positives = 0;
    core::MessagingStats ms;
    for (unsigned s = 0; s < n; ++s) {
        Server &srv = rack->server(s);
        nic_received += srv.nic().received();
        noc_messages += srv.mesh().messages();
        noc_flit_hops += srv.mesh().flitHops();
        dropped += srv.dropped();
        rescued += srv.scheduler().requestsRescued();
        predicted += srv.predictions().predicted;
        true_positives += srv.predictions().truePositives;
        if (const sim::FaultInjector *fi = srv.faultInjector())
            faults += fi->counters().total();
        if (const auto *g = dynamic_cast<const core::GroupScheduler *>(
                &srv.scheduler())) {
            migrated += g->requestsMigrated();
            retried += g->migratesRetried();
            timed_out += g->migratesTimedOut();
            const core::MessagingStats &m = g->messagingStats();
            ms.migratesSent += m.migratesSent;
            ms.migratesAcked += m.migratesAcked;
            ms.updatesSent += m.updatesSent;
            ms.sendsRefused += m.sendsRefused;
            ms.bytesOnNoc += m.bytesOnNoc;
        }
    }
    const std::uint64_t events = rack->kernel().eventsExecuted();
    const std::uint64_t completed = rack->completedTotal();
    const std::uint64_t shed = rack->requestsShedTotal();
    const std::uint64_t tor_shed = rack->torShed();
    const std::uint64_t tor_dispatched = rack->torDispatched();
    const double util = rack->workerUtilization();
    const unsigned shards_effective =
        rack->kernel().parallelWindows() > 0 ? shards : 1;

    const Clock::time_point t_teardown = Clock::now();
    rack.reset();
    const Clock::time_point t_done = Clock::now();

    const double run_ns = nanos(t_run, t_ran);
    const double in_loop_ns =
        run_ns - st.pick.totalNs(empty_ns) - st.sample.totalNs(empty_ns, 2) -
        st.deliver.totalNs(empty_ns) - in_run_record_ns - st.gaugeNs -
        static_cast<double>(in_run_reads) * empty_ns;
    const double req = static_cast<double>(total);
    auto ratio = [](std::uint64_t num, std::uint64_t den) {
        return den == 0 ? 0.0
                        : static_cast<double>(num) / static_cast<double>(den);
    };

    JsonLine line("traced");
    line.num("wall_s", seconds(t_build, t_done))
        .num("empty_span_ns", empty_ns)
        .u64("seed", spec.seed)
        .u64("requests", total)
        .u64("issued", gen.injected())
        .u64("shed", shed)
        .u64("tor_shed", tor_shed)
        .u64("events", events);
    addIdentity(line, st.fp.digest(), st.fpEvents, completed, lat,
                st.tracker.violationRatio(),
                end > 0 ? static_cast<double>(completed) /
                              static_cast<double>(end) * 1e3
                        : 0.0);
    line.num("workload.sample_ns", st.sample.netNs(empty_ns, 2))
        .num("system.build_s", seconds(t_build, t_reserve))
        .num("system.tor_pick_ns", st.pick.netNs(empty_ns))
        .num("system.teardown_s", seconds(t_teardown, t_done))
        .u64("system.tor_dispatched", tor_dispatched)
        .u64("system.shards_effective", shards_effective)
        .num("net.pool_reserve_s", seconds(t_reserve, t_reserved))
        .num("net.deliver_ns", st.deliver.netNs(empty_ns))
        .u64("net.nic_received", nic_received)
        .num("net.rss_bytes_per_req", (rss1 - rss0) / req)
        .num("sim.events_per_req", static_cast<double>(events) / req)
        .num("sim.inloop_ns_per_event",
             in_loop_ns / static_cast<double>(std::max<std::uint64_t>(
                              events, 1)))
        .u64("sim.pending_events_max", st.pendingMax)
        .num("noc.messages_per_req", static_cast<double>(noc_messages) / req)
        .num("noc.flit_hops_per_req",
             static_cast<double>(noc_flit_hops) / req)
        .u64("sched.queued_max", st.queuedMax)
        .u64("sched.dropped", dropped)
        .u64("sched.requests_rescued", rescued)
        .num("cpu.worker_util", util)
        .num("core.migrated_per_req", static_cast<double>(migrated) / req)
        .num("core.updates_per_req", static_cast<double>(ms.updatesSent) / req)
        .u64("core.migrates_sent", ms.migratesSent)
        .num("core.migrate_ack_ratio",
             ratio(ms.migratesAcked, ms.migratesSent))
        .u64("core.migrates_retried", retried)
        .u64("core.migrates_timed_out", timed_out)
        .u64("core.sends_refused", ms.sendsRefused)
        .num("core.noc_bytes_per_req",
             static_cast<double>(ms.bytesOnNoc) / req)
        .num("core.prediction_precision", ratio(true_positives, predicted))
        .num("stats.record_ns", st.record.netNs(empty_ns))
        .num("stats.summary_s", seconds(t_summary, t_summarized))
        .u64("faults.injected", faults);
    line.emit();
}

/** Median duration of an empty span (two back-to-back clock reads),
 *  subtracted from every sampled span. */
double
calibrateEmptySpanNs()
{
    std::vector<double> rounds;
    for (int r = 0; r < 31; ++r) {
        double sum = 0.0;
        constexpr int kReads = 1000;
        for (int i = 0; i < kReads; ++i) {
            const Clock::time_point a = Clock::now();
            const Clock::time_point b = Clock::now();
            sum += nanos(a, b);
        }
        rounds.push_back(sum / kReads);
    }
    std::nth_element(rounds.begin(), rounds.begin() + rounds.size() / 2,
                     rounds.end());
    return rounds[rounds.size() / 2];
}

// ---------------------------------------------------------------------
// main
// ---------------------------------------------------------------------

/**
 * Call i of a run simulates seed --seed + (i mod kSubSeeds) * kSeedStride,
 * so call 0 is --seed itself. Host cost differs by a few percent between
 * single seeds; a run's median then averages over this many realisations
 * of the workload, and each seed still repeats often enough for
 * run.py to check that its fingerprint does.
 */
constexpr unsigned kSubSeeds = 16;
constexpr std::uint64_t kSeedStride = 0x9e3779b97f4a7c15ull;

/** Folds --seed into the LayoutPad size stream. */
constexpr std::uint64_t kPadSalt = 0x9ad5;

struct Args
{
    std::string workload;
    std::string mode = "e2e";
    std::uint64_t seed = 10;
    std::uint64_t call = 0;
    double scale = 1.0;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            fatal("%s requires a value", flag.c_str());
        const char *v = argv[++i];
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--mode") {
            a.mode = v;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v, nullptr, 10);
        } else if (flag == "--call") {
            a.call = std::strtoull(v, nullptr, 10);
        } else if (flag == "--scale") {
            a.scale = std::atof(v);
        } else {
            fatal("unknown argument '%s' (--workload W --mode "
                  "e2e|setup|traced --seed N --call I --scale X)",
                  flag.c_str());
        }
    }
    if (a.workload.empty())
        fatal("--workload is required");
    if (!(a.scale > 0.0 && a.scale <= 1.0))
        fatal("--scale must lie in (0, 1]");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const Workload w = makeWorkload(
        args.workload, args.seed + (args.call % kSubSeeds) * kSeedStride,
        args.scale);
    Rng pad_rng = Rng(args.seed ^ kPadSalt).fork(args.call);
    const LayoutPad pad(pad_rng);
    if (args.mode == "e2e") {
        e2eCall(w);
    } else if (args.mode == "setup") {
        setupCall(w);
    } else if (args.mode == "traced") {
        tracedCall(w, calibrateEmptySpanNs());
    } else {
        fatal("unknown mode '%s' (e2e, setup, traced)", args.mode.c_str());
    }
    return 0;
}
