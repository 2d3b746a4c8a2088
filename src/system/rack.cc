/**
 * @file
 * Rack federation implementation: construction and the ToR
 * dispatcher.
 */

#include "system/rack.hh"

#include "common/logging.hh"

namespace altoc::system {

const char *
torPolicyName(TorPolicy policy)
{
    switch (policy) {
    case TorPolicy::Random:
        return "random";
    case TorPolicy::RoundRobin:
        return "rr";
    case TorPolicy::PowerOfK:
        return "p2c";
    case TorPolicy::LeastLoaded:
        return "ll";
    }
    return "?";
}

TorPolicy
torPolicyFromName(std::string_view name)
{
    if (name == "random")
        return TorPolicy::Random;
    if (name == "rr" || name == "round-robin")
        return TorPolicy::RoundRobin;
    if (name == "p2c" || name == "pk" || name == "power-of-k")
        return TorPolicy::PowerOfK;
    if (name == "ll" || name == "least-loaded")
        return TorPolicy::LeastLoaded;
    panic("unknown ToR policy '%.*s' (expected random, rr, p2c, ll)",
          static_cast<int>(name.size()), name.data());
}

namespace {

/** Salt folding the workload seed into the ToR's private decision
 *  stream (never drawn when servers == 1). */
constexpr std::uint64_t kTorSeedSalt = 0x70f25eed;

/** Per-server seed fold; the identity for server 0, so a rack of
 *  one seeds its server with the workload seed itself. */
constexpr std::uint64_t
serverSalt(unsigned server)
{
    return server * 0x9e3779b97f4a7c15ull;
}

} // namespace

// ---------------------------------------------------------------------
// Rack
// ---------------------------------------------------------------------

Rack::Rack(const DesignConfig &cfg, const WorkloadSpec &spec)
    : cfg_(cfg), rack_(cfg.rack), traceCfg_(spec.tracing),
      torRng_(spec.seed ^ kTorSeedSalt)
{
    altoc_assert(rack_.servers >= 1, "a rack needs at least one server");
    altoc_assert(rack_.policy != TorPolicy::PowerOfK || rack_.sampleK >= 1,
                 "power-of-k needs k >= 1");
    altoc_assert(!spec.logLatencyHistogram, // lint:allow bench-stand-in: the stand-in's own check
                 "the log-scale latency store is gone");
    const int maxScoped = spec.faults.maxScopedServer();
    if (maxScoped >= static_cast<int>(rack_.servers)) {
        fatal("fault spec scopes server %d but the rack has %u "
              "server(s)",
              maxScoped, rack_.servers);
    }

    const DerivedSpec d = deriveSpec(spec);

    // Region topology: server s lives in kernel region s; a
    // federation adds one more region for the ToR (arrivals, pick
    // decisions, link departures). Region indices are the canonical
    // tie-break order, so server events at a tick dispatch before
    // the ToR's. With one server the ToR shares region 0, and the
    // kernel is exactly a standalone Simulator.
    Server::Config scfg;
    scfg.cores = cfg_.cores;
    scfg.nic = nicConfigFor(cfg_);
    scfg.sloTarget = d.slo;
    scfg.warmup = d.warmup / rack_.servers;
    scfg.trace = spec.tracing;
    servers_.reserve(rack_.servers);
    for (unsigned s = 0; s < rack_.servers; ++s) {
        scfg.serverId = s;
        scfg.seed = spec.seed ^ serverSalt(s);
        scfg.faults = spec.faults.forServer(s);
        servers_.push_back(std::make_unique<Server>(
            scfg,
            makeScheduler(cfg_, static_cast<Tick>(d.meanService),
                          d.distName),
            kernel_.addRegion()));
        servers_.back()->setResolver(spec.resolve);
    }
    if (rack_.servers == 1) {
        torSim_ = &kernel_.region(0);
        torRegion_ = 0;
    } else {
        torSim_ = &kernel_.addRegion();
        torRegion_ = rack_.servers;
    }

    dead_.assign(rack_.servers, false);
    liveServers_ = rack_.servers;

    if (rack_.servers > 1) {
        links_.reserve(rack_.servers);
        for (unsigned s = 0; s < rack_.servers; ++s)
            links_.emplace_back(rack_.linkLatency, rack_.linkGbps);
        for (unsigned s = 0; s < rack_.servers; ++s) {
            servers_[s]->setDeathNotifier(
                [this, s](unsigned) { noteCoreDeath(s); });
        }
        if (traceCfg_.enabled) {
            torTracer_ = std::make_unique<trace::Tracer>(
                kTorRings, traceCfg_.ringSlots);
        }
    }
}

Rack::~Rack() = default;

ALTOC_HOT int
Rack::torPick()
{
    const unsigned n = numServers();
    if (liveServers_ == 0)
        return -1;
    switch (rack_.policy) {
    case TorPolicy::Random:
        return nextLive(static_cast<unsigned>(torRng_.below(n)));
    case TorPolicy::RoundRobin: {
        const int c = nextLive(rrNext_);
        rrNext_ = (static_cast<unsigned>(c) + 1) % n;
        return c;
    }
    case TorPolicy::PowerOfK: {
        // Sample k servers with replacement (dead draws probe to the
        // next live machine), keep the least loaded; the first drawn
        // wins ties, so the decision is a pure function of (rng
        // stream, load vector).
        int best = -1;
        std::size_t bestLoad = 0;
        for (unsigned k = 0; k < rack_.sampleK; ++k) {
            const int c =
                nextLive(static_cast<unsigned>(torRng_.below(n)));
            const std::size_t load =
                servers_[static_cast<unsigned>(c)]
                    ->scheduler()
                    .totalQueued();
            if (best < 0 || load < bestLoad) {
                best = c;
                bestLoad = load;
            }
        }
        return best;
    }
    case TorPolicy::LeastLoaded: {
        // Full information, lowest index wins ties.
        int best = -1;
        std::size_t bestLoad = 0;
        for (unsigned s = 0; s < n; ++s) {
            if (dead_[s])
                continue;
            const std::size_t load =
                servers_[s]->scheduler().totalQueued();
            if (best < 0 || load < bestLoad) {
                best = static_cast<int>(s);
                bestLoad = load;
            }
        }
        return best;
    }
    }
    return -1;
}

int
Rack::nextLive(unsigned start) const
{
    const unsigned n = numServers();
    for (unsigned i = 0; i < n; ++i) {
        const unsigned c = (start + i) % n;
        if (!dead_[c])
            return static_cast<int>(c);
    }
    return -1;
}

void
Rack::torDeliver(unsigned s, const net::WireRpc &w)
{
    ++torDispatched_;
    ALTOC_TRACE_HOOK(
        torTracer_.get(),
        record(torSim_->now(), kTorRequestRing,
               trace::TraceKind::TorDispatch,
               trace::tracePack(
                   static_cast<std::uint32_t>(w.id) & 0xffffu, s),
               static_cast<std::uint8_t>(rack_.policy)));
    Server *srv = servers_[s].get();
    const Tick arrive = links_[s].send(torSim_->now(), w.sizeBytes);
    // The wire form crosses the region boundary; the descriptor
    // materializes in the receiving server's own region, from its
    // own pool, when the link delivers it.
    kernel_.crossSchedule(torRegion_, s, arrive,
                          [srv, w] { srv->injectWire(w); });
}

void
Rack::shedAtTor([[maybe_unused]] std::uint64_t rpc_id)
{
    ++torShed_;
    ALTOC_TRACE_HOOK(torTracer_.get(),
                     record(torSim_->now(), kTorRequestRing,
                            trace::TraceKind::AdmissionShed,
                            static_cast<std::uint32_t>(rpc_id)));
    if (++sharedDone_ >= stopAfter_)
        torSim_->requestStop();
}

void
Rack::noteCoreDeath(unsigned s)
{
    if (dead_[s] || servers_[s]->scheduler().liveWorkerCores() > 0)
        return;
    dead_[s] = true;
    --liveServers_;
    ALTOC_TRACE_HOOK(torTracer_.get(),
                     record(torSim_->now(), kTorControlRing,
                            trace::TraceKind::ServerDead, s));
}

void
Rack::stopAfterCompletions(std::uint64_t n)
{
    stopAfter_ = n;
    for (auto &srv : servers_)
        srv->stopAfterCompletions(&sharedDone_, n);
}

Tick
Rack::run(Tick until)
{
    const Tick end = kernel_.run(until);
    settle();
    return end;
}

void
Rack::settle()
{
    for (auto &srv : servers_)
        srv->finishRun();
}

void
Rack::reserveFor(std::uint64_t total_requests)
{
    const unsigned n = numServers();
    // Per-server share plus imbalance headroom; a sample store still
    // grows on demand if a skewed policy concentrates more than that.
    const std::uint64_t per =
        n == 1 ? total_requests
               : total_requests / n + total_requests / (4 * n) + 1024;
    for (auto &srv : servers_)
        srv->reserveFor(per);
}

std::uint64_t
Rack::completedTotal() const
{
    std::uint64_t sum = 0;
    for (const auto &srv : servers_)
        sum += srv->completed();
    return sum;
}

std::uint64_t
Rack::requestsShedTotal() const
{
    std::uint64_t sum = 0;
    for (const auto &srv : servers_)
        sum += srv->requestsShed();
    return sum;
}

double
Rack::workerUtilization() const
{
    // Homogeneous rack: every server has the same worker count and
    // the same elapsed time, so the rack ratio is the plain mean.
    double sum = 0.0;
    for (const auto &srv : servers_)
        sum += srv->workerUtilization();
    return sum / static_cast<double>(numServers());
}

void
Rack::checkConservation(std::uint64_t issued) const
{
    const std::uint64_t accounted =
        completedTotal() + requestsShedTotal() + torShed_;
    if (accounted != issued) {
        panic("rack conservation violated: issued %llu != completed "
              "%llu + shed %llu + torShed %llu",
              static_cast<unsigned long long>(issued),
              static_cast<unsigned long long>(completedTotal()),
              static_cast<unsigned long long>(requestsShedTotal()),
              static_cast<unsigned long long>(torShed_));
    }
}

bool
Rack::writeTrace(const std::string &path) const
{
    if (!traceCfg_.enabled)
        return false;
    const std::string &target = path.empty() ? traceCfg_.file : path;
    if (target.empty())
        return false;
    if (numServers() == 1)
        return servers_[0]->writeTrace(target);
    std::vector<const trace::Tracer *> tracers;
    tracers.reserve(servers_.size());
    for (const auto &srv : servers_)
        tracers.push_back(srv->tracer());
    return trace::writeRackTraceFile(target, tracers, cfg_.cores,
                                     torTracer_.get());
}

void
Rack::dumpStats(std::FILE *out) const
{
    if (numServers() == 1) {
        servers_[0]->dumpStats(out);
        return;
    }
    if (out == nullptr)
        out = stdout;
    // Counters print exactly, as integers; ratios as %g.
    auto count = [out](const char *name, std::uint64_t value) {
        std::fprintf(out, "%-40s %20llu\n", name,
                     static_cast<unsigned long long>(value));
    };
    auto ratio = [out](const char *name, double value) {
        std::fprintf(out, "%-40s %20.6g\n", name, value);
    };
    std::fprintf(out, "---------- Begin Simulation Statistics ----------\n");
    count("rack.servers", numServers());
    count("rack.liveServers", liveServers_);
    count("rack.finalTick", kernel_.now());
    count("rack.eventsExecuted", kernel_.eventsExecuted());
    count("rack.torDispatched", torDispatched_);
    count("rack.torShed", torShed_);
    count("rack.completed", completedTotal());
    count("rack.requestsShed", requestsShedTotal());
    ratio("rack.workerUtilization", workerUtilization());
    if (torTracer_)
        count("rack.torTraceRecorded", torTracer_->totalWritten());
    for (unsigned s = 0; s < numServers(); ++s) {
        char prefix[32];
        std::snprintf(prefix, sizeof prefix, "server%u.", s);
        servers_[s]->dumpStatsBody(out, prefix);
    }
    std::fprintf(out, "---------- End Simulation Statistics ----------\n");
}

} // namespace altoc::system
