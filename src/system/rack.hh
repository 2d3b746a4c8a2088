/**
 * @file
 * Rack-scale federation: N servers behind a ToR dispatcher, one
 * multi-region event kernel.
 *
 * A Rack instantiates RackConfig::servers identical Servers, each in
 * its own region of a sim::Kernel (plus one region for the ToR when
 * servers > 1), then layers a RackSched-style two-level scheduler on
 * top: the ToR picks a server per request (system/topology.hh
 * policies), pays the inter-server link cost (net/rack_link.hh), and
 * the chosen server's ALTOCUMULUS (or baseline) scheduler takes over
 * inside the machine. Placement is decided once, at admission -- the
 * ~1 us fabric hop makes rack-level rebalancing three orders of
 * magnitude more expensive than the 3 ns NoC migrations the
 * intra-server layer performs freely.
 *
 * Every server, and the ToR, runs in its own kernel region, and the
 * kernel's one event queue dispatches them all in one (tick, region,
 * seq) order: at a tick, server events run in server order, then the
 * ToR's. The only event that crosses a region boundary is a
 * request's delivery: the ToR schedules its wire form into the chosen
 * server's region (Kernel::crossSchedule) after the rack link's
 * delay, and the server materializes it there. The p2c and ll
 * policies read server queue depths directly at pick time, an oracle
 * a real ToR lacks.
 *
 * A single server is a rack of one, and this class is the only code
 * that builds and runs a Server: runExperiment, the MICA runner and
 * every bench or test that drives a server by hand go through it.
 * With servers == 1 the Rack adds nothing to the world -- no ToR RNG
 * draw, no link event, no extra trace ring, one kernel region, which
 * draws the seqs a standalone Simulator would -- and the golden suite
 * (tests/test_golden_results.cc) pins the single-server
 * fingerprints.
 *
 * Fail-stop handling: a server whose last worker core dies is
 * declared dead (TraceKind::ServerDead) and the ToR stops steering to
 * it; requests arriving with every server dead are shed at the ToR.
 * Conservation across the rack: issued == sum(completed) +
 * sum(requestsShed) + torShed, checked at drain.
 */

#ifndef ALTOC_SYSTEM_RACK_HH
#define ALTOC_SYSTEM_RACK_HH

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.hh"
#include "net/rack_link.hh"
#include "sim/kernel.hh"
#include "system/experiment.hh"
#include "system/topology.hh"

namespace altoc::system {

/**
 * N federated servers, one shared kernel, one ToR dispatcher.
 */
class Rack
{
  public:
    /**
     * Build the rack described by @p cfg (server shape + cfg.rack
     * topology) for workload @p spec: every server runs in its own
     * kernel region, with the spec's service resolver installed when
     * it has one. Panics when the fault spec scopes past the
     * topology.
     */
    Rack(const DesignConfig &cfg, const WorkloadSpec &spec);
    ~Rack();

    Rack(const Rack &) = delete;
    Rack &operator=(const Rack &) = delete;

    /** The multi-region event kernel all servers run against. */
    sim::Kernel &kernel() { return kernel_; }
    const sim::Kernel &kernel() const { return kernel_; }

    /** The ToR's own kernel region (arrival events, dispatch
     *  decisions, link departures live here). With one server it is
     *  that server's region. */
    sim::Simulator &sim() { return *torSim_; }

    /** True when the kernel's event queue drained. */
    bool idle() const { return kernel_.idle(); }

    unsigned numServers() const
    {
        return static_cast<unsigned>(servers_.size());
    }

    Server &server(unsigned s) { return *servers_[s]; }
    const Server &server(unsigned s) const { return *servers_[s]; }

    const RackConfig &rackConfig() const { return rack_; }

    /**
     * ToR placement decision: the index of the server the next
     * request goes to, or -1 when every server is dead (shed at the
     * ToR). Consumes ToR RNG only for the Random and PowerOfK
     * policies, and only when servers > 1.
     */
    ALTOC_HOT int
    pickServer()
    {
        return servers_.size() == 1 ? 0 : torPick();
    }

    /**
     * Dispatch the wire-form request @p w to server @p s. With one
     * server this materializes and injects directly -- no event, no
     * trace record. Otherwise the ToR records the dispatch, pays the
     * downlink's serialization + propagation delay, and the request
     * materializes *in the receiving server's region*, from that
     * server's own descriptor pool.
     */
    void
    deliver(unsigned s, const net::WireRpc &w)
    {
        if (servers_.size() == 1)
            servers_[0]->injectWire(w);
        else
            torDeliver(s, w);
    }

    /** Account one request shed at the ToR (all servers dead); it
     *  counts toward stopAfterCompletions like a completion. */
    void shedAtTor(std::uint64_t rpc_id);

    /** Stop the kernel once @p n requests are accounted for rack-wide:
     *  completed, shed at a server's admission or shed at the ToR.
     *  Every server and the ToR count into one shared counter. */
    void stopAfterCompletions(std::uint64_t n);

    /** Serial canonical run, then settle every server's audit. */
    Tick run(Tick until = kTickInf);

    /** Reserve each server's latency sample store for its share of
     *  @p total_requests (Server::reserveFor). */
    void reserveFor(std::uint64_t total_requests);

    // ----- ToR state and counters ------------------------------------

    std::uint64_t torDispatched() const { return torDispatched_; }
    std::uint64_t torShed() const { return torShed_; }

    bool serverDead(unsigned s) const { return dead_[s]; }
    unsigned liveServers() const { return liveServers_; }

    /** The ToR's own tracer (null unless tracing and servers > 1):
     *  per-request records on one ring, ServerDead on another. */
    trace::Tracer *torTracer() const { return torTracer_.get(); }

    // ----- rack aggregates -------------------------------------------

    std::uint64_t completedTotal() const;
    std::uint64_t requestsShedTotal() const;
    double workerUtilization() const;

    /**
     * Rack-wide conservation: every issued request either completed
     * on some server, was shed at some server's admission, or was
     * shed at the ToR. Panics on a mismatch. Only meaningful once
     * the kernel drained (in-flight requests are neither).
     */
    void checkConservation(std::uint64_t issued) const;

    /**
     * Write the run's trace to @p path (or the configured trace
     * file). One server delegates to Server::writeTrace (the
     * single-server format); a federation writes the merged format
     * of trace::writeRackTraceFile.
     */
    bool writeTrace(const std::string &path = {}) const;

    /**
     * Rack stats dump: aggregate counters, then one per-server block
     * under "serverN." prefixes, inside a single banner pair. One
     * server delegates to Server::dumpStats.
     */
    void dumpStats(std::FILE *out = nullptr) const;

    // ----- serial stand-ins for bench/perf/altoc_perf.cc ---------------
    // bench/perf/altoc_perf.cc names these, and only a benchmark
    // change may edit that file. They go with the next benchmark
    // change; nothing else may use them (scripts/lint.sh's
    // bench-stand-in rule; see also DesignConfig::shards,
    // sim::Kernel::ParallelGate and WorkloadSpec::logLatencyHistogram).

    /** Always 1: every rack runs on the serial kernel. */
    unsigned resolveShards(unsigned) const { return 1; } // lint:allow bench-stand-in: declaration

    /** run(@p until); the shard count and the gate are ignored. */
    Tick
    runSharded(unsigned, Tick until = kTickInf, // lint:allow bench-stand-in: declaration
               sim::Kernel::ParallelGate = {}) // lint:allow bench-stand-in: declaration
    {
        return run(until);
    }

  private:
    /** pickServer for servers > 1: the ToR policy's decision. */
    int torPick();

    /** deliver for servers > 1: ToR record, link hop, cross-region
     *  materialization. */
    void torDeliver(unsigned s, const net::WireRpc &w);

    /** Death notifier for server @p s's cores: declare the server
     *  dead once its last worker is gone. */
    void noteCoreDeath(unsigned s);

    /** First live server at or after @p start (wrapping), or -1. */
    int nextLive(unsigned start) const;

    /** Post-run settlement: per-server audit checks (each panics on
     *  its own violations). */
    void settle();

    DesignConfig cfg_;
    RackConfig rack_;
    trace::TraceConfig traceCfg_;
    sim::Kernel kernel_;
    /** The ToR's region (== region 0 when servers == 1, else the
     *  extra region past the servers). */
    sim::Simulator *torSim_ = nullptr;
    /** The ToR's region index (crossSchedule source). */
    unsigned torRegion_ = 0;
    /** ToR decision stream, independent of every server RNG so the
     *  N=1 world never observes it. */
    Rng torRng_;
    std::vector<std::unique_ptr<Server>> servers_;
    std::vector<net::RackLink> links_;
    std::vector<bool> dead_;
    /** The ToR tracer's rings. Per-request records (TorDispatch,
     *  AdmissionShed) fill one; control records (ServerDead) have the
     *  other to themselves, so however many requests follow a death,
     *  they cannot evict it, and altoc-trace's no-dispatch-to-a-dead-
     *  server rule keeps what it checks against. */
    static constexpr unsigned kTorRequestRing = 0;
    static constexpr unsigned kTorControlRing = 1;
    static constexpr unsigned kTorRings = 2;
    std::unique_ptr<trace::Tracer> torTracer_;
    unsigned liveServers_ = 0;
    unsigned rrNext_ = 0;
    std::uint64_t torDispatched_ = 0;
    std::uint64_t torShed_ = 0;
    /** Rack-wide count of requests accounted for, shared by every
     *  server's completion and shed paths and the ToR's shed path. */
    std::uint64_t sharedDone_ = 0;
    std::uint64_t stopAfter_ = ~std::uint64_t{0};
};

} // namespace altoc::system

#endif // ALTOC_SYSTEM_RACK_HH
