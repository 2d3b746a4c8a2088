/**
 * @file
 * Rack topology configuration: how many servers, and how the ToR
 * dispatcher steers requests across them.
 *
 * This header is deliberately tiny and dependency-free so the
 * experiment layer (system/experiment.hh) can embed a RackConfig in
 * every DesignConfig without pulling in the Rack machinery; only
 * rack runs include system/rack.hh. The per-server shape (cores,
 * groups, design) stays in DesignConfig -- a rack is N identical
 * servers behind one ToR, matching RackSched's homogeneous-rack
 * model.
 */

#ifndef ALTOC_SYSTEM_TOPOLOGY_HH
#define ALTOC_SYSTEM_TOPOLOGY_HH

#include <cstdint>
#include <string_view>

#include "common/units.hh"

namespace altoc::system {

/**
 * Inter-server dispatch policy of the ToR scheduler (the RackSched
 * comparison axis: how much server-load information the top layer
 * uses per decision).
 */
enum class TorPolicy : std::uint8_t
{
    Random,     //!< uniform random server per request
    RoundRobin, //!< strict rotation, no load information
    PowerOfK,   //!< sample k servers, pick the least loaded of them
    LeastLoaded, //!< full information: least total backlog, rack-wide
};

/** Stable display name of @p policy. */
const char *torPolicyName(TorPolicy policy);

/** Parse a display or CLI name ("random", "rr", "p2c", "pk", "ll");
 *  panics on unknown names so CLI typos fail loudly. */
TorPolicy torPolicyFromName(std::string_view name);

/**
 * Shape of the rack. servers == 1 (the default) is a rack of one: no
 * ToR RNG is drawn, no link event is scheduled and no server index is
 * mixed into the fingerprint, so every single-server golden,
 * fingerprint and trace is that of the server alone.
 */
struct RackConfig
{
    /** Server count behind the ToR. */
    unsigned servers = 1;

    /** Inter-server dispatch policy (servers > 1 only). */
    TorPolicy policy = TorPolicy::PowerOfK;

    /** Sampled servers per PowerOfK decision. */
    unsigned sampleK = 2;

    /** One-way ToR-to-server hop latency. Default 1 us: the
     *  through-the-fabric cost that dwarfs the 3 ns NoC hop and makes
     *  inter-server placement decisions expensive to revise. */
    Tick linkLatency = 1 * kUs;

    /** Downlink bandwidth per server (serialization pacing). */
    double linkGbps = 100.0;
};

} // namespace altoc::system

#endif // ALTOC_SYSTEM_TOPOLOGY_HH
