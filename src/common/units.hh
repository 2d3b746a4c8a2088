/**
 * @file
 * Fundamental simulation units and latency constants.
 *
 * The simulator operates at nanosecond resolution (Tick == 1 ns).
 * Component latencies below are the constants the paper's methodology
 * section (Sec. VII-B) and text fix for the modeled hardware; every
 * model in src/ pulls its timing from here so the numbers are
 * auditable in one place.
 */

#ifndef ALTOC_COMMON_UNITS_HH
#define ALTOC_COMMON_UNITS_HH

#include <cstdint>

namespace altoc {

/** Simulated time, in nanoseconds. */
using Tick = std::uint64_t;

/** A tick value that compares greater than any reachable time. */
constexpr Tick kTickInf = ~Tick{0};

constexpr Tick kNs = 1;
constexpr Tick kUs = 1000;
constexpr Tick kMs = 1000 * 1000;
constexpr Tick kSec = 1000ull * 1000 * 1000;

/** Modeled CPU clock (paper assumes 2 GHz manager cores, Sec. VIII-B). */
constexpr double kCpuGhz = 2.0;

/** Convert a cycle count at kCpuGhz into (rounded) nanoseconds. */
constexpr Tick
cyclesToNs(double cycles)
{
    return static_cast<Tick>(cycles / kCpuGhz + 0.5);
}

namespace lat {

/** NoC per-hop latency (Sec. VII-B: "3ns per hop"). */
constexpr Tick kNocPerHop = 3;

/** NIC Ethernet MAC + serial I/O + transport interpretation
 *  (Sec. VII-B: "~30ns in total"). */
constexpr Tick kNicMac = 30;

/** QPI point-to-point latency (Sec. VII-B: 150 ns; text also cites a
 *  150-250 ns range for cross-socket traffic). */
constexpr Tick kQpiBase = 150;
constexpr Tick kQpiMax = 250;

/** PCIe latency bounds; actual value depends on transfer size
 *  (Sec. VII-B: "200-800ns depending on data size"). */
constexpr Tick kPcieMin = 200;
constexpr Tick kPcieMax = 800;

/** Cache-coherent message hand-off from a manager to a worker
 *  (Sec. VII-A: "a minimum of 70 cycles to move a message to a worker
 *  through the cache coherence protocol"). 70 cycles @ 2 GHz. */
constexpr Tick kCoherenceDispatch = cyclesToNs(70);

/** Cost of one work-stealing operation: 2-3 cache misses, i.e.
 *  200-400 ns of inter-thread communication (Sec. II-D). */
constexpr Tick kStealMin = 200;
constexpr Tick kStealMax = 400;

/** rdmsr/wrmsr syscall pair cost (~100 cycles each, Sec. VI). */
constexpr Tick kMsrAccess = cyclesToNs(100);

/** A single custom altom_* instruction (register-level, ~2 cycles). */
constexpr Tick kIsaAccess = cyclesToNs(2);

/** Memory hierarchy access latencies for the service-time model. */
constexpr Tick kL1 = 2;
constexpr Tick kLlc = 30;
constexpr Tick kDram = 80;

/** Preemption mechanism cost of JBSQ's preemptive baseline (nanoPU):
 *  a hardware thread swap. */
constexpr Tick kHwThreadSwap = 100;

/** Handler time a deadline-drop core spends producing the rejection
 *  response of a request past its budget. */
constexpr Tick kRejectResponse = 50;

} // namespace lat

namespace bw {

/** Line rates in bits per nanosecond (== Gbit/s). */
constexpr double kGbe100 = 100.0;
constexpr double kGbe400 = 400.0;
constexpr double kTbe16 = 1600.0;

} // namespace bw

} // namespace altoc

#endif // ALTOC_COMMON_UNITS_HH
