/**
 * @file
 * ToR-to-server downlink model.
 *
 * One RackLink models the cable between the ToR dispatcher and a
 * single server: a fixed propagation latency plus serialization at
 * the link rate, with the transmitter busy until the previous frame
 * finished clocking out (same pacing idiom as the Nic RX path). The
 * asymmetry against the 3 ns on-chip hop is the point: a rack-level
 * placement decision costs three orders of magnitude more to revise
 * than an intra-server migration, which is why the ToR layer only
 * steers at admission and never re-balances in flight.
 */

#ifndef ALTOC_NET_RACK_LINK_HH
#define ALTOC_NET_RACK_LINK_HH

#include <algorithm>
#include <cstdint>

#include "common/logging.hh"
#include "common/units.hh"

namespace altoc::net {

class RackLink
{
  public:
    /**
     * @param latency one-way propagation latency in ns
     * @param gbps    link rate in Gbit/s (> 0)
     */
    RackLink(Tick latency, double gbps)
        : latency_(latency), gbps_(gbps)
    {
        altoc_assert(gbps_ > 0.0, "rack link needs a positive rate");
    }

    /**
     * Transmit a @p bytes frame departing no earlier than @p now;
     * returns the tick it is fully delivered at the far end. Frames
     * serialize in call order: each waits for the transmitter to
     * free up, then clocks out at the link rate and propagates.
     */
    Tick
    send(Tick now, std::uint32_t bytes)
    {
        const Tick start = std::max(now, txFree_);
        txFree_ = start + serializationTime(bytes);
        ++sent_;
        return txFree_ + latency_;
    }

    /** Serialization time of @p bytes at the link rate (>= 1 ns). */
    Tick
    serializationTime(std::uint32_t bytes) const
    {
        const double ns = static_cast<double>(bytes) * 8.0 / gbps_;
        return std::max<Tick>(1, static_cast<Tick>(ns));
    }

    Tick latency() const { return latency_; }

    /** Frames sent over this link so far. */
    std::uint64_t sent() const { return sent_; }

  private:
    Tick latency_;
    double gbps_;
    Tick txFree_ = 0;
    std::uint64_t sent_ = 0;
};

} // namespace altoc::net

#endif // ALTOC_NET_RACK_LINK_HH
