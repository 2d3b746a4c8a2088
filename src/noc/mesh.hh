/**
 * @file
 * 2-D mesh network-on-chip model.
 *
 * The paper's manycore substrate routes ALTOCUMULUS messages over the
 * NoC with 3 ns per-hop latency (Sec. VII-B), deterministic XY
 * routing (Sec. V-B, Message Ordering) and one extra virtual network
 * dedicated to scheduling traffic so it cannot deadlock or interleave
 * with coherence traffic. We model:
 *  - per-hop pipeline latency (lat::kNocPerHop);
 *  - per-link serialization: each flit occupies a link for
 *    kFlitNs, so bursts of messages queue behind one another; and
 *  - independent virtual networks: each VN has its own link
 *    occupancy, emulating separate buffer classes.
 *
 * XY routing makes the path (and therefore delivery order between a
 * fixed source/destination pair) deterministic, which the hardware
 * messaging layer relies on for FIFO message ordering.
 */

#ifndef ALTOC_NOC_MESH_HH
#define ALTOC_NOC_MESH_HH

#include <cstdint>
#include <vector>

#include "common/inline_fn.hh"
#include "common/units.hh"

namespace altoc::noc {

/** Flit payload size and per-link flit serialization time. */
constexpr unsigned kFlitBytes = 16;
constexpr Tick kFlitNs = 1;

/** Virtual network ids used by the system. */
enum VirtualNet : unsigned
{
    kVnData = 0,  //!< regular request/coherence-adjacent traffic
    kVnSched = 1, //!< the extra VN for ALTOCUMULUS messages [12]
    kNumVnets = 2,
};

/**
 * Mesh NoC with XY routing and per-link, per-VN occupancy tracking.
 */
class Mesh
{
  public:
    /**
     * Build a mesh of @p cols x @p rows tiles. Tile i sits at
     * (i % cols, i / cols).
     */
    Mesh(unsigned cols, unsigned rows);

    /** Smallest square-ish mesh that fits @p tiles tiles. */
    static Mesh forTiles(unsigned tiles);

    unsigned cols() const { return cols_; }
    unsigned rows() const { return rows_; }
    unsigned tiles() const { return cols_ * rows_; }

    /** Manhattan hop count between two tiles. */
    unsigned hops(unsigned src, unsigned dst) const;

    /** Pure pipeline latency (no contention) between two tiles. */
    Tick flightTime(unsigned src, unsigned dst) const;

    /**
     * Send a message of @p bytes from @p src to @p dst on virtual
     * network @p vnet, departing at @p depart. Returns the delivery
     * time, accounting for link contention along the XY path.
     */
    Tick send(unsigned vnet, unsigned src, unsigned dst,
              std::uint32_t bytes, Tick depart);

    /**
     * Extra delivery-delay hook: consulted once per send() with
     * (vnet, src, dst, depart) and added to the returned arrival
     * time. The fault injector uses it to delay scheduling-VN
     * messages; unset (the default) costs nothing.
     */
    using ExtraDelayFn =
        InlineFunction<Tick(unsigned vnet, unsigned src, unsigned dst,
                            Tick depart)>;

    void setExtraDelay(ExtraDelayFn fn) { extraDelay_ = std::move(fn); }

    /** Total flit-hops transferred so far (traffic accounting). */
    std::uint64_t flitHops() const { return flitHops_; }

    /** Total messages sent. */
    std::uint64_t messages() const { return messages_; }

  private:
    /** A tile's (column, row). */
    struct Coord
    {
        unsigned x;
        unsigned y;
    };

    unsigned cols_;
    unsigned rows_;
    /** coords_[tile], tabulated once so routing needs no division. */
    std::vector<Coord> coords_;
    /** free_[vnet][link] = earliest time the link is idle. */
    std::vector<std::vector<Tick>> free_;
    ExtraDelayFn extraDelay_;
    std::uint64_t flitHops_ = 0;
    std::uint64_t messages_ = 0;
};

} // namespace altoc::noc

#endif // ALTOC_NOC_MESH_HH
