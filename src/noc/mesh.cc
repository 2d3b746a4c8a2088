/**
 * @file
 * Mesh NoC implementation.
 */

#include "noc/mesh.hh"

#include <cmath>
#include <cstddef>

#include "common/logging.hh"

namespace altoc::noc {

Mesh::Mesh(unsigned cols, unsigned rows) : cols_(cols), rows_(rows)
{
    altoc_assert(cols > 0 && rows > 0, "degenerate mesh");
    // Four directed links per tile upper-bounds the link count; the
    // occupancy table is indexed by (tile, direction).
    free_.assign(kNumVnets,
                 std::vector<Tick>(static_cast<std::size_t>(tiles()) * 4,
                                   0));
    coords_.resize(tiles());
    for (unsigned t = 0; t < tiles(); ++t)
        coords_[t] = Coord{t % cols_, t / cols_};
}

Mesh
Mesh::forTiles(unsigned tiles)
{
    altoc_assert(tiles > 0, "mesh needs at least one tile");
    unsigned cols =
        static_cast<unsigned>(std::ceil(std::sqrt(static_cast<double>(tiles))));
    unsigned rows = (tiles + cols - 1) / cols;
    return Mesh(cols, rows);
}

unsigned
Mesh::hops(unsigned src, unsigned dst) const
{
    altoc_assert(src < tiles() && dst < tiles(),
                 "tile out of range: %u/%u of %u", src, dst, tiles());
    const Coord s = coords_[src];
    const Coord d = coords_[dst];
    return (s.x > d.x ? s.x - d.x : d.x - s.x) +
           (s.y > d.y ? s.y - d.y : d.y - s.y);
}

Tick
Mesh::flightTime(unsigned src, unsigned dst) const
{
    return static_cast<Tick>(hops(src, dst)) * lat::kNocPerHop;
}

Tick
Mesh::send(unsigned vnet, unsigned src, unsigned dst, std::uint32_t bytes,
           Tick depart)
{
    altoc_assert(vnet < kNumVnets, "bad virtual network %u", vnet);
    altoc_assert(src < tiles() && dst < tiles(), "tile out of range");
    ++messages_;
    if (src == dst) {
        return extraDelay_ ? depart + extraDelay_(vnet, src, dst, depart)
                           : depart;
    }

    const unsigned flits = (bytes + kFlitBytes - 1) / kFlitBytes;
    const Tick hold = static_cast<Tick>(flits) * kFlitNs;
    Tick *const occ = free_[vnet].data();

    // Walk the XY path as two straight runs: first along x, then along
    // y. The head flit pays the pipeline latency per hop and may wait
    // for each link to drain; the body flits add serialization on the
    // final hop. A run knows its direction, so the directed-link index
    // (tile * 4 + direction; 0 = +x, 1 = -x, 2 = +y, 3 = -y) and the
    // next tile step by a constant along it.
    const Coord s = coords_[src];
    const Coord d = coords_[dst];
    Tick t = depart;
    std::size_t cur = src;
    auto run = [&](unsigned n, unsigned dir, std::ptrdiff_t step) {
        for (unsigned i = 0; i < n; ++i) {
            Tick &link = occ[cur * 4 + dir];
            // Wait for the link, then occupy it for the message's
            // flits (wormhole-style cut-through: downstream hops
            // overlap).
            t = std::max(t, link);
            link = t + hold;
            t += lat::kNocPerHop;
            cur = static_cast<std::size_t>(
                static_cast<std::ptrdiff_t>(cur) + step);
        }
    };
    const bool east = d.x > s.x;
    const bool south = d.y > s.y;
    const unsigned hx = east ? d.x - s.x : s.x - d.x;
    const unsigned hy = south ? d.y - s.y : s.y - d.y;
    const auto row = static_cast<std::ptrdiff_t>(cols_);
    run(hx, east ? 0u : 1u, east ? 1 : -1);
    run(hy, south ? 2u : 3u, south ? row : -row);
    flitHops_ += static_cast<std::uint64_t>(flits) * (hx + hy);
    // Tail flit serialization on arrival.
    Tick arrive = t + static_cast<Tick>(flits - 1) * kFlitNs;
    if (extraDelay_)
        arrive += extraDelay_(vnet, src, dst, depart);
    return arrive;
}

} // namespace altoc::noc
