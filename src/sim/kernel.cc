/**
 * @file
 * Kernel implementation: region set-up.
 */

#include "sim/kernel.hh"

namespace altoc::sim {

Simulator &
Kernel::addRegion()
{
    const auto r = static_cast<unsigned>(regions_.size());
    altoc_assert(r < 256, "a kernel holds at most 256 regions");
    regions_.push_back(std::make_unique<Simulator>(loop_, r));
    crossCtr_.push_back(0);
    return *regions_.back();
}

} // namespace altoc::sim
