/**
 * @file
 * SampleHistogram implementation.
 */

#include "stats/histogram.hh"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>

#include "common/logging.hh"

namespace altoc::stats {

namespace {

/**
 * Nearest-rank definition: the index, in sorted order, of the
 * smallest value such that at least q * n of @p n > 0 samples are
 * <= it.
 */
std::size_t
nearestRankIndex(double q, std::size_t n)
{
    std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
    if (rank == 0)
        rank = 1;
    if (rank > n)
        rank = n;
    return rank - 1;
}

} // namespace

void
SampleHistogram::ensureSorted() const
{
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
}

double
SampleHistogram::mean() const
{
    return samples_.empty() ? 0.0 : sum_ / samples_.size();
}

Tick
SampleHistogram::percentile(double q) const
{
    altoc_assert(q >= 0.0 && q <= 1.0, "quantile out of range: %f", q);
    if (samples_.empty())
        return 0;
    ensureSorted();
    return samples_[nearestRankIndex(q, samples_.size())];
}

Tick
SampleHistogram::max() const
{
    if (samples_.empty())
        return 0;
    ensureSorted();
    return samples_.back();
}

std::uint64_t
SampleHistogram::countAbove(Tick target) const
{
    ensureSorted();
    auto it = std::upper_bound(samples_.begin(), samples_.end(), target);
    return static_cast<std::uint64_t>(samples_.end() - it);
}

double
SampleHistogram::fractionAbove(Tick target) const
{
    return samples_.empty()
               ? 0.0
               : static_cast<double>(countAbove(target)) / samples_.size();
}

Summary
SampleHistogram::summary() const
{
    Summary s;
    s.count = count();
    s.mean = mean();
    if (samples_.empty())
        return s;
    // Select instead of sorting: the ranks ascend with q, so each
    // nth_element partitions only the tail the previous one left
    // (everything before its pivot is <= it, everything after >=).
    const std::pair<double, Tick *> ranks[] = {
        {0.50, &s.p50}, {0.90, &s.p90}, {0.99, &s.p99}, {0.999, &s.p999}};
    auto tail = samples_.begin();
    for (const auto &[q, out] : ranks) {
        const auto nth =
            samples_.begin() +
            static_cast<std::ptrdiff_t>(nearestRankIndex(q, samples_.size()));
        std::nth_element(tail, nth, samples_.end());
        *out = *nth;
        tail = nth;
    }
    s.max = *std::max_element(tail, samples_.end());
    // nth_element may reorder even a sorted store; later queries sort
    // it again on demand.
    sorted_ = false;
    return s;
}

void
SampleHistogram::reset()
{
    samples_.clear();
    sorted_ = false;
    sum_ = 0.0;
}

} // namespace altoc::stats
