/**
 * @file
 * Histogram implementations.
 */

#include "stats/histogram.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <utility>

#include "common/logging.hh"

namespace altoc::stats {

// ---------------------------------------------------------------------
// SampleHistogram
// ---------------------------------------------------------------------

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

// ---------------------------------------------------------------------
// LogHistogram
// ---------------------------------------------------------------------

LogHistogram::LogHistogram(unsigned sub_bits)
    : subBits_(sub_bits)
{
    altoc_assert(sub_bits >= 1 && sub_bits <= 16,
                 "sub_bits out of range: %u", sub_bits);
    // 64 power-of-two ranges, each with 2^subBits sub-buckets, covers
    // the whole Tick domain.
    buckets_.assign((64 - subBits_ + 1) << subBits_, 0);
}

std::size_t
LogHistogram::bucketIndex(Tick value) const
{
    if (value < (Tick{1} << subBits_))
        return static_cast<std::size_t>(value);
    const unsigned msb = 63 - std::countl_zero(value);
    const unsigned range = msb - subBits_ + 1;
    const unsigned shift = range;
    const std::size_t sub =
        static_cast<std::size_t>((value >> shift) & ((1u << subBits_) - 1));
    return (static_cast<std::size_t>(range) << subBits_) + sub;
}

Tick
LogHistogram::bucketUpperBound(std::size_t index) const
{
    const std::size_t range = index >> subBits_;
    const std::size_t sub = index & ((std::size_t{1} << subBits_) - 1);
    if (range == 0)
        return static_cast<Tick>(sub);
    // For range r >= 1 the sub index retains the leading bit of the
    // value, so values mapping here lie in [sub << r, ((sub+1) << r) - 1].
    const unsigned shift = static_cast<unsigned>(range);
    return ((static_cast<Tick>(sub) + 1) << shift) - 1;
}

void
LogHistogram::record(Tick value)
{
    const std::size_t idx = bucketIndex(value);
    altoc_assert(idx < buckets_.size(), "bucket index overflow");
    ++buckets_[idx];
    ++count_;
    sum_ += static_cast<double>(value);
    maxSeen_ = std::max(maxSeen_, value);
}

Tick
LogHistogram::percentile(double q) const
{
    altoc_assert(q >= 0.0 && q <= 1.0, "quantile out of range: %f", q);
    if (count_ == 0)
        return 0;
    std::uint64_t rank =
        static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_)));
    if (rank == 0)
        rank = 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        seen += buckets_[i];
        if (seen >= rank)
            return std::min(bucketUpperBound(i), maxSeen_);
    }
    return maxSeen_;
}

std::uint64_t
LogHistogram::countAbove(Tick target) const
{
    if (count_ == 0)
        return 0;
    const std::size_t cut = bucketIndex(target);
    std::uint64_t above = 0;
    for (std::size_t i = cut + 1; i < buckets_.size(); ++i)
        above += buckets_[i];
    return above;
}

Summary
LogHistogram::summary() const
{
    Summary s;
    s.count = count_;
    s.mean = mean();
    s.p50 = percentile(0.50);
    s.p90 = percentile(0.90);
    s.p99 = percentile(0.99);
    s.p999 = percentile(0.999);
    s.max = maxSeen_;
    return s;
}

void
LogHistogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    count_ = 0;
    sum_ = 0.0;
    maxSeen_ = 0;
}

} // namespace altoc::stats
