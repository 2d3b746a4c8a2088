/**
 * @file
 * Latency statistics: an exact sample recorder for modest runs and a
 * log-bucketed (HdrHistogram-style) recorder for long runs.
 *
 * Evaluation in the paper reports 99th-percentile latency and SLO
 * violation ratios (Sec. II-A); both recorders expose percentile
 * queries, means and violation counting against a target.
 */

#ifndef ALTOC_STATS_HISTOGRAM_HH
#define ALTOC_STATS_HISTOGRAM_HH

#include <cstdint>
#include <vector>

#include "common/units.hh"

namespace altoc::stats {

/** Summary of a latency distribution (all values in ns). */
struct Summary
{
    std::uint64_t count = 0;
    double mean = 0.0;
    Tick p50 = 0;
    Tick p90 = 0;
    Tick p99 = 0;
    Tick p999 = 0;
    Tick max = 0;
};

/**
 * Exact-sample latency recorder. Stores every sample; percentile
 * queries sort lazily, and summary() selects its order statistics
 * without sorting. Suitable up to a few tens of millions of samples.
 */
class SampleHistogram
{
  public:
    SampleHistogram() = default;

    /** Pre-allocate capacity for @p n samples. */
    void reserve(std::size_t n) { samples_.reserve(n); }

    /** Record one latency sample. */
    void
    record(Tick value)
    {
        samples_.push_back(value);
        sum_ += value;
        sorted_ = false;
    }

    std::uint64_t count() const { return samples_.size(); }

    double mean() const;

    /** Value at quantile @p q in [0, 1]; 0 when empty. */
    Tick percentile(double q) const;

    Tick max() const;

    /** Number of samples strictly greater than @p target. */
    std::uint64_t countAbove(Tick target) const;

    /** Fraction of samples strictly greater than @p target. */
    double fractionAbove(Tick target) const;

    /** Count, mean, p50/p90/p99/p999 and max. The store is
     *  partitioned by a cascade of selections (linear time), not
     *  sorted; the values equal percentile()'s. */
    Summary summary() const;

    /** Drop all samples. */
    void reset();

    /** Read-only access to the raw samples (recording order not
     *  guaranteed once a percentile query or summary() has run). */
    const std::vector<Tick> &samples() const { return samples_; }

  private:
    void ensureSorted() const;

    mutable std::vector<Tick> samples_;
    mutable bool sorted_ = false;
    double sum_ = 0.0;
};

/**
 * Log-bucketed histogram with bounded relative error, for runs whose
 * sample count makes exact storage wasteful. Values are grouped into
 * power-of-two ranges each split into 2^subBits linear sub-buckets,
 * giving a worst-case relative error of 2^-subBits.
 */
class LogHistogram
{
  public:
    /** @param sub_bits sub-bucket precision (default ~0.8% error). */
    explicit LogHistogram(unsigned sub_bits = 7);

    void record(Tick value);

    std::uint64_t count() const { return count_; }

    double mean() const { return count_ ? sum_ / count_ : 0.0; }

    /** Approximate value at quantile @p q in [0, 1]. */
    Tick percentile(double q) const;

    Tick max() const { return maxSeen_; }

    std::uint64_t countAbove(Tick target) const;

    double
    fractionAbove(Tick target) const
    {
        return count_ ? static_cast<double>(countAbove(target)) / count_
                      : 0.0;
    }

    Summary summary() const;

    void reset();

  private:
    std::size_t bucketIndex(Tick value) const;
    Tick bucketUpperBound(std::size_t index) const;

    unsigned subBits_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    Tick maxSeen_ = 0;
};

} // namespace altoc::stats

#endif // ALTOC_STATS_HISTOGRAM_HH
