/**
 * @file
 * SLO (Service Level Objective) accounting.
 *
 * The paper's key metric is throughput@SLO: the highest request rate
 * a design sustains while the 99th-percentile latency stays within
 * L x the mean service time (L = 10 unless stated otherwise,
 * Sec. VII-B). SloTracker accumulates per-RPC outcomes against such a
 * target; violation ratio and percentile checks drive the sweeps in
 * src/system/sweep.*.
 */

#ifndef ALTOC_STATS_SLO_HH
#define ALTOC_STATS_SLO_HH

#include <cstdint>

#include "common/logging.hh"
#include "common/units.hh"
#include "stats/histogram.hh"

namespace altoc::stats {

/** Compute an SLO latency target of @p l_factor x @p mean_service. */
constexpr Tick
sloTarget(Tick mean_service, double l_factor)
{
    return static_cast<Tick>(static_cast<double>(mean_service) * l_factor);
}

/**
 * Tracks latency samples against a fixed SLO target, in the exact
 * SampleHistogram store.
 */
class SloTracker
{
  public:
    /**
     * @param log_scale serial stand-in for bench/perf/altoc_perf.cc,
     *        which passes WorkloadSpec::logLatencyHistogram here; only
     *        a benchmark change may edit that file. Must be false: the
     *        log-bucketed store is gone. The parameter goes with the
     *        next benchmark change.
     */
    explicit SloTracker(Tick target, bool log_scale = false)
        : target_(target)
    {
        altoc_assert(!log_scale, "the log-scale latency store is gone");
    }

    Tick target() const { return target_; }

    /** Pre-allocate for @p n samples. */
    void reserve(std::size_t n) { hist_.reserve(n); }

    /** Record one completed RPC's server-side latency. */
    void
    record(Tick latency)
    {
        hist_.record(latency);
        if (latency > target_)
            ++violations_;
    }

    std::uint64_t completed() const { return hist_.count(); }

    std::uint64_t violations() const { return violations_; }

    /** #SLO violations / #total requests (Sec. IV-A's ratio). */
    double
    violationRatio() const
    {
        const auto n = completed();
        return n ? static_cast<double>(violations_) / n : 0.0;
    }

    /** Value at quantile @p q. */
    Tick percentile(double q) const { return hist_.percentile(q); }

    /** True when the 99th percentile is within the SLO target. */
    bool
    meetsSlo() const
    {
        return completed() == 0 || percentile(0.99) <= target_;
    }

    Tick p99() const { return percentile(0.99); }

    /** Count, mean, p50/p90/p99/p999 and max of the store. */
    Summary summary() const { return hist_.summary(); }

    void
    reset()
    {
        hist_.reset();
        violations_ = 0;
    }

  private:
    Tick target_;
    SampleHistogram hist_;
    std::uint64_t violations_ = 0;
};

} // namespace altoc::stats

#endif // ALTOC_STATS_SLO_HH
