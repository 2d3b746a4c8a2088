/**
 * @file
 * SLO-violation threshold prediction (Sec. IV).
 *
 * The migration threshold T is the local queue length beyond which
 * newly queued requests are predicted to violate the SLO. The model,
 * Eq. 2, is a linear transformation of the Erlang-C expected queue
 * length:
 *
 *     E[T-hat] = a * E[c * Nq-hat + d] + b
 *              = a * c * E[Nq-hat] + a * d + b
 *
 * with constants (a, b, c, d) determined empirically per service-time
 * distribution by the offline calibration pass (core/calibration.*).
 * The paper's Fig. 7d quotes a = 1.01, c = 0.998, b = d = 0 for the
 * Fixed distribution; we ship calibrated defaults for Fixed, Uniform
 * and Bimodal.
 *
 * Two reference bounds frame the trade-off of Sec. IV-A:
 *  - Tlower: queue length at the first observed violation (saves all
 *    violators, maximal false-positive traffic);
 *  - Tupper = k * L + 1: the naive bound (every migration is
 *    justified, but most violators are missed).
 */

#ifndef ALTOC_CORE_PREDICTION_HH
#define ALTOC_CORE_PREDICTION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hh"

namespace altoc::core {

/** Linear-transform constants of Eq. 2. */
struct ModelConstants
{
    double a = 1.01;
    double b = 0.0;
    double c = 0.998;
    double d = 0.0;
};

/** Calibrated defaults per named service distribution. */
ModelConstants defaultConstants(const std::string &dist_name);

/**
 * The threshold predictor each manager evaluates every period.
 */
class ThresholdModel
{
  public:
    /**
     * @param k        worker cores served per manager group
     * @param l_factor SLO multiple L (SLO = L x mean service time)
     * @param consts   Eq. 2 constants for the workload's distribution
     */
    ThresholdModel(unsigned k, double l_factor, ModelConstants consts);

    /** Eq. 2: expected threshold for offered load @p a Erlangs. */
    double expectedThreshold(double a) const;

    /**
     * The integral threshold the runtime compares queue lengths
     * against; clamped to [1, upperBound()].
     *
     * Memoized: threshold() is a monotone step function of the load
     * (Eq. 2 is a monotone transform of the Erlang-C expected queue
     * length, then clamped and rounded), so a quantized lookup table
     * built at construction answers almost every per-period query
     * with two table reads instead of the O(k) Erlang recurrence.
     * When the two grid values bracketing @p a agree, monotonicity
     * makes that value *exact*; only queries landing on one of the
     * (few) step boundaries fall through to the direct solve, so the
     * result is bit-identical to the unmemoized model by
     * construction.
     */
    unsigned threshold(double a) const;

    /** Naive bound k*L + 1 (Sec. IV-A). */
    unsigned upperBound() const;

    unsigned k() const { return k_; }
    double lFactor() const { return lFactor_; }
    const ModelConstants &constants() const { return consts_; }

    /** Memo-table queries answered without an Erlang solve. */
    std::uint64_t memoHits() const { return memoHits_; }
    /** Queries that fell through to the direct solve. */
    std::uint64_t memoMisses() const { return memoMisses_; }

  private:
    /** Direct (unmemoized) solve of threshold(). */
    unsigned solveThreshold(double a) const;

    unsigned k_;
    double lFactor_;
    ModelConstants consts_;

    /** Quantized-load lookup table over [0, k): memo_[i] is the
     *  direct solve at load i * memoStep_. */
    std::vector<unsigned> memo_;
    double memoStep_ = 0.0;
    /** Loads at or above this (the Eq. 2 saturation clamp point,
     *  k - 1e-6) all produce satThreshold_. */
    double memoMax_ = 0.0;
    unsigned satThreshold_ = 0;
    mutable std::uint64_t memoHits_ = 0;
    mutable std::uint64_t memoMisses_ = 0;
};

/**
 * Online load estimator: exponentially weighted arrival-rate tracker
 * that turns observed inter-arrival counts into an offered load
 * estimate A = lambda * mean_service (Erlangs), the input to
 * ThresholdModel. The paper's runtime reads "the current system
 * load" each period (Sec. III); this is that measurement.
 */
class LoadEstimator
{
  public:
    /** @param mean_service mean request service time (ns); the
     *  averaging window is kLoadWindow. */
    explicit LoadEstimator(Tick mean_service);

    /** Record one arrival at time @p now. */
    void onArrival(Tick now);

    /** Current offered load estimate in Erlangs. */
    double offeredLoad(Tick now) const;

    std::uint64_t arrivals() const { return arrivals_; }

  private:
    double meanService_;
    /** EWMA of the arrival rate (requests per ns). */
    mutable double rate_ = 0.0;
    mutable Tick lastUpdate_ = 0;
    std::uint64_t arrivals_ = 0;
};

} // namespace altoc::core

#endif // ALTOC_CORE_PREDICTION_HH
