/**
 * @file
 * Threshold model and load estimator implementations.
 */

#include "core/prediction.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "core/erlang.hh"
#include "core/params.hh"

namespace altoc::core {

ModelConstants
defaultConstants(const std::string &dist_name)
{
    // Shipped calibration results (see core/calibration.* and the
    // fig07 bench, which regenerates them). The Fixed entry matches
    // the constants the paper quotes in Fig. 7d.
    if (dist_name == "Fixed")
        return ModelConstants{1.01, 0.0, 0.998, 0.0};
    if (dist_name == "Uniform")
        return ModelConstants{0.97, 0.0, 0.998, 0.0};
    // The MICA mix is bimodal too (99.5% GET/SET at 50 ns, 0.5%
    // SCANs) and has no calibration of its own, so it takes the
    // Bimodal constants every Fig. 14 result was produced with.
    if (dist_name == "Bimodal" || dist_name == "MicaMix")
        return ModelConstants{1.12, 4.0, 0.998, 0.0};
    if (dist_name == "Exponential")
        return ModelConstants{1.05, 0.0, 0.998, 0.0};
    // Unknown workloads fall back to the Fixed constants; the
    // calibration pass can refine them offline.
    return ModelConstants{};
}

namespace {

/** Memo-table resolution: grid points over [0, k). Thresholds for
 *  realistic (k, L) span at most a few dozen distinct values, so at
 *  2048 cells nearly every cell has equal endpoints and resolves
 *  without a direct solve once its endpoints are filled. */
constexpr std::size_t kMemoPoints = 2048;

} // namespace

ThresholdModel::ThresholdModel(unsigned k, double l_factor,
                               ModelConstants consts)
    : k_(k), lFactor_(l_factor), consts_(consts)
{
    altoc_assert(k > 0, "threshold model needs at least one worker");
    altoc_assert(l_factor > 1.0, "SLO factor must exceed 1");

    // Lay out the quantized-load table; threshold() fills its cells
    // on demand. Eq. 2 clamps the load to k - 1e-6, so beyond
    // memoMax_ the threshold is a constant.
    memoMax_ = static_cast<double>(k_) - 1e-6;
    memoStep_ = memoMax_ / static_cast<double>(kMemoPoints);
    satThreshold_ = solveThreshold(memoMax_);
}

double
ThresholdModel::expectedThreshold(double a) const
{
    // Linearity of expectation collapses Eq. 2 to
    // a*c*E[Nq] + a*d + b.
    const double nq = expectedQueueLength(k_, std::min(
        a, static_cast<double>(k_) - 1e-6));
    return consts_.a * consts_.c * nq + consts_.a * consts_.d +
           consts_.b;
}

unsigned
ThresholdModel::solveThreshold(double a) const
{
    const double t = expectedThreshold(a);
    const double upper = static_cast<double>(upperBound());
    const double clamped = std::clamp(t, 1.0, upper);
    return static_cast<unsigned>(clamped + 0.5);
}

unsigned
ThresholdModel::cell(std::size_t i) const
{
    // A solved threshold is clamped to >= 1, so 0 marks an unsolved
    // cell.
    unsigned &t = memo_[i];
    if (t == 0)
        t = solveThreshold(static_cast<double>(i) * memoStep_);
    return t;
}

unsigned
ThresholdModel::threshold(double a) const
{
    // Saturated region: Eq. 2 clamps the load to memoMax_, so the
    // answer is the cached constant.
    if (a >= memoMax_)
        return satThreshold_;
    if (a >= 0.0) {
        if (memo_.empty())
            memo_.resize(kMemoPoints + 1, 0);
        std::size_t i = static_cast<std::size_t>(a / memoStep_);
        if (i >= kMemoPoints)
            i = kMemoPoints - 1;
        const double lo = static_cast<double>(i) * memoStep_;
        const double hi = static_cast<double>(i + 1) * memoStep_;
        // threshold() is monotone in a (round-of-clamp-of-monotone),
        // so equal bracketing grid values pin the answer exactly.
        if (lo <= a && a <= hi) {
            const unsigned t = cell(i);
            if (t == cell(i + 1))
                return t;
        }
    }
    return solveThreshold(a);
}

unsigned
ThresholdModel::upperBound() const
{
    return static_cast<unsigned>(static_cast<double>(k_) * lFactor_) + 1;
}

namespace {

constexpr double kWindow = static_cast<double>(kLoadWindow);

} // namespace

LoadEstimator::LoadEstimator(Tick mean_service)
    : meanService_(static_cast<double>(mean_service))
{
    altoc_assert(mean_service > 0, "mean service must be positive");
}

void
LoadEstimator::onArrival(Tick now)
{
    ++arrivals_;
    if (arrivals_ == 1) {
        lastUpdate_ = now;
        return;
    }
    const double dt =
        static_cast<double>(now - lastUpdate_);
    lastUpdate_ = now;
    if (dt <= 0.0)
        return;
    // EWMA with a time-proportional gain: fast gaps barely move the
    // estimate, window-sized gaps replace it.
    const double inst = 1.0 / dt;
    const double alpha = std::min(1.0, dt / kWindow);
    rate_ = (1.0 - alpha) * rate_ + alpha * inst;
}

double
LoadEstimator::offeredLoad(Tick now) const
{
    if (arrivals_ < 2)
        return 0.0;
    double rate = rate_;
    // Decay the estimate across arrival droughts so a silent queue
    // is not treated as loaded.
    const double idle = static_cast<double>(now - lastUpdate_);
    if (idle > kWindow)
        rate *= kWindow / idle;
    return rate * meanService_;
}

} // namespace altoc::core
