/**
 * @file
 * Request arrival processes.
 *
 * Two traffic models from the paper's methodology (Sec. VII-B):
 *  - Poisson synthetic traces; and
 *  - a "real-world" bursty pattern standing in for the cloud-trained
 *    regression model of Bergsma et al. [9]. We substitute a 2-state
 *    Markov-modulated Poisson process (MMPP): a calm phase and a
 *    burst phase with exponentially distributed dwell times. This
 *    preserves the property the paper's evaluation relies on --
 *    time-varying arrival intensity that defeats fixed-policy
 *    schedulers -- while remaining fully deterministic given a seed
 *    (see DESIGN.md, substitutions).
 */

#ifndef ALTOC_WORKLOAD_ARRIVALS_HH
#define ALTOC_WORKLOAD_ARRIVALS_HH

#include <memory>
#include <string>

#include "common/rng.hh"
#include "common/units.hh"

namespace altoc::workload {

/**
 * Abstract arrival process generating inter-arrival gaps.
 */
class ArrivalProcess
{
  public:
    virtual ~ArrivalProcess() = default;

    /** Draw the gap (ns) until the next request arrives. */
    virtual Tick nextGap(Rng &rng) = 0;

    /** Long-run mean arrival rate, requests per ns. */
    virtual double meanRate() const = 0;

    virtual std::string name() const = 0;
};

/** Fixed inter-arrival gap (line-rate pacing / closed-form tests). */
class DeterministicArrivals : public ArrivalProcess
{
  public:
    explicit DeterministicArrivals(Tick gap);

    Tick nextGap(Rng &) override { return gap_; }
    double meanRate() const override { return 1.0 / gap_; }
    std::string name() const override { return "Deterministic"; }

  private:
    Tick gap_;
};

/** Poisson arrivals with rate lambda requests/ns. */
class PoissonArrivals : public ArrivalProcess
{
  public:
    explicit PoissonArrivals(double rate_per_ns);

    Tick nextGap(Rng &rng) override;
    double meanRate() const override { return rate_; }
    std::string name() const override { return "Poisson"; }

  private:
    double rate_;
};

/**
 * 2-state MMPP: alternates between a calm phase (rate
 * burst_factor-discounted) and a burst phase, with exponentially
 * distributed phase dwell times. Parameters are normalized so the
 * long-run mean rate equals @p rate_per_ns regardless of burstiness.
 */
class MmppArrivals : public ArrivalProcess
{
  public:
    /**
     * @param rate_per_ns  long-run mean arrival rate
     * @param burst_factor burst-phase rate multiplier vs mean (> 1)
     * @param burst_frac   fraction of time spent in the burst phase
     * @param mean_dwell   mean phase dwell time in ns
     */
    MmppArrivals(double rate_per_ns, double burst_factor = 3.0,
                 double burst_frac = 0.25, Tick mean_dwell = 50 * kUs);

    Tick nextGap(Rng &rng) override;
    double meanRate() const override { return rate_; }
    std::string name() const override { return "MMPP"; }

  private:
    double rate_;
    double calmRate_;
    double burstRate_;
    double burstFrac_;
    Tick meanDwell_;
    bool inBurst_ = false;
    Tick phaseLeft_ = 0;
};

/** Factory helpers. */
std::unique_ptr<ArrivalProcess> makePoisson(double rate_per_ns);
std::unique_ptr<ArrivalProcess> makeRealWorld(double rate_per_ns,
                                              Tick mean_service);

} // namespace altoc::workload

#endif // ALTOC_WORKLOAD_ARRIVALS_HH
