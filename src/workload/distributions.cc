/**
 * @file
 * Service-time distribution implementations.
 */

#include "workload/distributions.hh"

#include "common/logging.hh"

namespace altoc::workload {

// ---------------------------------------------------------------------
// UniformDist
// ---------------------------------------------------------------------

UniformDist::UniformDist(Tick lo, Tick hi)
    : lo_(lo), hi_(hi)
{
    altoc_assert(lo <= hi, "uniform bounds inverted");
}

ServiceSample
UniformDist::sample(Rng &rng) const
{
    return {rng.range(lo_, hi_), RequestKind::Generic};
}

double
UniformDist::mean() const
{
    return (static_cast<double>(lo_) + static_cast<double>(hi_)) / 2.0;
}

// ---------------------------------------------------------------------
// ExponentialDist
// ---------------------------------------------------------------------

ServiceSample
ExponentialDist::sample(Rng &rng) const
{
    const double v = rng.exponential(static_cast<double>(mean_));
    // Round up so no request has zero service demand.
    Tick t = static_cast<Tick>(v + 0.5);
    if (t == 0)
        t = 1;
    return {t, RequestKind::Generic};
}

// ---------------------------------------------------------------------
// BimodalDist
// ---------------------------------------------------------------------

BimodalDist::BimodalDist(double long_frac, Tick short_service,
                         Tick long_service)
    : longFrac_(long_frac), shortService_(short_service),
      longService_(long_service)
{
    altoc_assert(long_frac >= 0.0 && long_frac <= 1.0,
                 "long fraction out of range: %f", long_frac);
}

ServiceSample
BimodalDist::sample(Rng &rng) const
{
    if (rng.chance(longFrac_))
        return {longService_, RequestKind::Long};
    return {shortService_, RequestKind::Short};
}

double
BimodalDist::mean() const
{
    return longFrac_ * static_cast<double>(longService_) +
           (1.0 - longFrac_) * static_cast<double>(shortService_);
}

// ---------------------------------------------------------------------
// MicaMixDist
// ---------------------------------------------------------------------

MicaMixDist::MicaMixDist(double scan_frac, Tick rw_service,
                         Tick scan_service)
    : scanFrac_(scan_frac), rwService_(rw_service),
      scanService_(scan_service)
{
    altoc_assert(scan_frac >= 0.0 && scan_frac <= 1.0,
                 "scan fraction out of range: %f", scan_frac);
}

ServiceSample
MicaMixDist::sample(Rng &rng) const
{
    if (rng.chance(scanFrac_))
        return {scanService_, RequestKind::Scan};
    // 50/50 GET/SET query mix (Sec. IX-B).
    const RequestKind kind =
        rng.chance(0.5) ? RequestKind::Get : RequestKind::Set;
    return {rwService_, kind};
}

double
MicaMixDist::mean() const
{
    return scanFrac_ * static_cast<double>(scanService_) +
           (1.0 - scanFrac_) * static_cast<double>(rwService_);
}

// ---------------------------------------------------------------------
// Factories
// ---------------------------------------------------------------------

std::unique_ptr<ServiceDist>
makeFixed(Tick service)
{
    return std::make_unique<FixedDist>(service);
}

std::unique_ptr<ServiceDist>
makeUniformAround(Tick mean)
{
    // Symmetric +/-50% band around the mean, matching the "Uniform"
    // configuration used for Fig. 7.
    return std::make_unique<UniformDist>(mean / 2, mean + mean / 2);
}

std::unique_ptr<ServiceDist>
makeExponential(Tick mean)
{
    return std::make_unique<ExponentialDist>(mean);
}

std::unique_ptr<ServiceDist>
makePaperBimodal()
{
    // Sec. VIII-A: 99.5% of requests take 0.5 us, 0.5% take 500 us.
    return std::make_unique<BimodalDist>(0.005, 500, 500 * kUs);
}

} // namespace altoc::workload
