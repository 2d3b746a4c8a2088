/**
 * @file
 * ALTOCUMULUS configuration parameters (Sec. III-A, "System
 * parameters" and Sec. VI "Programmer guidelines").
 */

#ifndef ALTOC_CORE_PARAMS_HH
#define ALTOC_CORE_PARAMS_HH

#include <cstdint>

#include "common/units.hh"

namespace altoc::core {

/** Software/hardware interface used by the runtime (Sec. VI / IX-D):
 *  custom altom_* instructions vs. x86 MSR syscalls. */
enum class Interface : std::uint8_t
{
    Isa, //!< altom_send/status/update/predict_config (~2 cycles each)
    Msr, //!< rdmsr/wrmsr (~100 cycles each)
};

/** Threshold selection policy (the Sec. IV-A trade-off). */
enum class ThresholdMode : std::uint8_t
{
    Model,      //!< Eq. 2 linear transform of Erlang-C E[Nq]
    LowerBound, //!< first-violation queue length (max recall)
    UpperBound, //!< k*L + 1 (max precision)
};

/**
 * Degraded-operation parameters of the hardened migration protocol.
 * Only consulted when a fault injector is attached to the run (see
 * sim/fault_injector.hh); a pristine run never arms timeouts, so the
 * no-fault path reproduces the paper's lossless-NoC behavior exactly.
 */
struct HardeningParams
{
    /** ACK deadline for an outstanding MIGRATE; past it the source
     *  reclaims or retries the batch. */
    Tick ackTimeout = 2 * kUs;

    /** Bounded retries toward an alternate destination before the
     *  batch is reclaimed into the local queue. */
    unsigned maxRetries = 2;

    /** Base retry backoff; doubles with every attempt. */
    Tick retryBackoff = 500;

    /** Consecutive timeouts/NACKs from a peer before the observer
     *  quarantines it. */
    unsigned quarantineAfter = 3;

    /** Quarantine probation: time before the first half-open probe
     *  (backed off exponentially on every further probe failure). */
    Tick probation = 20 * kUs;

    /**
     * Failed half-open probes against a quarantined peer before the
     * observer escalates the verdict from "quarantined" to
     * "declared dead" (permanent mask, no further probes; a manager
     * kill also triggers failover directly). Sized so a transient
     * stall of a few probation periods never reaches it: with
     * exponential backoff, 8 failures span 255x the base probation.
     */
    unsigned deadAfterProbes = 8;
};

/**
 * Tunable parameters of the ALTOCUMULUS runtime.
 */
struct AltocParams
{
    /** Interval between runtime invocations (swept 10-1000 ns in
     *  Fig. 11b; 200 ns is the paper's default sweet spot). */
    Tick period = 200;

    /** Maximum requests batched per migration operation (8-40;
     *  Fig. 11a finds 16 eliminates all violations). */
    unsigned bulk = 16;

    /** Concurrent flows (distinct destinations) per migration
     *  decision; "usually maximized to be N" (Sec. VI). */
    unsigned concurrency = 8;

    /** SLO target as a multiple of mean service time (L). */
    double sloFactor = 10.0;

    /** Runtime-to-hardware interface flavor. */
    Interface iface = Interface::Isa;

    /** How the migration threshold T is chosen (Sec. IV-A's
     *  accuracy-vs-traffic trade-off). */
    ThresholdMode thresholdMode = ThresholdMode::Model;

    /** Measured first-violation queue length for LowerBound mode
     *  (from core/calibration.*); 0 falls back to the model. */
    unsigned lowerBoundThreshold = 0;

    /**
     * Offered-load override in Erlangs per group; negative means
     * "estimate online" via LoadEstimator. Benches that sweep load
     * set this to the known offered load, mirroring the paper's
     * offline component receiving lambda.
     */
    double loadOverride = -1.0;

    /** Enable the proactive migration runtime. */
    bool migrationEnabled = true;

    /** Use the hardware register-messaging mechanism; false falls
     *  back to shared-cache software messaging (case study 1's
     *  rt-only configuration). */
    bool hardwareMessaging = true;

    /** Timeout/retry/quarantine knobs for runs with fault injection. */
    HardeningParams hardening;
};

/** Averaging window of the online LoadEstimator, which runs when
 *  AltocParams::loadOverride is negative. */
constexpr Tick kLoadWindow = 10 * kUs;

/**
 * Extra demand a request pays each time a finite worker quantum
 * (GroupScheduler::Config::workerQuantum, an extension beyond the
 * paper) preempts it back to its group's NetRX.
 */
constexpr Tick kGroupPreemptCost = 200;

namespace hw {

/** Migration register entries per manager tile (Sec. V-B: E[Nq] ~ 11
 *  near saturation -> one 154 B MR bank of 11 x 14 B entries). */
constexpr unsigned kMrEntries = 11;

/** Send/receive FIFO depth (Sec. V-B: 16 x 14 B = 224 B). */
constexpr unsigned kFifoEntries = 16;

/** MIGRATE/UPDATE/ACK message header size in bytes. */
constexpr unsigned kHeaderBytes = 8;

/** Controller per-message processing time. */
constexpr Tick kControllerNs = 2;

/** Migrator throughput: descriptors moved per ns between the FIFO
 *  and the MR bank. */
constexpr unsigned kMigratorDescsPerNs = 2;

/** Software (shared-cache) messaging costs when the hardware
 *  mechanism is disabled: 2-3 cache-miss round trips. */
constexpr Tick kSwMessageNs = 300;
constexpr Tick kSwUpdateNs = 150;

} // namespace hw

} // namespace altoc::core

#endif // ALTOC_CORE_PARAMS_HH
