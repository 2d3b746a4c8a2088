/**
 * @file
 * Runtime invariant auditing substrate.
 *
 * An Auditor observes a running simulation and records violations of
 * properties that must hold by construction: the checks are
 * independent re-derivations, not re-uses, of the code paths they
 * audit, so a bug in a hot path cannot hide itself. The base class
 * owns the violation ledger (each entry names the event id and tick
 * at which the violation was observed) and the one invariant the
 * simulator layer itself guarantees, monotone simulated time; the
 * scheduler-level invariants live in core/invariants.hh.
 *
 * Hook call sites compile away unless the build sets
 * ALTOC_AUDIT_ENABLED (CMake option ALTOC_AUDIT, default ON in Debug
 * builds), so release trees pay nothing. The Auditor classes
 * themselves are always compiled so the self-tests can drive them
 * directly in any configuration.
 */

#ifndef ALTOC_SIM_AUDITOR_HH
#define ALTOC_SIM_AUDITOR_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/units.hh"
#include "sim/event_queue.hh"

#ifndef ALTOC_AUDIT_ENABLED
#define ALTOC_AUDIT_ENABLED 0
#endif

/**
 * Invoke an auditor hook iff auditing is compiled in and an auditor
 * is attached: ALTOC_AUDIT_HOOK(aud, onInject(*r)). Expands to
 * nothing in non-audit builds.
 */
#if ALTOC_AUDIT_ENABLED
#define ALTOC_AUDIT_HOOK(aud, ...)                                          \
    do {                                                                    \
        if ((aud) != nullptr)                                               \
            (aud)->__VA_ARGS__;                                             \
    } while (0)
#else
#define ALTOC_AUDIT_HOOK(aud, ...)                                          \
    do {                                                                    \
    } while (0)
#endif

namespace altoc::net {
struct Rpc;
} // namespace altoc::net

namespace altoc::sim {

/** One observed invariant violation. */
struct AuditViolation
{
    /** Invariant name (stable identifier, e.g. "migrate-at-most-once"). */
    std::string invariant;

    /** Event being dispatched when the violation was observed
     *  (kNoEvent when outside event dispatch, e.g. at drain). */
    EventId event = kNoEvent;

    /** Simulated time of the observation. */
    Tick tick = 0;

    /** Human-readable specifics (ids, queue lengths, counts). */
    std::string detail;
};

/**
 * Base auditor: violation ledger plus the simulator-layer hooks.
 *
 * Subclasses add scheduler-level checks by overriding the no-op
 * hooks; they report findings through violate(), which stamps the
 * current event id and tick.
 */
class Auditor
{
  public:
    Auditor() = default;
    virtual ~Auditor() = default;

    Auditor(const Auditor &) = delete;
    Auditor &operator=(const Auditor &) = delete;

    // ----- simulator hooks -------------------------------------------

    /**
     * The simulator is about to dispatch event @p id at time @p when.
     * Checks monotone simulated time and establishes the (event,
     * tick) context every subsequent violate() is stamped with.
     * Virtual so a rack-level auditor can fan the simulator's single
     * hook out to its per-server auditors (audit builds only, so the
     * indirect call costs release runs nothing).
     */
    virtual void beginEvent(EventId id, Tick when);

    // ----- component hooks (no-ops here; see core::InvariantAuditor) -

    /** A descriptor entered the system through the NIC. */
    virtual void onInject(const net::Rpc &r) { (void)r; }

    /** A descriptor completed (including drop-completions). */
    virtual void onComplete(const net::Rpc &r) { (void)r; }

    /** A descriptor landed in group @p dst via a MIGRATE. */
    virtual void
    onMigrateIn(const net::Rpc &r, unsigned dst)
    {
        (void)r;
        (void)dst;
    }

    /** Periodic queue-length sample from queue/group @p queue. */
    virtual void
    onQueueSample(unsigned queue, std::size_t len)
    {
        (void)queue;
        (void)len;
    }

    /** A descriptor was shed at admission (degraded capacity). It
     *  leaves the system without executing, but is fully accounted:
     *  at drain, injected == completed + shed. */
    virtual void onShed(const net::Rpc &r) { (void)r; }

    /** A descriptor orphaned by a fail-stop (dead core's running or
     *  queued work) was rescued into live group/queue @p dst. */
    virtual void
    onRescue(const net::Rpc &r, unsigned dst)
    {
        (void)r;
        (void)dst;
    }

    /** The event queue drained: end-of-run conservation checks. */
    virtual void onDrain() {}

    // ----- ledger -----------------------------------------------------

    /**
     * Record a violation of @p invariant, stamped with the current
     * event id and tick. Storage is capped; past the cap only the
     * total count grows (a broken invariant usually fires per event,
     * and an unbounded ledger would OOM long runs).
     */
    void violate(const char *invariant, std::string detail);

    /** All recorded violations (up to the storage cap). */
    const std::vector<AuditViolation> &violations() const
    {
        return violations_;
    }

    /** Total violations observed, including past the storage cap. */
    std::uint64_t violationCount() const { return violationCount_; }

    /** True when no invariant has been violated. */
    bool ok() const { return violationCount_ == 0; }

    /**
     * Print the violation report: one line per violation naming the
     * invariant, event id, tick and detail. @p out defaults to
     * stderr.
     */
    void report(std::FILE *out = nullptr) const;

    /** Forget everything (ledger, counters, event context). */
    virtual void reset();

  private:
    static constexpr std::size_t kMaxStored = 64;

    std::vector<AuditViolation> violations_;
    std::uint64_t violationCount_ = 0;
    EventId curEvent_ = kNoEvent;
    Tick curTick_ = 0;
    bool sawEvent_ = false;
};

} // namespace altoc::sim

#endif // ALTOC_SIM_AUDITOR_HH
