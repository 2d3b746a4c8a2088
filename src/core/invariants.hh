/**
 * @file
 * Scheduler-level invariants of the ALTOCUMULUS design, machine-
 * checked at runtime by the InvariantAuditor (every Server attaches
 * one to its region in builds with ALTOC_AUDIT, where the hooks
 * compile in).
 *
 * The properties audited are the ones the paper's claims rest on:
 *
 *  - descriptor-conservation: every descriptor injected through the
 *    NIC is completed (or drop-completed) exactly once, or -- under
 *    fail-stop fault injection -- explicitly shed at admission; at
 *    drain injected == completed + shed and nothing is still live.
 *    Rescued descriptors (orphans of a dead core re-homed to a live
 *    peer) stay live until they complete, so rescue never hides a
 *    loss.
 *  - migrate-at-most-once: a request leaves its home NetRX via
 *    MIGRATE at most one time (Sec. V-B optimization 4). NACKed
 *    migrations never landed, so they do not count.
 *  - shorter-queue-guard: Algorithm 1 line 8 -- a MIGRATE of S
 *    requests is only issued when it leaves the source strictly
 *    ahead of the destination, evaluated against the queue view as
 *    decisions accumulate within one period.
 *  - non-negative-queue: queue lengths and occupancy counters never
 *    underflow (unsigned wrap-around shows up as an absurd length).
 *  - return-accounting: a NACKed batch that is handed back leaves
 *    the manager's self queue-view equal to the actual NetRX length
 *    in the same tick.
 *  - no-duplicate-reclaim: a timed-out batch reclaimed locally holds
 *    only live, never-landed requests (fault-injection runs; a
 *    reclaim racing a delivery would execute a request twice).
 *  - monotone-time: simulated time never moves backwards (checked by
 *    the sim::Auditor base).
 */

#ifndef ALTOC_CORE_INVARIANTS_HH
#define ALTOC_CORE_INVARIANTS_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/units.hh"
#include "core/runtime.hh"
#include "net/rpc.hh"
#include "sim/auditor.hh"

namespace altoc::core {

/**
 * Algorithm 1 line 8 as a pure predicate: moving @p s requests from
 * a queue of length @p qsrc to one of length @p qdst is allowed only
 * when the source stays strictly ahead. Shared by the runtime's
 * decision loop and the auditor's independent re-check, so the guard
 * has exactly one definition.
 */
constexpr bool
migrationLeavesSourceAhead(std::size_t qsrc, std::size_t qdst, unsigned s)
{
    return qsrc >= s && qsrc - s >= qdst + s;
}

/**
 * Concrete auditor for the scheduler invariants above.
 *
 * Live descriptors are keyed by pool pointer: the RpcPool recycles
 * both ids and storage, but a completion always removes the entry
 * before the pointer can be reused, so pointer identity is exact
 * while a request is in flight.
 */
class InvariantAuditor : public sim::Auditor
{
  public:
    /** Aggregate audit counters (also useful in tests/benches). */
    struct Counters
    {
        std::uint64_t injected = 0;
        std::uint64_t completed = 0;
        std::uint64_t droppedCompleted = 0;
        std::uint64_t migrations = 0;
        std::uint64_t decisionsChecked = 0;
        std::uint64_t reclaims = 0;
        std::uint64_t returnsChecked = 0;
        std::uint64_t shed = 0;
        std::uint64_t rescues = 0;
    };

    // sim::Auditor hooks
    void onInject(const net::Rpc &r) override;
    void onComplete(const net::Rpc &r) override;
    void onMigrateIn(const net::Rpc &r, unsigned dst) override;
    void onQueueSample(unsigned queue, std::size_t len) override;
    void onShed(const net::Rpc &r) override;
    void onRescue(const net::Rpc &r, unsigned dst) override;
    void onDrain() override;

    /**
     * Re-check one period's RuntimeDecision for manager @p self
     * against the queue view @p q it was derived from, replaying the
     * line-8 guard with its accumulating working copy.
     */
    void checkDecision(const std::vector<std::size_t> &q, unsigned self,
                       const RuntimeDecision &dec);

    /**
     * After a NACK hands a batch back, manager @p g's self view must
     * equal its actual NetRX length in the same tick -- a stale view
     * would let the next decision double-count returned requests.
     */
    void checkReturnAccounting(unsigned g, std::size_t view,
                               std::size_t actual);

    /**
     * A timed-out MIGRATE batch was reclaimed into group @p g's local
     * queue. The request must still be live (reclaiming a descriptor
     * the destination also received would execute it twice) and must
     * not carry the migrated-once mark (marked requests landed
     * somewhere; reclaiming them here duplicates them).
     */
    void onReclaim(const net::Rpc &r, unsigned g);

    const Counters &counters() const { return c_; }

    /** Descriptors currently live (injected, not yet completed). */
    std::size_t liveDescriptors() const { return live_.size(); }

    void reset() override;

  private:
    /** Queue lengths at or beyond this are unsigned underflow in
     *  disguise: no simulated workload reaches 2^48 requests. */
    static constexpr std::size_t kQueueSane = std::size_t{1} << 48;

    /** Migration count per live descriptor. */
    std::unordered_map<const net::Rpc *, unsigned> live_;
    Counters c_;
};

} // namespace altoc::core

#endif // ALTOC_CORE_INVARIANTS_HH
