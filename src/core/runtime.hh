/**
 * @file
 * The software runtime's per-period decision procedure
 * (Sec. VI, Algorithm 1), factored as pure functions so the policy
 * is unit-testable independent of simulation timing. The
 * GroupScheduler (core/group.*) executes the returned decisions
 * through the hardware messaging mechanism.
 */

#ifndef ALTOC_CORE_RUNTIME_HH
#define ALTOC_CORE_RUNTIME_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/units.hh"
#include "core/params.hh"
#include "core/pattern.hh"

namespace altoc::core {

/** One MIGRATE the runtime decided to issue from the local manager. */
struct MigrationDecision
{
    unsigned dst;   //!< destination manager id
    unsigned count; //!< descriptors in this MIGRATE (the S of Alg. 1)
};

/** Result of one runtime invocation on one manager. */
struct RuntimeDecision
{
    Pattern pattern = Pattern::None;
    /** True when the local queue exceeded the threshold T. Evaluated
     *  only when the local queue holds at least one batch
     *  (migrateBatch); below that it stays false. */
    bool overThreshold = false;
    std::vector<MigrationDecision> migrations;
};

/**
 * Reusable working storage for decideMigrationsInto(). One instance
 * per manager lives for the whole run; after the first few periods
 * every vector has reached its high-water capacity and the per-period
 * decision procedure stops allocating.
 */
struct RuntimeScratch
{
    PatternResult pattern;
    std::vector<std::uint64_t> rank;
    std::vector<unsigned> dests;
    std::vector<std::size_t> q;
};

/**
 * Line 7's S = Bulk / Concurrency, at least 1: the descriptors one
 * MIGRATE carries. A manager whose queue is shorter than S sends
 * nothing this period (the line-8 guard).
 */
inline unsigned
migrateBatch(const AltocParams &params)
{
    return std::max(1u, params.bulk / std::max(1u, params.concurrency));
}

/**
 * Algorithm 1 for manager @p self: given the synchronized queue
 * view @p q, the current threshold @p threshold and the runtime
 * parameters, decide this period's MIGRATE messages.
 *
 * Implements:
 *  - the trigger conditions (q[self] > T, or a pattern match);
 *  - message sizing S = Bulk / Concurrency (line 7);
 *  - the line-8 guard (skip a migration that would leave the
 *    destination no shorter than the source), applied against a
 *    local copy of q updated as decisions accumulate.
 *
 * The pattern is always classified. When q[self] < S the guard
 * admits no MIGRATE whatever T and the plan say, so the decision
 * ends there: it reads neither @p threshold nor the plan, and
 * overThreshold stays false.
 */
RuntimeDecision decideMigrations(const std::vector<std::size_t> &q,
                                 unsigned self, unsigned threshold,
                                 const AltocParams &params);

/**
 * Allocation-free form of decideMigrations() for the per-period
 * runtime tick: all working vectors (and out.migrations) are
 * caller-owned and retain capacity across invocations. @p s is
 * migrateBatch(params), which the caller computes once per run.
 */
void decideMigrationsInto(const std::vector<std::size_t> &q,
                          unsigned self, unsigned threshold,
                          const AltocParams &params, unsigned s,
                          RuntimeScratch &scratch, RuntimeDecision &out);

/**
 * Manager-core occupancy of one runtime invocation (Sec. VI,
 * "Software-Hardware Interface" and Sec. VIII-E "Latency cost").
 *
 * The invocation performs: one altom_update, one altom_status, one
 * altom_predict_config, the threshold arithmetic (2 multiplies +
 * 2 adds + up to 3 compares, ~18 ns worst case at 2 GHz), and one
 * altom_send per MIGRATE issued. With the ISA interface each
 * register op costs ~2 cycles; with MSRs each costs ~100 cycles of
 * rdmsr/wrmsr syscall.
 */
Tick runtimeInvocationCost(Interface iface, unsigned migrates);

} // namespace altoc::core

#endif // ALTOC_CORE_RUNTIME_HH
