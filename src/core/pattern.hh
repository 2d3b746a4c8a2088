/**
 * @file
 * Queue-length pattern classification (Sec. VI).
 *
 * The runtime inspects the synchronized queue-length vector q each
 * period and classifies the imbalance:
 *
 *  - Hill:    the longest queue exceeds the second longest by at
 *             least Bulk -> drain the hill into the other queues.
 *  - Valley:  the shortest queue is below the second shortest by at
 *             least Bulk -> every manager sends one MIGRATE to the
 *             valley.
 *  - Pairing: gradual imbalance -> rank queues; the i-th longest
 *             migrates to the i-th shortest.
 *
 * Because q is synchronized across managers every period, all
 * managers classify identically and each acts only in its own role
 * (source, destination or bystander).
 */

#ifndef ALTOC_CORE_PATTERN_HH
#define ALTOC_CORE_PATTERN_HH

#include <cstdint>
#include <vector>

namespace altoc::core {

enum class Pattern : std::uint8_t
{
    None,
    Hill,
    Valley,
    Pairing,
};

const char *patternName(Pattern p);

/**
 * A planned migration: source manager -> destination manager.
 */
struct MigrationPlan
{
    unsigned src;
    unsigned dst;
};

/**
 * Classification + migration plan for one period's q vector.
 */
struct PatternResult
{
    Pattern pattern = Pattern::None;
    /** Global plan (same at every manager); each manager executes
     *  only the entries whose src is itself. */
    std::vector<MigrationPlan> plans;
};

/**
 * Classify @p q and derive the migration plan.
 *
 * @param q           queue length per manager
 * @param bulk        the Bulk parameter (imbalance granularity)
 * @param concurrency max concurrent destinations per source
 */
PatternResult classifyPattern(const std::vector<std::size_t> &q,
                              std::size_t bulk, unsigned concurrency);

/**
 * Allocation-free form of classifyPattern() for the per-period
 * runtime tick: the ranking scratch and the result (and its plans
 * vector) are caller-owned and reused across invocations, so a warm
 * runtime never allocates here. Only Hill and Pairing periods fill
 * and sort @p rank_scratch; None and Valley need just the two
 * longest and the two shortest queues, found in one pass.
 */
void classifyPatternInto(const std::vector<std::size_t> &q,
                         std::size_t bulk, unsigned concurrency,
                         std::vector<std::uint64_t> &rank_scratch,
                         PatternResult &out);

} // namespace altoc::core

#endif // ALTOC_CORE_PATTERN_HH
