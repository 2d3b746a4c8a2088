/**
 * @file
 * Pattern classification and Algorithm 1 decision tests, including
 * the paper's walk-through example (Sec. VI).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <set>

#include "common/rng.hh"
#include "core/pattern.hh"
#include "core/runtime.hh"

using namespace altoc;
using namespace altoc::core;

TEST(Pattern, PaperWalkThroughExample)
{
    // Sec. VI: Bulk=40, Concurrency=4, q=[30,30,70,30] -> Hill; the
    // 3rd queue's manager sends one MIGRATE of 10 descriptors to
    // each of queues {0, 1, 3}.
    const std::vector<std::size_t> q{30, 30, 70, 30};
    const PatternResult res = classifyPattern(q, 40, 4);
    EXPECT_EQ(res.pattern, Pattern::Hill);
    std::set<unsigned> dsts;
    for (const auto &plan : res.plans) {
        EXPECT_EQ(plan.src, 2u);
        dsts.insert(plan.dst);
    }
    EXPECT_EQ(dsts, (std::set<unsigned>{0, 1, 3}));
}

TEST(Pattern, BalancedIsNone)
{
    EXPECT_EQ(classifyPattern({10, 10, 10, 10}, 8, 4).pattern,
              Pattern::None);
    EXPECT_EQ(classifyPattern({10, 12, 11, 13}, 8, 4).pattern,
              Pattern::None);
}

TEST(Pattern, HillRequiresBulkGap)
{
    // Gap of exactly bulk triggers; one less does not.
    EXPECT_EQ(classifyPattern({10, 10, 18, 10}, 8, 4).pattern,
              Pattern::Hill);
    EXPECT_EQ(classifyPattern({10, 10, 17, 10}, 8, 4).pattern,
              Pattern::None);
}

TEST(Pattern, ValleyDetected)
{
    // One starved queue, rest level.
    const PatternResult res = classifyPattern({20, 20, 2, 20}, 8, 4);
    EXPECT_EQ(res.pattern, Pattern::Valley);
    ASSERT_EQ(res.plans.size(), 3u);
    for (const auto &plan : res.plans) {
        EXPECT_EQ(plan.dst, 2u);
        EXPECT_NE(plan.src, 2u);
    }
}

TEST(Pattern, PairingGradualImbalance)
{
    // Gradual slope: no single outlier on either end.
    const PatternResult res =
        classifyPattern({40, 34, 28, 22, 16, 10}, 12, 3);
    EXPECT_EQ(res.pattern, Pattern::Pairing);
    ASSERT_FALSE(res.plans.empty());
    // Longest feeds shortest, second-longest feeds second-shortest.
    EXPECT_EQ(res.plans[0].src, 0u);
    EXPECT_EQ(res.plans[0].dst, 5u);
    if (res.plans.size() > 1) {
        EXPECT_EQ(res.plans[1].src, 1u);
        EXPECT_EQ(res.plans[1].dst, 4u);
    }
}

TEST(Pattern, ConcurrencyCapsHillDestinations)
{
    const std::vector<std::size_t> q{100, 1, 1, 1, 1, 1, 1, 1};
    const PatternResult res = classifyPattern(q, 16, 3);
    EXPECT_EQ(res.pattern, Pattern::Hill);
    EXPECT_EQ(res.plans.size(), 3u);
}

TEST(Pattern, TiesBreakDeterministically)
{
    const std::vector<std::size_t> q{50, 50, 10, 10};
    const PatternResult a = classifyPattern(q, 8, 4);
    const PatternResult b = classifyPattern(q, 8, 4);
    ASSERT_EQ(a.plans.size(), b.plans.size());
    for (std::size_t i = 0; i < a.plans.size(); ++i) {
        EXPECT_EQ(a.plans[i].src, b.plans[i].src);
        EXPECT_EQ(a.plans[i].dst, b.plans[i].dst);
    }
}

TEST(Pattern, DegenerateInputs)
{
    EXPECT_EQ(classifyPattern({}, 8, 4).pattern, Pattern::None);
    EXPECT_EQ(classifyPattern({5}, 8, 4).pattern, Pattern::None);
    EXPECT_EQ(classifyPattern({5, 50}, 0, 4).pattern, Pattern::None);
}

TEST(Pattern, TwoQueues)
{
    const PatternResult res = classifyPattern({40, 4}, 16, 2);
    EXPECT_EQ(res.pattern, Pattern::Hill);
    ASSERT_EQ(res.plans.size(), 1u);
    EXPECT_EQ(res.plans[0].src, 0u);
    EXPECT_EQ(res.plans[0].dst, 1u);
}

// ---------------------------------------------------------------------
// Algorithm 1 decisions
// ---------------------------------------------------------------------

namespace {

AltocParams
params(unsigned bulk, unsigned conc)
{
    AltocParams p;
    p.bulk = bulk;
    p.concurrency = conc;
    return p;
}

} // namespace

TEST(Runtime, WalkThroughMigrationSizes)
{
    // The paper's example: S = Bulk/Concurrency = 10 per MIGRATE.
    const std::vector<std::size_t> q{30, 30, 70, 30};
    const RuntimeDecision dec =
        decideMigrations(q, 2, /*threshold=*/1000, params(40, 4));
    EXPECT_EQ(dec.pattern, Pattern::Hill);
    ASSERT_EQ(dec.migrations.size(), 3u);
    for (const auto &m : dec.migrations)
        EXPECT_EQ(m.count, 10u);
}

TEST(Runtime, NonSourceManagerDoesNothing)
{
    const std::vector<std::size_t> q{30, 30, 70, 30};
    const RuntimeDecision dec =
        decideMigrations(q, 0, 1000, params(40, 4));
    EXPECT_TRUE(dec.migrations.empty());
}

TEST(Runtime, Line8GuardBlocksHarmfulMoves)
{
    // Moving S=10 from 25 to 20 would leave src 15 < dst 30: blocked.
    const std::vector<std::size_t> q{25, 20};
    const RuntimeDecision dec =
        decideMigrations(q, 0, /*threshold=*/1, params(20, 2));
    EXPECT_TRUE(dec.migrations.empty());
}

TEST(Runtime, Line8GuardAccumulatesAcrossDecisions)
{
    // Hill with enough gap for one batch but not two to the same
    // level: the working copy of q must be updated between entries.
    const std::vector<std::size_t> q{44, 10, 12, 11};
    const RuntimeDecision dec =
        decideMigrations(q, 0, 1000, params(30, 3));
    // S = 10. First moves are allowed until the guard trips.
    std::size_t src = 44;
    for (const auto &m : dec.migrations) {
        EXPECT_GE(src - 10, q[m.dst] + 10 + (src == 44 ? 0 : 0));
        src -= 10;
    }
    EXPECT_LE(dec.migrations.size(), 3u);
    EXPECT_GE(dec.migrations.size(), 1u);
}

TEST(Runtime, OverThresholdWithoutPatternStillMigrates)
{
    // Uniformly deep queues: no pattern, but self is over T.
    const std::vector<std::size_t> q{200, 198, 199, 197};
    const RuntimeDecision dec =
        decideMigrations(q, 0, /*threshold=*/50, params(16, 2));
    EXPECT_TRUE(dec.overThreshold);
    // Guard blocks all moves (destinations equally deep).
    EXPECT_TRUE(dec.migrations.empty());
}

TEST(Runtime, OverThresholdPrefersShortestDestinations)
{
    const std::vector<std::size_t> q{200, 180, 5, 190};
    const RuntimeDecision dec =
        decideMigrations(q, 0, /*threshold=*/50, params(16, 1));
    ASSERT_EQ(dec.migrations.size(), 1u);
    EXPECT_EQ(dec.migrations[0].dst, 2u);
}

TEST(Runtime, MinimumBatchIsOne)
{
    const std::vector<std::size_t> q{40, 4};
    const RuntimeDecision dec =
        decideMigrations(q, 0, 1000, params(2, 4));
    ASSERT_FALSE(dec.migrations.empty());
    EXPECT_EQ(dec.migrations[0].count, 1u);
}

TEST(Runtime, InvocationCostIsaVsMsr)
{
    const Tick isa0 = runtimeInvocationCost(Interface::Isa, 0);
    const Tick msr0 = runtimeInvocationCost(Interface::Msr, 0);
    EXPECT_LT(isa0, msr0);
    // Paper: worst-case prediction latency ~18 ns at 2 GHz with the
    // ISA interface.
    EXPECT_LE(isa0, 20u);
    // MSR ops cost ~50 ns each; three of them dominate.
    EXPECT_GE(msr0, 140u);
    // Each MIGRATE adds one interface op.
    EXPECT_EQ(runtimeInvocationCost(Interface::Isa, 4) - isa0,
              4 * lat::kIsaAccess);
    EXPECT_EQ(runtimeInvocationCost(Interface::Msr, 4) - msr0,
              4 * lat::kMsrAccess);
}

// ---------------------------------------------------------------------
// Randomized checks against references that sort the whole ranking.
// ---------------------------------------------------------------------

namespace {

/** Sec. VI's classification read straight off the full ranking:
 *  longest queue first, ties to the lower index. */
PatternResult
referenceClassify(const std::vector<std::size_t> &q, std::size_t bulk,
                  unsigned concurrency)
{
    PatternResult res;
    const std::size_t n = q.size();
    if (n < 2 || bulk == 0)
        return res;
    std::vector<unsigned> rank(n);
    std::iota(rank.begin(), rank.end(), 0u);
    std::stable_sort(rank.begin(), rank.end(),
                     [&q](unsigned a, unsigned b) { return q[a] > q[b]; });
    const unsigned longest = rank[0];
    const unsigned shortest = rank[n - 1];
    if (q[longest] >= q[rank[1]] + bulk) {
        res.pattern = Pattern::Hill;
        const std::size_t dsts = std::min<std::size_t>(concurrency, n - 1);
        for (std::size_t i = 0; i < dsts; ++i) {
            if (rank[n - 1 - i] != longest)
                res.plans.push_back({longest, rank[n - 1 - i]});
        }
    } else if (q[shortest] + bulk <= q[rank[n - 2]]) {
        res.pattern = Pattern::Valley;
        for (unsigned src = 0; src < n; ++src) {
            if (src != shortest)
                res.plans.push_back({src, shortest});
        }
    } else if (q[longest] >= q[shortest] + bulk) {
        res.pattern = Pattern::Pairing;
        const std::size_t pairs = std::min<std::size_t>(concurrency, n / 2);
        for (std::size_t i = 0; i < pairs; ++i) {
            const unsigned src = rank[i];
            const unsigned dst = rank[n - 1 - i];
            if (src != dst && q[src] >= q[dst] + bulk)
                res.plans.push_back({src, dst});
        }
        if (res.plans.empty())
            res.pattern = Pattern::None;
    }
    return res;
}

/** A random queue view with many ties: most entries share a few
 *  levels, a few are outliers (hills and valleys). */
std::vector<std::size_t>
randomView(Rng &rng, std::size_t n)
{
    const std::uint64_t levels = 1 + rng.below(6);
    const std::uint64_t step = 1 + rng.below(12);
    std::vector<std::size_t> q(n);
    for (std::size_t &v : q) {
        v = rng.below(levels) * step;
        if (rng.chance(0.05))
            v += rng.below(200);
    }
    return q;
}

bool
samePlans(const PatternResult &a, const PatternResult &b)
{
    if (a.pattern != b.pattern || a.plans.size() != b.plans.size())
        return false;
    for (std::size_t i = 0; i < a.plans.size(); ++i) {
        if (a.plans[i].src != b.plans[i].src ||
            a.plans[i].dst != b.plans[i].dst) {
            return false;
        }
    }
    return true;
}

} // namespace

TEST(Pattern, MatchesFullRankingReference)
{
    Rng rng(2022);
    std::vector<std::uint64_t> rank;
    PatternResult got;
    std::array<unsigned, 4> seen{};
    for (int iter = 0; iter < 20000; ++iter) {
        const std::size_t n = 2 + rng.below(63);
        const std::vector<std::size_t> q = randomView(rng, n);
        const std::size_t bulk = 1 + rng.below(40);
        const auto conc = static_cast<unsigned>(1 + rng.below(16));
        classifyPatternInto(q, bulk, conc, rank, got);
        const PatternResult want = referenceClassify(q, bulk, conc);
        ASSERT_TRUE(samePlans(got, want))
            << "iteration " << iter << ": n=" << n << " bulk=" << bulk
            << " concurrency=" << conc << " got "
            << patternName(got.pattern) << ", want "
            << patternName(want.pattern);
        ++seen[static_cast<std::size_t>(got.pattern)];
    }
    for (unsigned count : seen)
        EXPECT_GT(count, 100u) << "a pattern went unexercised";
}

TEST(Runtime, BelowOneBatchDecidesNothing)
{
    // Whatever the threshold and the view, a manager whose queue is
    // shorter than S sends no MIGRATE, and its period still
    // classifies exactly as classifyPattern does.
    Rng rng(23);
    RuntimeScratch scratch;
    RuntimeDecision dec;
    const std::size_t sizes[] = {2, 3, 4, 8, 16};
    for (int iter = 0; iter < 20000; ++iter) {
        const std::size_t n = sizes[rng.below(5)];
        const AltocParams p =
            params(static_cast<unsigned>(1 + rng.below(40)),
                   static_cast<unsigned>(1 + rng.below(8)));
        const unsigned s = migrateBatch(p);
        std::vector<std::size_t> q = randomView(rng, n);
        const auto self = static_cast<unsigned>(rng.below(n));
        q[self] = rng.below(s);
        const auto threshold = static_cast<unsigned>(rng.below(64));
        decideMigrationsInto(q, self, threshold, p, s, scratch, dec);
        ASSERT_TRUE(dec.migrations.empty()) << "iteration " << iter;
        EXPECT_FALSE(dec.overThreshold);
        ASSERT_EQ(dec.pattern,
                  classifyPattern(q, p.bulk, p.concurrency).pattern)
            << "iteration " << iter;
    }
}

TEST(Runtime, OverThresholdFallbackBreaksTiesToLowerIndex)
{
    // No pattern role for manager 0 (Bulk 100 exceeds every gap), so
    // the fallback feeds the other queues shortest first, the lower
    // index first among equals. S = 100 / 50 = 2.
    const std::vector<std::size_t> q{60, 20, 18, 18, 19, 18};
    const RuntimeDecision dec =
        decideMigrations(q, 0, /*threshold=*/50, params(100, 50));
    EXPECT_EQ(dec.pattern, Pattern::None);
    std::vector<unsigned> dsts;
    for (const MigrationDecision &md : dec.migrations)
        dsts.push_back(md.dst);
    EXPECT_EQ(dsts, (std::vector<unsigned>{2, 3, 5, 4, 1}));
}
