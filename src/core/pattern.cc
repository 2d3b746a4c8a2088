/**
 * @file
 * Pattern classification implementation.
 */

#include "core/pattern.hh"

#include <algorithm>
#include <functional>

#include "common/logging.hh"

namespace altoc::core {

const char *
patternName(Pattern p)
{
    switch (p) {
      case Pattern::None:
        return "None";
      case Pattern::Hill:
        return "Hill";
      case Pattern::Valley:
        return "Valley";
      case Pattern::Pairing:
        return "Pairing";
    }
    return "?";
}

PatternResult
classifyPattern(const std::vector<std::size_t> &q, std::size_t bulk,
                unsigned concurrency)
{
    PatternResult res;
    std::vector<std::uint64_t> rank;
    classifyPatternInto(q, bulk, concurrency, rank, res);
    return res;
}

namespace {

/** Ranking key: longer queues first, ties to the lower index, so a
 *  descending sort of the keys is the ranking every manager computes.
 *  Packing the order into one integer keeps the sort off q[]. */
std::uint64_t
rankKey(std::size_t q, unsigned idx)
{
    return static_cast<std::uint64_t>(q) << 16 | (0xffffu - idx);
}

unsigned
rankIndex(std::uint64_t key)
{
    return 0xffffu - static_cast<unsigned>(key & 0xffffu);
}

/** The whole ranking, longest queue first (Hill and Pairing). */
void
sortRanking(const std::vector<std::size_t> &q,
            std::vector<std::uint64_t> &rank)
{
    const std::size_t n = q.size();
    rank.resize(n);
    for (unsigned i = 0; i < n; ++i)
        rank[i] = rankKey(q[i], i);
    std::sort(rank.begin(), rank.end(), std::greater<>());
}

} // namespace

void
classifyPatternInto(const std::vector<std::size_t> &q, std::size_t bulk,
                    unsigned concurrency,
                    std::vector<std::uint64_t> &rank_scratch,
                    PatternResult &out)
{
    PatternResult &res = out;
    res.pattern = Pattern::None;
    res.plans.clear(); // keeps capacity across periods
    const std::size_t n = q.size();
    if (n < 2 || bulk == 0)
        return;
    altoc_assert(n <= 0x10000, "%zu managers overflow the ranking key", n);

    // Managers rank by queue length, longest first, ties to the lower
    // index, so every manager computes the identical ranking. The
    // packed keys sort in exactly that order. Most periods classify as
    // None or Valley, which need only both ends of the ranking: one
    // pass of min/max over keys computed on the fly finds the two
    // longest and the two shortest queues without a data-dependent
    // branch. Only Hill and Pairing build and sort the whole ranking.
    std::size_t all = q[0] | q[1];
    const std::uint64_t k0 = rankKey(q[0], 0);
    const std::uint64_t k1 = rankKey(q[1], 1);
    std::uint64_t first = std::max(k0, k1);
    std::uint64_t second = std::min(k0, k1);
    std::uint64_t last = second, next_to_last = first;
    for (unsigned i = 2; i < n; ++i) {
        all |= q[i];
        const std::uint64_t k = rankKey(q[i], i);
        second = std::max(second, std::min(first, k));
        first = std::max(first, k);
        next_to_last = std::min(next_to_last, std::max(last, k));
        last = std::min(last, k);
    }
    altoc_assert(all >> 48 == 0,
                 "a queue length overflows the ranking key");
    const unsigned longest = rankIndex(first);
    const unsigned second_longest = rankIndex(second);
    const unsigned shortest = rankIndex(last);
    const unsigned second_shortest = rankIndex(next_to_last);
    std::vector<std::uint64_t> &rank = rank_scratch;

    if (q[longest] >= q[second_longest] + bulk) {
        // Hill: drain the outlier into up to `concurrency` of the
        // shortest other queues.
        res.pattern = Pattern::Hill;
        sortRanking(q, rank);
        const unsigned dsts =
            std::min<unsigned>(concurrency, static_cast<unsigned>(n) - 1);
        for (unsigned i = 0; i < dsts; ++i) {
            const unsigned dst = rankIndex(rank[n - 1 - i]);
            if (dst == longest)
                continue;
            res.plans.push_back({longest, dst});
        }
        return;
    }

    if (q[shortest] + bulk <= q[second_shortest]) {
        // Valley: every other manager sends one MIGRATE to the
        // under-loaded queue.
        res.pattern = Pattern::Valley;
        for (unsigned src = 0; src < n; ++src) {
            if (src != shortest)
                res.plans.push_back({src, shortest});
        }
        return;
    }

    if (q[longest] >= q[shortest] + bulk) {
        // Pairing: gradual imbalance; the i-th longest queue feeds
        // the i-th shortest.
        res.pattern = Pattern::Pairing;
        sortRanking(q, rank);
        const unsigned pairs = std::min<unsigned>(
            concurrency, static_cast<unsigned>(n) / 2);
        for (unsigned i = 0; i < pairs; ++i) {
            const unsigned src = rankIndex(rank[i]);
            const unsigned dst = rankIndex(rank[n - 1 - i]);
            if (src == dst || q[src] < q[dst] + bulk)
                continue;
            res.plans.push_back({src, dst});
        }
        if (res.plans.empty())
            res.pattern = Pattern::None;
        return;
    }
}

} // namespace altoc::core
