/**
 * @file
 * Algorithm 1 decision logic.
 */

#include "core/runtime.hh"

#include <algorithm>

#include "common/logging.hh"
#include "core/invariants.hh"

namespace altoc::core {

RuntimeDecision
decideMigrations(const std::vector<std::size_t> &q_in, unsigned self,
                 unsigned threshold, const AltocParams &params)
{
    RuntimeDecision out;
    RuntimeScratch scratch;
    decideMigrationsInto(q_in, self, threshold, params,
                         migrateBatch(params), scratch, out);
    return out;
}

void
decideMigrationsInto(const std::vector<std::size_t> &q_in, unsigned self,
                     unsigned threshold, const AltocParams &params,
                     unsigned s, RuntimeScratch &scratch,
                     RuntimeDecision &out)
{
    out.pattern = Pattern::None;
    out.overThreshold = false;
    out.migrations.clear(); // keeps capacity across periods
    const std::size_t n = q_in.size();
    altoc_assert(self < n, "manager id out of range");
    if (n < 2)
        return;

    PatternResult &pat = scratch.pattern;
    classifyPatternInto(q_in, params.bulk, params.concurrency,
                        scratch.rank, pat);
    out.pattern = pat.pattern;

    // Line 7: each MIGRATE carries S = Bulk / Concurrency requests.
    // The line-8 guard below breaks at once while q[self] < S, so a
    // queue that short sends nothing, whatever its threshold and
    // plan: stop before overThreshold and the destinations.
    if (q_in[self] < s)
        return;
    out.overThreshold = q_in[self] > threshold;

    // Destinations this manager should feed: pattern plans where we
    // are the source. If we are over threshold but the pattern gave
    // us no role, fall back to the shortest other queues (the deep
    // tail must drain somewhere), ordered by length, ties to the
    // lower index: ascending packed keys q << 16 | idx.
    std::vector<unsigned> &dests = scratch.dests;
    dests.clear();
    for (const MigrationPlan &plan : pat.plans) {
        if (plan.src == self)
            dests.push_back(plan.dst);
    }
    if (dests.empty() && out.overThreshold) {
        altoc_assert(n <= 0x10000, "%zu managers overflow the order key",
                     n);
        std::vector<std::uint64_t> &order = scratch.rank;
        order.resize(n);
        std::size_t all = 0;
        for (unsigned i = 0; i < n; ++i) {
            all |= q_in[i];
            order[i] = static_cast<std::uint64_t>(q_in[i]) << 16 | i;
        }
        altoc_assert(all >> 48 == 0,
                     "a queue length overflows the order key");
        std::sort(order.begin(), order.end());
        for (const std::uint64_t key : order) {
            const auto idx = static_cast<unsigned>(key & 0xffffu);
            if (idx == self)
                continue;
            dests.push_back(idx);
            if (dests.size() >= params.concurrency)
                break;
        }
    }
    if (dests.empty())
        return;

    // Apply the line-8 guard against a local working copy of q that
    // reflects the decisions already taken this period. The predicate
    // is shared with the invariant auditor (core/invariants.hh).
    std::vector<std::size_t> &q = scratch.q;
    q.assign(q_in.begin(), q_in.end());
    for (unsigned dst : dests) {
        if (q[self] < s)
            break;
        if (!migrationLeavesSourceAhead(q[self], q[dst], s))
            continue;
        out.migrations.push_back({dst, s});
        q[self] -= s;
        q[dst] += s;
    }
}

Tick
runtimeInvocationCost(Interface iface, unsigned migrates)
{
    // Threshold arithmetic: 2 multiplies (7 cycles each) + 2 adds +
    // 3 compares ~= 18 cycles -> 9 ns at 2 GHz (the paper rounds its
    // worst case to 18 ns including the NoC update hop, which we
    // charge separately in the messaging layer).
    const Tick arithmetic = cyclesToNs(18);
    const Tick per_op = iface == Interface::Isa ? lat::kIsaAccess
                                                : lat::kMsrAccess;
    // update + status + predict_config + one send per MIGRATE.
    const unsigned ops = 3 + migrates;
    return arithmetic + static_cast<Tick>(ops) * per_op;
}

} // namespace altoc::core
