/**
 * @file
 * Self-tests for the invariant auditor: every check must fire on a
 * deliberately broken schedule and stay silent on a correct one. A
 * mock scheduler drives the audit hooks exactly as Server /
 * GroupScheduler do, so the auditor is proven to *detect* violations
 * (not merely to exist) in every build configuration, including ones
 * where ALTOC_AUDIT is off and the real hook sites compile away.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <tuple>

#include "core/invariants.hh"
#include "net/rpc.hh"
#include "system/rack.hh"
#include "workload/distributions.hh"

using namespace altoc;
using core::InvariantAuditor;
using core::migrationLeavesSourceAhead;
using core::MigrationDecision;
using core::RuntimeDecision;

namespace {

/**
 * Minimal stand-in for a scheduler driving the audit hooks: injects
 * descriptors, "migrates" them between two groups and completes
 * them, with knobs to misbehave on purpose.
 */
class MockScheduler
{
  public:
    explicit MockScheduler(InvariantAuditor &aud) : aud_(aud) {}

    net::Rpc *
    inject(std::uint64_t id)
    {
        net::Rpc *r = pool_.alloc();
        r->id = id;
        r->service = r->remaining = 100;
        aud_.onInject(*r);
        return r;
    }

    void
    migrate(net::Rpc *r, unsigned dst)
    {
        r->migrated = true;
        r->curGroup = static_cast<std::uint16_t>(dst);
        aud_.onMigrateIn(*r, dst);
    }

    void
    complete(net::Rpc *r)
    {
        aud_.onComplete(*r);
        pool_.release(r);
    }

  private:
    InvariantAuditor &aud_;
    net::RpcPool pool_;
};

/** Render the report into a string for content assertions. */
std::string
reportText(const InvariantAuditor &aud)
{
    std::FILE *f = std::tmpfile();
    EXPECT_NE(f, nullptr);
    aud.report(f);
    std::rewind(f);
    std::string text(1 << 14, '\0');
    const std::size_t n = std::fread(text.data(), 1, text.size(), f);
    std::fclose(f);
    text.resize(n);
    return text;
}

} // namespace

TEST(LineEightPredicate, BoundaryConditions)
{
    // Moving S must leave the source *strictly* ahead:
    // qsrc - S >= qdst + S.
    EXPECT_TRUE(migrationLeavesSourceAhead(12, 0, 4));  // 8 >= 4
    EXPECT_TRUE(migrationLeavesSourceAhead(8, 0, 4));   // 4 >= 4
    EXPECT_FALSE(migrationLeavesSourceAhead(7, 0, 4));  // 3 <  4
    EXPECT_FALSE(migrationLeavesSourceAhead(4, 4, 4));  // equalizes
    EXPECT_FALSE(migrationLeavesSourceAhead(3, 0, 4));  // under S
    EXPECT_FALSE(migrationLeavesSourceAhead(0, 0, 1));
}

TEST(Auditor, MigrateTwiceIsReported)
{
    InvariantAuditor aud;
    MockScheduler sched(aud);

    aud.beginEvent(11, 1000);
    net::Rpc *r = sched.inject(7);
    aud.beginEvent(12, 2000);
    sched.migrate(r, 1);
    EXPECT_TRUE(aud.ok()) << "first migration is legal";

    aud.beginEvent(13, 3000);
    sched.migrate(r, 0); // second hop: forbidden
    ASSERT_FALSE(aud.ok());
    ASSERT_EQ(aud.violations().size(), 1u);
    const sim::AuditViolation &v = aud.violations()[0];
    EXPECT_EQ(v.invariant, "migrate-at-most-once");
    EXPECT_EQ(v.event, 13u);
    EXPECT_EQ(v.tick, 3000u);
    EXPECT_NE(v.detail.find("request 7"), std::string::npos);

    // The report names invariant, event id and tick.
    const std::string text = reportText(aud);
    EXPECT_NE(text.find("migrate-at-most-once"), std::string::npos);
    EXPECT_NE(text.find("event 13"), std::string::npos);
    EXPECT_NE(text.find("tick 3000"), std::string::npos);
}

TEST(Auditor, LineEightGuardViolationIsReported)
{
    InvariantAuditor aud;
    aud.beginEvent(21, 5000);

    // Equal queues: any migration breaks the guard.
    RuntimeDecision dec;
    dec.migrations.push_back(MigrationDecision{1, 4});
    aud.checkDecision({4, 4}, 0, dec);

    ASSERT_FALSE(aud.ok());
    const sim::AuditViolation &v = aud.violations()[0];
    EXPECT_EQ(v.invariant, "shorter-queue-guard");
    EXPECT_EQ(v.event, 21u);
    EXPECT_EQ(v.tick, 5000u);
}

TEST(Auditor, LineEightGuardTracksWorkingCopyAcrossDecisions)
{
    InvariantAuditor aud;

    // First MIGRATE is fine (12-4 >= 2+4); the second must be judged
    // against the *updated* view {8, 6}, where 8-4 < 6+4.
    RuntimeDecision dec;
    dec.migrations.push_back(MigrationDecision{1, 4});
    dec.migrations.push_back(MigrationDecision{1, 4});
    aud.checkDecision({12, 2}, 0, dec);

    EXPECT_EQ(aud.violationCount(), 1u);
    EXPECT_EQ(aud.violations()[0].invariant, "shorter-queue-guard");

    // A schedule that respects the accumulated view stays silent.
    aud.reset();
    RuntimeDecision good;
    good.migrations.push_back(MigrationDecision{1, 4});
    good.migrations.push_back(MigrationDecision{2, 4});
    aud.checkDecision({20, 2, 2}, 0, good);
    EXPECT_TRUE(aud.ok());
}

TEST(Auditor, ConservationMismatchAtDrainIsReported)
{
    InvariantAuditor aud;
    MockScheduler sched(aud);

    aud.beginEvent(31, 100);
    net::Rpc *a = sched.inject(1);
    net::Rpc *b = sched.inject(2);
    sched.complete(a);
    (void)b; // lost: never completed
    aud.onDrain();

    ASSERT_FALSE(aud.ok());
    const std::string text = reportText(aud);
    EXPECT_NE(text.find("descriptor-conservation"), std::string::npos);
    EXPECT_NE(text.find("injected=2"), std::string::npos);
    EXPECT_NE(text.find("completed=1"), std::string::npos);
    EXPECT_NE(text.find("still live"), std::string::npos);
}

TEST(Auditor, CompletionWithoutInjectionIsReported)
{
    InvariantAuditor aud;
    net::Rpc ghost;
    ghost.id = 99;
    aud.onComplete(ghost);
    ASSERT_FALSE(aud.ok());
    EXPECT_EQ(aud.violations()[0].invariant, "descriptor-conservation");
}

TEST(Auditor, BackwardsTimeIsReported)
{
    InvariantAuditor aud;
    aud.beginEvent(41, 100);
    aud.beginEvent(42, 250);
    EXPECT_TRUE(aud.ok());
    aud.beginEvent(43, 200); // time went backwards
    ASSERT_FALSE(aud.ok());
    const sim::AuditViolation &v = aud.violations()[0];
    EXPECT_EQ(v.invariant, "monotone-time");
    EXPECT_EQ(v.event, 43u);
    EXPECT_EQ(v.tick, 200u);
}

TEST(Auditor, QueueUnderflowWrapIsReported)
{
    InvariantAuditor aud;
    aud.onQueueSample(3, static_cast<std::size_t>(0) - 1);
    ASSERT_FALSE(aud.ok());
    EXPECT_EQ(aud.violations()[0].invariant, "non-negative-queue");
}

TEST(Auditor, CorrectScheduleStaysSilent)
{
    InvariantAuditor aud;
    MockScheduler sched(aud);

    aud.beginEvent(51, 10);
    net::Rpc *a = sched.inject(1);
    net::Rpc *b = sched.inject(2);
    aud.beginEvent(52, 20);
    sched.migrate(a, 1);
    aud.beginEvent(53, 30);
    sched.complete(a);
    sched.complete(b);
    aud.onQueueSample(0, 0);
    aud.onDrain();

    EXPECT_TRUE(aud.ok());
    EXPECT_EQ(aud.counters().injected, 2u);
    EXPECT_EQ(aud.counters().completed, 2u);
    EXPECT_EQ(aud.counters().migrations, 1u);
    EXPECT_EQ(aud.liveDescriptors(), 0u);
    const std::string text = reportText(aud);
    EXPECT_NE(text.find("all invariants held"), std::string::npos);
}

TEST(Auditor, LedgerCapsStorageButCountsEverything)
{
    InvariantAuditor aud;
    for (int i = 0; i < 100; ++i)
        aud.violate("non-negative-queue", "synthetic");
    EXPECT_EQ(aud.violationCount(), 100u);
    EXPECT_EQ(aud.violations().size(), 64u);
    const std::string text = reportText(aud);
    EXPECT_NE(text.find("36 more"), std::string::npos);

    aud.reset();
    EXPECT_TRUE(aud.ok());
    EXPECT_EQ(aud.violations().size(), 0u);
}

/**
 * End-to-end: a real ALTOCUMULUS run under the Server-installed
 * auditor holds every invariant while actually exercising them
 * (migrations happen, descriptors drain). Only meaningful in audit
 * builds; elsewhere the hooks compile away and the Server never
 * installs an auditor.
 */
TEST(AuditorIntegration, AltocumulusRunHoldsAllInvariants)
{
#if ALTOC_AUDIT_ENABLED
    system::DesignConfig cfg;
    cfg.design = system::Design::AcInt;
    cfg.cores = 16;
    cfg.groups = 4;

    system::WorkloadSpec spec;
    spec.service = workload::makePaperBimodal();
    spec.rateMrps = 10.0;
    spec.requests = 5000;
    spec.sloAbsolute = 10 * static_cast<Tick>(spec.service->mean());
    spec.warmupFraction = 0.0;
    spec.seed = 3;

    // The AC runtime reschedules itself forever, so the run stops
    // once every request has completed.
    system::Rack rack(cfg, spec);
    system::LoadGenerator gen(rack, spec);
    gen.start();
    rack.stopAfterCompletions(spec.requests);
    rack.run();

    const core::InvariantAuditor *aud = rack.server(0).auditor();
    ASSERT_NE(aud, nullptr);
    EXPECT_TRUE(aud->ok());
    EXPECT_EQ(aud->counters().injected, spec.requests);
    EXPECT_GE(aud->counters().decisionsChecked, 1u);
#else
    GTEST_SKIP() << "build has ALTOC_AUDIT off; run the Debug config";
#endif
}
