/**
 * @file
 * Fault-injection layer tests: FaultSpec grammar, FaultInjector
 * determinism, and the hardened MIGRATE/ACK/NACK protocol under
 * scripted message fates (drop / duplicate / lost ACK / lost NACK).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>

#include "core/hw_messaging.hh"
#include "sim/fault_injector.hh"
#include "sim/fault_spec.hh"
#include "sim/simulator.hh"
#include "system/experiment.hh"
#include "trace/trace.hh"
#include "workload/distributions.hh"

using namespace altoc;
using namespace altoc::core;
using sim::FaultInjector;
using sim::FaultSpec;

// ---------------------------------------------------------------------
// FaultSpec grammar
// ---------------------------------------------------------------------

TEST(FaultSpec, DefaultIsDisabled)
{
    const FaultSpec spec;
    EXPECT_FALSE(spec.enabled());
    EXPECT_EQ(spec.describe(), "seed=1");
}

TEST(FaultSpec, ParseFullGrammar)
{
    const FaultSpec spec = FaultSpec::parse(
        "drop=0.01,dup=0.05,delay=0.2:300,exhaust=0.1:1000,"
        "straggle=0.05:4,freeze=0.01:200,stall=1@50000+30000,"
        "stallp=0.02:500,seed=7");
    EXPECT_TRUE(spec.enabled());
    EXPECT_DOUBLE_EQ(spec.dropProb, 0.01);
    EXPECT_DOUBLE_EQ(spec.dupProb, 0.05);
    EXPECT_DOUBLE_EQ(spec.delayProb, 0.2);
    EXPECT_EQ(spec.delayNs, 300u);
    EXPECT_DOUBLE_EQ(spec.exhaustProb, 0.1);
    EXPECT_EQ(spec.exhaustNs, 1000u);
    EXPECT_DOUBLE_EQ(spec.straggleProb, 0.05);
    EXPECT_DOUBLE_EQ(spec.straggleFactor, 4.0);
    EXPECT_DOUBLE_EQ(spec.freezeProb, 0.01);
    EXPECT_EQ(spec.freezeNs, 200u);
    EXPECT_TRUE(spec.stallSet);
    EXPECT_EQ(spec.stallMgr, 1u);
    EXPECT_EQ(spec.stallAt, 50000u);
    EXPECT_EQ(spec.stallFor, 30000u);
    EXPECT_DOUBLE_EQ(spec.stallProb, 0.02);
    EXPECT_EQ(spec.stallNs, 500u);
    EXPECT_EQ(spec.seed, 7u);
}

TEST(FaultSpec, DescribeRoundTrips)
{
    const char *text =
        "drop=0.02,dup=0.01,delay=0.5:250,exhaust=0.05:2000,"
        "straggle=0.1:2,freeze=0.05:100,stall=2@1000+500,"
        "stallp=0.01:300,seed=42";
    const FaultSpec spec = FaultSpec::parse(text);
    const std::string canon = spec.describe();
    EXPECT_EQ(FaultSpec::parse(canon).describe(), canon);
}

TEST(FaultSpec, ParseKillGrammar)
{
    const FaultSpec spec = FaultSpec::parse(
        "kill=3@200000,kill=7@500000,killm=1@250000,"
        "killp=0.02:1000000,seed=5");
    EXPECT_TRUE(spec.enabled());
    ASSERT_EQ(spec.kills.size(), 2u);
    EXPECT_EQ(spec.kills[0].id, 3u);
    EXPECT_EQ(spec.kills[0].at, 200000u);
    EXPECT_EQ(spec.kills[1].id, 7u);
    EXPECT_EQ(spec.kills[1].at, 500000u);
    ASSERT_EQ(spec.managerKills.size(), 1u);
    EXPECT_EQ(spec.managerKills[0].id, 1u);
    EXPECT_EQ(spec.managerKills[0].at, 250000u);
    EXPECT_DOUBLE_EQ(spec.killProb, 0.02);
    EXPECT_EQ(spec.killNs, 1000000u);
    EXPECT_EQ(spec.seed, 5u);
}

TEST(FaultSpec, KillGrammarRoundTrips)
{
    const char *text =
        "kill=3@200000,kill=7@500000,killm=1@250000,"
        "killp=0.05:1000000,seed=9";
    const std::string canon = FaultSpec::parse(text).describe();
    EXPECT_EQ(FaultSpec::parse(canon).describe(), canon);
    // A kill-only spec counts as enabled even with every probability
    // at zero (scripted deaths need no random stream).
    EXPECT_TRUE(FaultSpec::parse("kill=1@1000").enabled());
    EXPECT_TRUE(FaultSpec::parse("killm=0@1000").enabled());
}

// ---------------------------------------------------------------------
// Server-scoped grammar (rack runs): S<k>.kill / S<k>.killm /
// S<k>.drop land on server k only; forServer(k) projects one
// machine's schedule out of the rack-wide spec.
// ---------------------------------------------------------------------

TEST(FaultSpec, ScopedGrammarParses)
{
    const FaultSpec spec = FaultSpec::parse(
        "S1.kill=3@200000,S1.kill=7@250000,S2.killm=1@300000,"
        "S3.drop=0.05,kill=9@400000,seed=6");
    EXPECT_TRUE(spec.enabled());
    ASSERT_EQ(spec.scopedKills.size(), 2u);
    EXPECT_EQ(spec.scopedKills[0].server, 1u);
    EXPECT_EQ(spec.scopedKills[0].kill.id, 3u);
    EXPECT_EQ(spec.scopedKills[0].kill.at, 200000u);
    EXPECT_EQ(spec.scopedKills[1].kill.id, 7u);
    ASSERT_EQ(spec.scopedManagerKills.size(), 1u);
    EXPECT_EQ(spec.scopedManagerKills[0].server, 2u);
    ASSERT_EQ(spec.scopedDrops.size(), 1u);
    EXPECT_EQ(spec.scopedDrops[0].server, 3u);
    EXPECT_DOUBLE_EQ(spec.scopedDrops[0].prob, 0.05);
    // The unscoped kill rides along untouched.
    ASSERT_EQ(spec.kills.size(), 1u);
    EXPECT_EQ(spec.maxScopedServer(), 3);
}

TEST(FaultSpec, ScopedGrammarRoundTrips)
{
    const char *text =
        "kill=1@100000,S1.kill=3@200000,S2.killm=0@300000,"
        "S2.drop=0.1,seed=4";
    const std::string canon = FaultSpec::parse(text).describe();
    EXPECT_EQ(FaultSpec::parse(canon).describe(), canon);
    // A purely scoped spec still counts as enabled.
    EXPECT_TRUE(FaultSpec::parse("S1.kill=0@1000").enabled());
    EXPECT_EQ(FaultSpec().maxScopedServer(), -1);
}

TEST(FaultSpec, ForServerProjectsOneMachine)
{
    const FaultSpec spec = FaultSpec::parse(
        "drop=0.01,kill=2@100000,S1.kill=3@200000,S1.drop=0.5,"
        "S2.killm=1@300000,seed=7");

    // Server 0 owns every unscoped key; the S1/S2 entries vanish.
    const FaultSpec s0 = spec.forServer(0);
    EXPECT_DOUBLE_EQ(s0.dropProb, 0.01);
    ASSERT_EQ(s0.kills.size(), 1u);
    EXPECT_EQ(s0.kills[0].id, 2u);
    EXPECT_TRUE(s0.scopedKills.empty());
    EXPECT_EQ(s0.seed, 7u) << "seed fold is the identity on server 0";

    // Server 1 sees only its scoped entries, with a folded seed.
    const FaultSpec s1 = spec.forServer(1);
    EXPECT_DOUBLE_EQ(s1.dropProb, 0.5);
    ASSERT_EQ(s1.kills.size(), 1u);
    EXPECT_EQ(s1.kills[0].id, 3u);
    EXPECT_TRUE(s1.managerKills.empty());
    EXPECT_NE(s1.seed, spec.seed);

    const FaultSpec s2 = spec.forServer(2);
    EXPECT_DOUBLE_EQ(s2.dropProb, 0.0);
    ASSERT_EQ(s2.managerKills.size(), 1u);
    EXPECT_EQ(s2.managerKills[0].id, 1u);

    // An unscoped spec projects onto server 0 unchanged.
    const FaultSpec plain = FaultSpec::parse("drop=0.2,kill=1@5000");
    EXPECT_EQ(plain.forServer(0).describe(), plain.describe());
}

TEST(FaultSpecDeath, ScopedIndexMustBeDigits)
{
    EXPECT_DEATH(FaultSpec::parse("S.kill=1@1000"),
                 "bad server index in 'S.kill'");
    EXPECT_DEATH(FaultSpec::parse("Sx.kill=1@1000"),
                 "bad server index in 'Sx.kill'");
}

TEST(FaultSpecDeath, OnlyKillKillmDropAreScopable)
{
    EXPECT_DEATH(FaultSpec::parse("S1.freeze=0.1:100"),
                 "key 'S1.freeze' cannot be server-scoped");
    EXPECT_DEATH(FaultSpec::parse("S0.seed=4"),
                 "key 'S0.seed' cannot be server-scoped");
}

TEST(FaultSpecDeath, ScopedValueIsStillValidated)
{
    EXPECT_DEATH(FaultSpec::parse("S1.kill=3"),
                 "'S1.kill' needs the form ID@AT");
    EXPECT_DEATH(FaultSpec::parse("S1.drop=1.5"),
                 "'S1.drop' needs a probability in \\[0, 1\\]");
}

// ---------------------------------------------------------------------
// Grammar validation: malformed specs die loudly at parse time naming
// the key and the offending value, instead of silently clamping or
// wrapping. One death test per malformed shape.
// ---------------------------------------------------------------------

TEST(FaultSpecDeath, ProbabilityAboveOneIsRejected)
{
    EXPECT_DEATH(FaultSpec::parse("drop=1.5"),
                 "'drop' needs a probability in \\[0, 1\\], got '1.5'");
}

TEST(FaultSpecDeath, NegativeProbabilityIsRejected)
{
    EXPECT_DEATH(FaultSpec::parse("dup=-0.1"),
                 "'dup' needs a probability in \\[0, 1\\], got '-0.1'");
}

TEST(FaultSpecDeath, KillStormProbabilityIsValidated)
{
    EXPECT_DEATH(FaultSpec::parse("killp=2:1000"),
                 "'killp' needs a probability in \\[0, 1\\], got '2'");
}

TEST(FaultSpecDeath, ZeroDurationIsRejected)
{
    EXPECT_DEATH(FaultSpec::parse("delay=0.1:0"),
                 "'delay' needs a positive duration in ns, got '0'");
}

TEST(FaultSpecDeath, NegativeDurationIsRejected)
{
    // strtoull would silently wrap "-500" to ~2^64; the duration
    // parser rejects anything but plain digits.
    EXPECT_DEATH(FaultSpec::parse("exhaust=0.1:-500"),
                 "'exhaust' needs a positive duration in ns, got "
                 "'-500'");
}

TEST(FaultSpecDeath, KillInstantZeroIsRejected)
{
    // A kill at t=0 would fire before the scheduler attaches; the
    // grammar requires a strictly positive instant.
    EXPECT_DEATH(FaultSpec::parse("kill=3@0"),
                 "'kill' needs a positive duration in ns, got '0'");
}

TEST(FaultSpecDeath, KillWithoutInstantIsRejected)
{
    EXPECT_DEATH(FaultSpec::parse("kill=3"),
                 "'kill' needs the form ID@AT");
}

TEST(FaultSpecDeath, KillmNonNumericIdIsRejected)
{
    EXPECT_DEATH(FaultSpec::parse("killm=two@1000"),
                 "'killm' needs an unsigned integer, got 'two'");
}

TEST(FaultSpecDeath, KillStormZeroWindowIsRejected)
{
    EXPECT_DEATH(FaultSpec::parse("killp=0.1:0"),
                 "'killp' needs a positive duration in ns, got '0'");
}

TEST(FaultSpecDeath, UnknownKeyIsRejected)
{
    EXPECT_DEATH(FaultSpec::parse("killx=1@2"), "unknown key 'killx'");
}

TEST(FaultSpec, FromEnvReadsAltocFaults)
{
    ::unsetenv("ALTOC_FAULTS");
    EXPECT_FALSE(FaultSpec::fromEnv().has_value());
    ::setenv("ALTOC_FAULTS", "drop=0.25,seed=9", 1);
    const auto spec = FaultSpec::fromEnv();
    ASSERT_TRUE(spec.has_value());
    EXPECT_DOUBLE_EQ(spec->dropProb, 0.25);
    EXPECT_EQ(spec->seed, 9u);
    ::unsetenv("ALTOC_FAULTS");
}

// ---------------------------------------------------------------------
// FaultInjector determinism
// ---------------------------------------------------------------------

TEST(FaultInjector, SameSeedSameFateStream)
{
    const FaultSpec spec = FaultSpec::parse("drop=0.3,dup=0.3,seed=5");
    FaultInjector a(spec);
    FaultInjector b(spec);
    for (unsigned i = 0; i < 256; ++i) {
        EXPECT_EQ(a.messageFate(i, 0, 1), b.messageFate(i, 0, 1))
            << "draw " << i;
    }
    EXPECT_EQ(a.counters().msgDropped, b.counters().msgDropped);
    EXPECT_EQ(a.counters().msgDuplicated, b.counters().msgDuplicated);
    // A 30/30 split over 256 draws hits both fates.
    EXPECT_GT(a.counters().msgDropped, 0u);
    EXPECT_GT(a.counters().msgDuplicated, 0u);
}

TEST(FaultInjector, WindowedDecisionsIndependentOfQueryOrder)
{
    const FaultSpec spec = FaultSpec::parse(
        "delay=0.4:100,exhaust=0.4:1000,stallp=0.4:1000,"
        "straggle=0.4:2,freeze=0.4:50,seed=11");
    FaultInjector fwd(spec);
    FaultInjector rev(spec);

    std::map<std::pair<unsigned, Tick>, std::uint64_t> forward;
    for (unsigned mgr = 0; mgr < 4; ++mgr) {
        for (Tick t = 0; t < 16000; t += 500) {
            std::uint64_t key = 0;
            key = key * 2 + (fwd.recvExhausted(mgr, t) ? 1 : 0);
            key = key * 100000 + fwd.managerStalledUntil(mgr, t);
            key = key * 1000 + fwd.messageDelay(mgr, mgr + 1, t);
            key = key * 1000 + fwd.stretchExecution(mgr, t, 100);
            forward[{mgr, t}] = key;
        }
    }
    // Same grid, opposite order, interleaved differently: the pure
    // hashes must agree cell by cell.
    for (unsigned m = 4; m-- > 0;) {
        for (Tick t = 15500; t + 500 > 0 && t <= 15500; t -= 500) {
            std::uint64_t key = 0;
            key = key * 2 + (rev.recvExhausted(m, t) ? 1 : 0);
            key = key * 100000 + rev.managerStalledUntil(m, t);
            key = key * 1000 + rev.messageDelay(m, m + 1, t);
            key = key * 1000 + rev.stretchExecution(m, t, 100);
            EXPECT_EQ(key, (forward[{m, t}]))
                << "mgr " << m << " t " << t;
            if (t == 0)
                break;
        }
    }
}

TEST(FaultInjector, KillDecisionsArePureHashes)
{
    const FaultSpec spec = FaultSpec::parse("killp=0.5:1000,seed=3");
    const FaultInjector a(spec);
    const FaultInjector b(spec);
    bool killed_any = false;
    bool spared_any = false;
    for (unsigned core = 0; core < 16; ++core) {
        for (std::uint64_t w = 1; w <= 8; ++w) {
            EXPECT_EQ(a.windowKillsCore(core, w),
                      b.windowKillsCore(core, w))
                << "core " << core << " window " << w;
            (a.windowKillsCore(core, w) ? killed_any : spared_any) =
                true;
        }
    }
    // A 50% rate over 128 cells decides both ways.
    EXPECT_TRUE(killed_any);
    EXPECT_TRUE(spared_any);
}

TEST(FaultInjector, ScriptedFatesConsumedBeforeRandomDraws)
{
    FaultInjector fi{FaultSpec{}};
    fi.pushFate(FaultInjector::MsgFate::Drop);
    fi.pushFate(FaultInjector::MsgFate::Duplicate);
    EXPECT_EQ(fi.messageFate(0, 0, 1), FaultInjector::MsgFate::Drop);
    EXPECT_EQ(fi.messageFate(1, 0, 1),
              FaultInjector::MsgFate::Duplicate);
    // Queue exhausted; a no-fault spec always delivers afterwards.
    EXPECT_EQ(fi.messageFate(2, 0, 1), FaultInjector::MsgFate::Deliver);
    EXPECT_EQ(fi.counters().msgDropped, 1u);
    EXPECT_EQ(fi.counters().msgDuplicated, 1u);
}

TEST(FaultInjector, ExplicitStallWindowBoundsAndExhaustsReceive)
{
    FaultInjector fi(FaultSpec::parse("stall=1@1000+500"));
    EXPECT_EQ(fi.managerStalledUntil(1, 999), 0u);
    EXPECT_EQ(fi.managerStalledUntil(1, 1000), 1500u);
    EXPECT_EQ(fi.managerStalledUntil(1, 1499), 1500u);
    EXPECT_EQ(fi.managerStalledUntil(1, 1500), 0u);
    EXPECT_EQ(fi.managerStalledUntil(0, 1200), 0u);
    // A mid-stall manager rejects MIGRATEs (frozen receive drain).
    EXPECT_TRUE(fi.recvExhausted(1, 1200));
    EXPECT_FALSE(fi.recvExhausted(1, 1600));
    EXPECT_FALSE(fi.recvExhausted(0, 1200));
    EXPECT_EQ(fi.counters().stallWindows, 1u);
}

TEST(FaultInjector, EventHookSeesEveryInjection)
{
    FaultInjector fi{FaultSpec{}};
    std::vector<FaultInjector::Kind> kinds;
    fi.setEventHook([&kinds](FaultInjector::Kind k, Tick, unsigned,
                             unsigned) { kinds.push_back(k); });
    fi.pushFate(FaultInjector::MsgFate::Drop);
    fi.pushFate(FaultInjector::MsgFate::Duplicate);
    fi.messageFate(0, 0, 1);
    fi.messageFate(1, 2, 3);
    ASSERT_EQ(kinds.size(), 2u);
    EXPECT_EQ(kinds[0], FaultInjector::Kind::MsgDrop);
    EXPECT_EQ(kinds[1], FaultInjector::Kind::MsgDup);
}

TEST(FaultInjector, HookPredicatesFollowTheSpec)
{
    struct Case
    {
        const char *spec;
        bool delays, stretches, stalls;
    };
    const Case cases[] = {
        {"seed=1", false, false, false},
        {"drop=0.02,dup=0.01", false, false, false},
        {"exhaust=0.1:2000,kill=3@100000,killm=1@5000", false, false,
         false},
        {"killp=0.01:1000", false, false, false},
        {"delay=0.2:300", true, false, false},
        {"delay=0:300", false, false, false},
        {"straggle=0.05:3", false, true, false},
        {"straggle=0.05:1", false, false, false},
        {"straggle=0:3", false, false, false},
        {"freeze=0.02:500", false, true, false},
        {"freeze=0:500", false, false, false},
        {"stall=1@5000+3000", false, false, true},
        {"stallp=0.05:5000", false, false, true},
        {"stallp=0:5000", false, false, false},
        {"drop=0.01,dup=0.05,delay=0.2:300,exhaust=0.1:1000,"
         "straggle=0.05:4,freeze=0.01:200,stall=1@50000+30000,"
         "stallp=0.02:500",
         true, true, true},
    };
    for (const Case &c : cases) {
        const FaultInjector fi{FaultSpec::parse(c.spec)};
        EXPECT_EQ(fi.delaysMessages(), c.delays) << c.spec;
        EXPECT_EQ(fi.stretchesCores(), c.stretches) << c.spec;
        EXPECT_EQ(fi.stallsManagers(), c.stalls) << c.spec;
    }
}

TEST(FaultInjector, HooksArePureWhenTheirKindIsOff)
{
    // Skipping a hook whose predicate is false must change nothing:
    // every call returns 0 and injects (notes) nothing.
    FaultInjector fi{FaultSpec::parse(
        "drop=0.5,dup=0.5,exhaust=0.5:100,killp=0.5:1000")};
    ASSERT_FALSE(fi.delaysMessages());
    ASSERT_FALSE(fi.stretchesCores());
    ASSERT_FALSE(fi.stallsManagers());
    unsigned notes = 0;
    fi.setEventHook([&notes](FaultInjector::Kind, Tick, unsigned,
                             unsigned) { ++notes; });
    for (Tick t = 0; t < 100000; t += 97) {
        const auto a = static_cast<unsigned>(t % 7);
        EXPECT_EQ(fi.messageDelay(a, a + 1, t), 0u);
        EXPECT_EQ(fi.stretchExecution(a, t, 500), 0u);
        EXPECT_EQ(fi.managerStalledUntil(a, t), 0u);
    }
    EXPECT_EQ(notes, 0u);
    EXPECT_EQ(fi.counters().total(), 0u);
}

// ---------------------------------------------------------------------
// Hardened MIGRATE protocol under scripted fates
// ---------------------------------------------------------------------

namespace {

/** Messaging harness with a fault injector attached and every
 *  protocol callback recorded. */
struct FaultedMsgHarness
{
    sim::Simulator sim;
    noc::Mesh mesh{4, 4};
    net::RpcPool pool;
    FaultInjector faults{FaultSpec{}};
    std::unique_ptr<HwMessaging> msg;

    std::vector<std::pair<unsigned, std::size_t>> delivered; // (mgr, n)
    std::vector<std::pair<unsigned, std::size_t>> returned;  // (mgr, n)
    // (src, dst, reqs in hand, attempt)
    std::vector<std::tuple<unsigned, unsigned, std::size_t, unsigned>>
        timeouts;
    std::vector<std::tuple<unsigned, unsigned, std::size_t>> acks;

    explicit FaultedMsgHarness(HwMessaging::Config cfg = {})
    {
        msg = std::make_unique<HwMessaging>(
            sim, mesh, std::vector<unsigned>{0, 3, 12, 15}, cfg);
        msg->setFaults(&faults);
        msg->setMigrateIn(
            [this](unsigned mgr, const std::vector<net::Rpc *> &reqs) {
                delivered.emplace_back(mgr, reqs.size());
            });
        msg->setReturn([this](unsigned mgr, unsigned,
                              const std::vector<net::Rpc *> &reqs) {
            returned.emplace_back(mgr, reqs.size());
        });
        msg->setTimeout([this](unsigned src, unsigned dst,
                               std::vector<net::Rpc *> reqs,
                               unsigned attempt) {
            timeouts.emplace_back(src, dst, reqs.size(), attempt);
        });
        msg->setAck([this](unsigned src, unsigned dst, std::size_t n) {
            acks.emplace_back(src, dst, n);
        });
    }

    std::vector<net::Rpc *>
    batch(unsigned n)
    {
        std::vector<net::Rpc *> v;
        for (unsigned i = 0; i < n; ++i) {
            net::Rpc *r = pool.alloc();
            r->service = 100;
            r->remaining = 100;
            v.push_back(r);
        }
        return v;
    }
};

} // namespace

TEST(HardenedProtocol, DroppedMigrateTimesOutWithBatchInHand)
{
    FaultedMsgHarness h;
    h.faults.pushFate(FaultInjector::MsgFate::Drop);
    EXPECT_TRUE(h.msg->sendMigrate(0, 1, h.batch(4), 0));
    EXPECT_EQ(h.msg->outstanding(), 1u);
    h.sim.run();
    // Never delivered; the timeout hands the batch back for retry.
    EXPECT_TRUE(h.delivered.empty());
    ASSERT_EQ(h.timeouts.size(), 1u);
    EXPECT_EQ(std::get<0>(h.timeouts[0]), 0u);
    EXPECT_EQ(std::get<1>(h.timeouts[0]), 1u);
    EXPECT_EQ(std::get<2>(h.timeouts[0]), 4u); // reqs reclaimed here
    EXPECT_EQ(std::get<3>(h.timeouts[0]), 0u);
    EXPECT_EQ(h.msg->stats().migratesTimedOut, 1u);
    EXPECT_EQ(h.msg->stats().migratesAcked, 0u);
    // Staging and send FIFO fully recovered; nothing outstanding.
    EXPECT_EQ(h.msg->sendCapacity(0), hw::kMrEntries);
    EXPECT_EQ(h.msg->outstanding(), 0u);
}

TEST(HardenedProtocol, LostAckDeliversOnceAndTimeoutGetsNoBatch)
{
    FaultedMsgHarness h;
    h.faults.pushFate(FaultInjector::MsgFate::Deliver); // MIGRATE
    h.faults.pushFate(FaultInjector::MsgFate::Drop);    // ACK
    EXPECT_TRUE(h.msg->sendMigrate(0, 2, h.batch(5), 1));
    h.sim.run();
    // The batch landed exactly once...
    ASSERT_EQ(h.delivered.size(), 1u);
    EXPECT_EQ(h.delivered[0].second, 5u);
    EXPECT_EQ(h.msg->stats().descriptorsDelivered, 5u);
    // ...so the timeout fires with an EMPTY batch: requests live at
    // the destination and must never be reclaimed at the source.
    ASSERT_EQ(h.timeouts.size(), 1u);
    EXPECT_EQ(std::get<2>(h.timeouts[0]), 0u);
    EXPECT_EQ(std::get<3>(h.timeouts[0]), 1u);
    EXPECT_TRUE(h.acks.empty());
    EXPECT_EQ(h.msg->stats().migratesAcked, 0u);
    EXPECT_EQ(h.msg->stats().migratesTimedOut, 1u);
    // The timeout still releases the staged MR entries.
    EXPECT_EQ(h.msg->sendCapacity(0), hw::kMrEntries);
    EXPECT_EQ(h.msg->outstanding(), 0u);
}

TEST(HardenedProtocol, DuplicatedMigrateDeliversExactlyOnce)
{
    FaultedMsgHarness h;
    h.faults.pushFate(FaultInjector::MsgFate::Duplicate); // MIGRATE
    h.faults.pushFate(FaultInjector::MsgFate::Deliver);   // ACK
    EXPECT_TRUE(h.msg->sendMigrate(0, 1, h.batch(3)));
    h.sim.run();
    // Two copies arrived; one delivery, one stale discard.
    ASSERT_EQ(h.delivered.size(), 1u);
    EXPECT_EQ(h.delivered[0].second, 3u);
    EXPECT_EQ(h.msg->stats().staleMigratesDiscarded, 1u);
    EXPECT_EQ(h.msg->stats().migratesAcked, 1u);
    EXPECT_TRUE(h.timeouts.empty());
    ASSERT_EQ(h.acks.size(), 1u);
    EXPECT_EQ(std::get<2>(h.acks[0]), 3u);
    EXPECT_EQ(h.msg->sendCapacity(0), hw::kMrEntries);
    EXPECT_EQ(h.msg->outstanding(), 0u);
}

TEST(HardenedProtocol, DuplicatedAckResolvesOnce)
{
    FaultedMsgHarness h;
    h.faults.pushFate(FaultInjector::MsgFate::Deliver);   // MIGRATE
    h.faults.pushFate(FaultInjector::MsgFate::Duplicate); // ACK
    EXPECT_TRUE(h.msg->sendMigrate(0, 3, h.batch(2)));
    h.sim.run();
    ASSERT_EQ(h.delivered.size(), 1u);
    EXPECT_EQ(h.msg->stats().migratesAcked, 1u);
    EXPECT_EQ(h.msg->stats().staleMigratesDiscarded, 1u);
    EXPECT_TRUE(h.timeouts.empty());
    EXPECT_EQ(h.msg->outstanding(), 0u);
}

TEST(HardenedProtocol, LostNackReclaimsBatchAtTimeout)
{
    FaultedMsgHarness h;
    // Two equidistant senders overflow manager 1's MR bank
    // (8 + 8 > 11): one MIGRATE lands, the other NACKs -- and that
    // NACK is lost. Fates are drawn in event order: both MIGRATEs at
    // send time, the loser's NACK at arrival, the winner's ACK after
    // the drain.
    h.faults.pushFate(FaultInjector::MsgFate::Deliver); // MIGRATE a
    h.faults.pushFate(FaultInjector::MsgFate::Deliver); // MIGRATE b
    h.faults.pushFate(FaultInjector::MsgFate::Drop);    // loser NACK
    h.faults.pushFate(FaultInjector::MsgFate::Deliver); // winner ACK
    EXPECT_TRUE(h.msg->sendMigrate(0, 1, h.batch(8)));
    EXPECT_TRUE(h.msg->sendMigrate(3, 1, h.batch(8)));
    h.sim.run();
    // One batch landed; the rejected one never saw its NACK, so the
    // timeout (not the return path) hands it back.
    ASSERT_EQ(h.delivered.size(), 1u);
    EXPECT_TRUE(h.returned.empty());
    EXPECT_EQ(h.msg->stats().migratesNacked, 1u);
    ASSERT_EQ(h.timeouts.size(), 1u);
    EXPECT_EQ(std::get<2>(h.timeouts[0]), 8u);
    EXPECT_EQ(h.msg->stats().migratesTimedOut, 1u);
    EXPECT_EQ(h.msg->stats().migratesAcked, 1u);
    // Both sources fully recovered their staging.
    EXPECT_EQ(h.msg->sendCapacity(0), hw::kMrEntries);
    EXPECT_EQ(h.msg->sendCapacity(3), hw::kMrEntries);
    EXPECT_EQ(h.msg->outstanding(), 0u);
}

TEST(HardenedProtocol, ExhaustionStormForcesNack)
{
    FaultedMsgHarness h;
    // Exhaust every window with certainty: any MIGRATE NACKs even
    // though the buffers have room.
    h.faults = FaultInjector(FaultSpec::parse("exhaust=1:1000000"));
    h.msg->setFaults(&h.faults);
    EXPECT_TRUE(h.msg->sendMigrate(0, 1, h.batch(4)));
    h.sim.run();
    EXPECT_TRUE(h.delivered.empty());
    ASSERT_EQ(h.returned.size(), 1u);
    EXPECT_EQ(h.returned[0].second, 4u);
    EXPECT_EQ(h.msg->stats().migratesNacked, 1u);
    EXPECT_GE(h.faults.counters().exhaustWindows, 1u);
    EXPECT_EQ(h.msg->outstanding(), 0u);
}

// ---------------------------------------------------------------------
// Server-level wiring: delays and core faults are scheduler-agnostic
// ---------------------------------------------------------------------

TEST(FaultWiring, StragglersAndFreezesStillCompleteEveryRequest)
{
    system::DesignConfig cfg;
    cfg.design = system::Design::Rss;
    cfg.cores = 8;
    system::WorkloadSpec spec;
    spec.service = workload::makeFixed(1 * kUs);
    spec.rateMrps = 2.0;
    spec.requests = 5000;
    spec.seed = 3;
    spec.faults = FaultSpec::parse("straggle=0.2:3,freeze=0.1:500");
    spec.timeLimit = 100 * kMs;
    const system::RunResult res = system::runExperiment(cfg, spec);
    EXPECT_EQ(res.completed, 5000u);
    EXPECT_GT(res.faultsInjected, 0u);
    // Stretched slices delay completions but never lose them.
    EXPECT_GT(res.latency.p99, 1 * kUs);
}

TEST(FaultWiring, FaultScheduleIsReproducible)
{
    system::DesignConfig cfg;
    cfg.design = system::Design::AcRss;
    cfg.cores = 16;
    cfg.groups = 2;
    system::WorkloadSpec spec;
    spec.service = workload::makeFixed(1 * kUs);
    spec.rateMrps = 8.0;
    spec.requests = 10000;
    spec.connections = 8;
    spec.seed = 7;
    spec.faults =
        FaultSpec::parse("drop=0.05,dup=0.02,delay=0.1:200,seed=21");
    spec.timeLimit = 100 * kMs;
    const system::RunResult a = system::runExperiment(cfg, spec);
    const system::RunResult b = system::runExperiment(cfg, spec);
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_EQ(a.fingerprintEvents, b.fingerprintEvents);
    EXPECT_EQ(a.faultsInjected, b.faultsInjected);
    EXPECT_EQ(a.migratesTimedOut, b.migratesTimedOut);
    EXPECT_EQ(a.migratesRetried, b.migratesRetried);
    EXPECT_GT(a.faultsInjected, 0u);

    // A different fault seed yields a different schedule.
    system::WorkloadSpec other = spec;
    other.faults =
        FaultSpec::parse("drop=0.05,dup=0.02,delay=0.1:200,seed=22");
    const system::RunResult c = system::runExperiment(cfg, other);
    EXPECT_TRUE(c.fingerprint != a.fingerprint ||
                c.faultsInjected != a.faultsInjected);
}

/**
 * Quarantine/stall edge regression: a half-open probe that fires
 * inside a stall window used to re-arm probation at a constant
 * distance -- the backoff silently reset and the observer probed the
 * dead peer forever. Each failed probe now counts exactly once,
 * doubles the next wait, and after `deadAfterProbes` failures the
 * peer is declared dead for good. With a stall long enough to absorb
 * the whole backoff ladder (128 x 10 us here), at least one observer
 * must escalate to a declared-dead verdict -- and the stalled group
 * still drains its own backlog once the stall ends, so nothing is
 * lost.
 */
TEST(FaultWiring, UnresponsivePeerIsDeclaredDeadAfterProbeBackoff)
{
    system::DesignConfig cfg;
    cfg.design = system::Design::AcRss;
    cfg.cores = 16;
    cfg.groups = 4;
    cfg.params.hardening.quarantineAfter = 2;
    cfg.params.hardening.probation = 10 * kUs;

    system::WorkloadSpec spec;
    spec.service = workload::makeFixed(1 * kUs);
    spec.rateMrps = 8.0;
    spec.requests = 20000;
    spec.connections = 8;
    spec.seed = 42;
    // Manager 1 stalls from 200 us until past the end of arrivals
    // (~2.5 ms): probes keep failing for the whole backoff ladder.
    spec.faults = FaultSpec::parse("stall=1@200000+2500000");
    spec.timeLimit = 500 * kMs;

    const system::RunResult res = system::runExperiment(cfg, spec);
    EXPECT_EQ(res.completed, 20000u);
    EXPECT_GE(res.peersQuarantined, 1u);
    // The escalation fired: quarantine did not cycle forever.
    EXPECT_GE(res.peersDeadDeclared, 1u);
    // Declared-dead is bounded: at most every live observer of the
    // one stalled group (3 here), not one verdict per probe.
    EXPECT_LE(res.peersDeadDeclared, 3u);
}

// ---------------------------------------------------------------------
// Protocol-level trace records: the messaging layer logs each MIGRATE
// transition on the right ring with the right payload, under the same
// scripted fates the hardened-protocol tests use.
// ---------------------------------------------------------------------

#if ALTOC_TRACE_ENABLED

namespace {

using trace::TraceKind;
using trace::TraceRecord;

std::vector<TraceKind>
kindsOf(const std::vector<TraceRecord> &records)
{
    std::vector<TraceKind> kinds;
    for (const TraceRecord &rec : records)
        kinds.push_back(static_cast<TraceKind>(rec.kind));
    return kinds;
}

} // namespace

TEST(ProtocolTrace, DroppedMigrateLogsSendThenTimeout)
{
    FaultedMsgHarness h;
    trace::Tracer tr(4, 64);
    h.msg->setTracer(&tr);
    h.faults.pushFate(FaultInjector::MsgFate::Drop);
    EXPECT_TRUE(h.msg->sendMigrate(0, 1, h.batch(4), 0));
    h.sim.run();

    // The source ring shows the whole story: a send that was never
    // resolved by an ACK, then the timeout reclaiming it.
    const auto src = tr.snapshot(0);
    ASSERT_EQ(kindsOf(src),
              (std::vector<TraceKind>{TraceKind::MigrateSend,
                                      TraceKind::MigrateTimeout}));
    EXPECT_EQ(trace::traceCount(src[0].arg), 4u);
    EXPECT_EQ(trace::tracePeer(src[0].arg), 1u);
    EXPECT_EQ(src[0].aux, 0u); // first attempt
    EXPECT_EQ(trace::traceCount(src[1].arg), 4u);
    EXPECT_EQ(trace::tracePeer(src[1].arg), 1u);
    EXPECT_LT(src[0].tick, src[1].tick);
    // The message never arrived, so the destination ring is silent.
    EXPECT_EQ(tr.written(1), 0u);
}

TEST(ProtocolTrace, CleanMigrateLogsSendArriveAck)
{
    FaultedMsgHarness h;
    trace::Tracer tr(4, 64);
    h.msg->setTracer(&tr);
    h.faults.pushFate(FaultInjector::MsgFate::Deliver); // MIGRATE
    h.faults.pushFate(FaultInjector::MsgFate::Deliver); // ACK
    EXPECT_TRUE(h.msg->sendMigrate(0, 2, h.batch(5)));
    h.sim.run();

    const auto src = tr.snapshot(0);
    ASSERT_EQ(kindsOf(src),
              (std::vector<TraceKind>{TraceKind::MigrateSend,
                                      TraceKind::MigrateAck}));
    const auto dst = tr.snapshot(2);
    ASSERT_EQ(kindsOf(dst),
              (std::vector<TraceKind>{TraceKind::MigrateArrive}));
    // The arrival is logged on the DESTINATION ring with the source
    // as peer -- that reversal is what the timeline validator keys on.
    EXPECT_EQ(trace::tracePeer(dst[0].arg), 0u);
    EXPECT_EQ(trace::traceCount(dst[0].arg), 5u);
    // send -> arrive -> ack in simulated time.
    EXPECT_LT(src[0].tick, dst[0].tick);
    EXPECT_LT(dst[0].tick, src[1].tick);
}

TEST(ProtocolTrace, LostAckLogsArriveButTimesOutAtSource)
{
    FaultedMsgHarness h;
    trace::Tracer tr(4, 64);
    h.msg->setTracer(&tr);
    h.faults.pushFate(FaultInjector::MsgFate::Deliver); // MIGRATE
    h.faults.pushFate(FaultInjector::MsgFate::Drop);    // ACK
    EXPECT_TRUE(h.msg->sendMigrate(0, 2, h.batch(5), 1));
    h.sim.run();

    const auto src = tr.snapshot(0);
    ASSERT_EQ(kindsOf(src),
              (std::vector<TraceKind>{TraceKind::MigrateSend,
                                      TraceKind::MigrateTimeout}));
    EXPECT_EQ(src[1].aux, 1u); // timeout carries the attempt number
    // The batch DID land -- the trace distinguishes a lost MIGRATE
    // (no arrival) from a lost ACK (arrival then timeout).
    const auto dst = tr.snapshot(2);
    ASSERT_EQ(kindsOf(dst),
              (std::vector<TraceKind>{TraceKind::MigrateArrive}));
}

TEST(ProtocolTrace, ExhaustionNackIsLoggedAtTheSource)
{
    FaultedMsgHarness h;
    h.faults = FaultInjector(FaultSpec::parse("exhaust=1:1000000"));
    h.msg->setFaults(&h.faults);
    trace::Tracer tr(4, 64);
    h.msg->setTracer(&tr);
    EXPECT_TRUE(h.msg->sendMigrate(0, 1, h.batch(4)));
    h.sim.run();

    const auto src = tr.snapshot(0);
    ASSERT_EQ(kindsOf(src),
              (std::vector<TraceKind>{TraceKind::MigrateSend,
                                      TraceKind::MigrateNack}));
    EXPECT_EQ(trace::traceCount(src[1].arg), 4u);
    EXPECT_EQ(trace::tracePeer(src[1].arg), 1u);
    EXPECT_EQ(tr.written(1), 0u); // rejected before delivery
}

TEST(ProtocolTrace, FaultInjectorLogsScriptedStall)
{
    FaultInjector fi(FaultSpec::parse("stall=1@1000+500"));
    trace::Tracer tr(4, 16);
    fi.setTracer(&tr);
    // Querying inside the window injects (and logs) the stall once.
    EXPECT_EQ(fi.managerStalledUntil(1, 1200), 1500u);
    EXPECT_EQ(fi.managerStalledUntil(1, 1300), 1500u);
    const auto ring = tr.snapshot(1);
    ASSERT_EQ(ring.size(), 1u);
    EXPECT_EQ(static_cast<TraceKind>(ring[0].kind),
              TraceKind::FaultInject);
    EXPECT_EQ(ring[0].aux,
              static_cast<std::uint8_t>(
                  FaultInjector::Kind::MgrStall));
}

#else // !ALTOC_TRACE_ENABLED

TEST(ProtocolTrace, DISABLED_TraceHooksCompiledOut) {}

#endif // ALTOC_TRACE_ENABLED
