/**
 * @file
 * Declarative fault schedule for a simulated run.
 *
 * The paper's messaging mechanism (Sec. V) assumes a lossless NoC
 * virtual network and always-responsive manager tiles. A FaultSpec
 * describes how far a run departs from that ideal: message drop /
 * duplication / delay on the scheduling virtual network, receive-path
 * exhaustion storms, straggling or frozen cores, and manager stalls.
 * The spec is pure data -- sim::FaultInjector turns it into
 * deterministic per-event decisions, so a (seed, spec) pair fully
 * determines a fault schedule and runs stay fingerprintable.
 *
 * Specs parse from a compact "key=value,key=value" string, accepted
 * both programmatically and via the ALTOC_FAULTS environment variable
 * (the bench binaries forward --fault-spec):
 *
 *   drop=P            drop each sched-VN message with probability P
 *   dup=P             duplicate each sched-VN message with prob. P
 *   delay=P:NS        with probability P, delay a message by NS ns
 *   exhaust=P:NS      per NS-long window, a manager's receive path is
 *                     exhausted (all MIGRATEs NACK) with prob. P
 *   straggle=P:F      per execution slice, a core runs F x slower
 *                     with probability P (transient frequency dip)
 *   freeze=P:NS       per execution slice, a core freezes for NS ns
 *                     with probability P
 *   stall=M@AT+DUR    manager M's runtime stalls during [AT, AT+DUR)
 *   stallp=P:NS       per NS-long window, a manager's runtime stalls
 *                     for the window with probability P
 *   kill=C@AT         core C fail-stops (permanently) at tick AT;
 *                     repeatable for multiple cores
 *   killm=M@AT        manager tile M fail-stops at tick AT (manager
 *                     designs fail the whole group over; repeatable)
 *   killp=P:NS        per NS-long window, each live core fail-stops
 *                     with probability P (probabilistic crash storm)
 *   seed=N            fault-stream seed (independent of the workload)
 *
 * Rack runs (system/rack.hh) add an optional server scope: the kill,
 * killm and drop keys accept an `S<k>.` prefix targeting server k of
 * the topology (`S1.kill=3@200000` fail-stops core 3 of server 1;
 * `S2.drop=0.05` drops scheduling-VN messages on server 2 only).
 * Unscoped keys keep their single-server meaning and apply to server
 * 0, so every pre-rack spec is unchanged by the extension. Scoping
 * any other key, a malformed index (`S.kill`, `Sx.kill`) or an
 * unknown scoped key is rejected at parse time.
 *
 * Probabilities must lie in [0, 1]; durations, window lengths and
 * kill ticks must be positive integers -- parse() rejects anything
 * else with a message naming the key and the offending value.
 *
 * Example: "drop=0.01,dup=0.05,delay=0.2:300,stall=1@50000+30000"
 */

#ifndef ALTOC_SIM_FAULT_SPEC_HH
#define ALTOC_SIM_FAULT_SPEC_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.hh"

namespace altoc::sim {

/**
 * One run's fault schedule. Default-constructed == no faults; the
 * Server only instantiates a FaultInjector when enabled() is true, so
 * the no-fault path stays a zero-cost abstraction.
 */
struct FaultSpec
{
    /** Per-message drop probability on the scheduling VN. */
    double dropProb = 0.0;

    /** Per-message duplication probability on the scheduling VN. */
    double dupProb = 0.0;

    /** Per-message extra-delay probability and magnitude. */
    double delayProb = 0.0;
    Tick delayNs = 0;

    /** Receive-path exhaustion storms: per window of exhaustNs ns a
     *  manager NACKs every incoming MIGRATE with prob. exhaustProb. */
    double exhaustProb = 0.0;
    Tick exhaustNs = 0;

    /** Straggler cores: per execution slice, with prob. straggleProb
     *  the slice takes straggleFactor x its nominal time. */
    double straggleProb = 0.0;
    double straggleFactor = 1.0;

    /** Frozen cores: per execution slice, with prob. freezeProb the
     *  core pauses for freezeNs extra ns. */
    double freezeProb = 0.0;
    Tick freezeNs = 0;

    /** One explicit manager stall window [stallAt, stallAt+stallFor)
     *  for manager stallMgr (the chaos suite's transient-outage
     *  scenario). */
    bool stallSet = false;
    unsigned stallMgr = 0;
    Tick stallAt = 0;
    Tick stallFor = 0;

    /** Random manager stalls: per window of stallNs ns, a manager's
     *  runtime stalls for the window with prob. stallProb. */
    double stallProb = 0.0;
    Tick stallNs = 0;

    /** One scripted fail-stop event: entity @p id dies at tick @p at
     *  and never recovers. */
    struct Kill
    {
        unsigned id = 0;
        Tick at = 0;
    };

    /** Scripted core deaths (kill=C@AT, repeatable, schedule order). */
    std::vector<Kill> kills;

    /** Scripted manager-tile deaths (killm=M@AT, repeatable). */
    std::vector<Kill> managerKills;

    /** Probabilistic crash storm: per window of killNs ns, each still-
     *  live core fail-stops with prob. killProb (pure-hash decision,
     *  so the schedule is a function of (seed, core, window)). */
    double killProb = 0.0;
    Tick killNs = 0;

    /** One server-scoped fail-stop (`S<k>.kill` / `S<k>.killm`). */
    struct ScopedKill
    {
        unsigned server = 0;
        Kill kill;
    };

    /** One server-scoped drop probability (`S<k>.drop`). */
    struct ScopedDrop
    {
        unsigned server = 0;
        double prob = 0.0;
    };

    /** Scoped core deaths (`S<k>.kill=C@AT`, repeatable, spec order).
     *  Applied only by rack runs via forServer(); a single-server run
     *  handed a spec that scopes past its topology dies loudly. */
    std::vector<ScopedKill> scopedKills;

    /** Scoped manager-tile deaths (`S<k>.killm=M@AT`, repeatable). */
    std::vector<ScopedKill> scopedManagerKills;

    /** Scoped sched-VN drop probabilities (`S<k>.drop=P`; overrides
     *  the unscoped probability on that server). */
    std::vector<ScopedDrop> scopedDrops;

    /** Seed of the fault decision streams (independent of workload). */
    std::uint64_t seed = 1;

    /** True when any fault can actually fire. */
    bool enabled() const;

    /** Parse the "key=value,..." grammar above; panics on errors. */
    static FaultSpec parse(std::string_view text);

    /** Read ALTOC_FAULTS; nullopt when unset or empty. */
    static std::optional<FaultSpec> fromEnv();

    /** Canonical spec string (parse(describe()) round-trips). */
    std::string describe() const;

    /**
     * The effective single-server spec for server @p server of a rack.
     * Server 0 inherits every unscoped key plus its own scoped
     * entries, so forServer(0) of an unscoped spec is the identity --
     * the pre-rack bit-identity anchor. Servers past 0 see only their
     * scoped entries. The fault seed folds the server index in
     * (identity for server 0) so two servers under the same scoped
     * schedule draw independent decision streams. The returned spec
     * carries no scoped entries.
     */
    FaultSpec forServer(unsigned server) const;

    /**
     * Highest server index any scoped entry targets, or -1 when the
     * spec is fully unscoped. Rack construction validates this
     * against the topology; runExperiment's single-server path
     * rejects any spec with maxScopedServer() > 0.
     */
    int maxScopedServer() const;
};

} // namespace altoc::sim

#endif // ALTOC_SIM_FAULT_SPEC_HH
