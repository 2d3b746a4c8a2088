/**
 * @file
 * Deterministic fault injection engine.
 *
 * Turns a FaultSpec into concrete per-event decisions: the messaging
 * layer asks for each scheduling-VN message's fate (deliver / drop /
 * duplicate), the mesh asks for extra delivery delay, managers ask
 * whether their receive path is exhausted or their runtime stalled,
 * and cores ask how much a given execution slice is stretched.
 *
 * Determinism contract: message fates draw from a dedicated Rng
 * stream (the event order that triggers the draws is itself
 * deterministic), while every windowed or per-slice decision is a
 * *pure hash* of (seed, subject, window) -- query order and query
 * count cannot perturb it. Two runs of the same (workload seed, fault
 * spec) therefore produce bit-identical schedules, and the fault
 * events are mixed into the completion-stream fingerprint alongside
 * completions (system/experiment.cc).
 */

#ifndef ALTOC_SIM_FAULT_INJECTOR_HH
#define ALTOC_SIM_FAULT_INJECTOR_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/rng.hh"
#include "common/units.hh"
#include "sim/fault_spec.hh"

namespace altoc::trace {
class Tracer;
} // namespace altoc::trace

namespace altoc::sim {

/**
 * Per-run fault oracle; one instance per Server, consulted by the
 * mesh, the messaging layer, the group runtime and the cores. All
 * consults are gated on the injector pointer being non-null, so a
 * fault-free run never reaches this class.
 */
class FaultInjector
{
  public:
    /** Fate of one scheduling-VN message. */
    enum class MsgFate : std::uint8_t
    {
        Deliver,
        Drop,
        Duplicate,
    };

    /** Fault event categories (fingerprint + report taxonomy). */
    enum class Kind : std::uint8_t
    {
        MsgDrop,
        MsgDup,
        MsgDelay,
        RecvExhaust,
        MgrStall,
        CoreStraggle,
        CoreFreeze,
        CoreKill,
        MgrKill,
    };

    /** Aggregate injected-fault counters. */
    struct Counters
    {
        std::uint64_t msgDropped = 0;
        std::uint64_t msgDuplicated = 0;
        std::uint64_t msgDelayed = 0;
        std::uint64_t exhaustWindows = 0;
        std::uint64_t stallWindows = 0;
        std::uint64_t coreStraggles = 0;
        std::uint64_t coreFreezes = 0;
        std::uint64_t coreKills = 0;
        std::uint64_t managerKills = 0;

        std::uint64_t
        total() const
        {
            return msgDropped + msgDuplicated + msgDelayed +
                   exhaustWindows + stallWindows + coreStraggles +
                   coreFreezes + coreKills + managerKills;
        }
    };

    /** Observer invoked once per injected fault: (kind, tick, a, b)
     *  where (a, b) identify the subject (src/dst, mgr/window,
     *  core/window). The experiment driver mixes these into the run
     *  fingerprint. */
    using EventHook =
        std::function<void(Kind, Tick, unsigned, unsigned)>;

    explicit FaultInjector(const FaultSpec &spec);

    const FaultSpec &spec() const { return spec_; }

    // Which per-event hooks the spec can make act. While one of these
    // is false its hook is pure -- it returns 0, notes nothing and
    // draws no random number -- so a caller may skip the hook, or
    // never install it, without changing the run.

    /** messageDelay() can delay a message (delay=P:NS). */
    bool
    delaysMessages() const
    {
        return spec_.delayProb > 0.0 && spec_.delayNs > 0;
    }

    /** stretchExecution() can stretch a slice (straggle or freeze). */
    bool
    stretchesCores() const
    {
        return (spec_.straggleProb > 0.0 && spec_.straggleFactor > 1.0) ||
               (spec_.freezeProb > 0.0 && spec_.freezeNs > 0);
    }

    /** managerStalledUntil() can stall a manager (stall or stallp). */
    bool
    stallsManagers() const
    {
        return spec_.stallSet || (spec_.stallProb > 0.0 && spec_.stallNs > 0);
    }

    /**
     * Fate of one MIGRATE/ACK/NACK departing on the scheduling VN
     * from manager @p src toward @p dst at time @p now. Consumes one
     * decision from the fate stream (or the scripted queue, when a
     * test pushed fates).
     */
    MsgFate messageFate(Tick now, unsigned src, unsigned dst);

    /** Extra delivery delay for a scheduling-VN message departing at
     *  @p depart (pure hash; the mesh adds it to the arrival time). */
    Tick messageDelay(unsigned src, unsigned dst, Tick depart);

    /**
     * True when manager @p mgr's receive path is exhausted at @p now:
     * either an exhaustion-storm window drew true, or the manager is
     * mid-stall (a frozen runtime stops draining its receive FIFO).
     * Incoming MIGRATEs are NACKed for the duration.
     */
    bool recvExhausted(unsigned mgr, Tick now);

    /**
     * End of manager @p mgr's current stall window, or 0 when it is
     * not stalled at @p now. The group runtime skips Algorithm 1
     * invocations until then.
     */
    Tick managerStalledUntil(unsigned mgr, Tick now);

    /**
     * Extra nanoseconds core @p core needs for an execution slice of
     * @p slice ns starting at @p start (straggle stretch and/or
     * freeze pause). The stretch delays completion but does not count
     * as busy time.
     */
    Tick stretchExecution(unsigned core, Tick start, Tick slice);

    /**
     * Pure-hash killp decision: does core @p core fail-stop in
     * window @p window? A stateless predicate -- the server's kill
     * reaper evaluates it once per live core at each window boundary
     * and executes the deaths it returns, so the crash schedule is a
     * function of (seed, core, window) alone.
     */
    bool windowKillsCore(unsigned core, std::uint64_t window) const;

    /**
     * Record an executed fail-stop (a scripted kill/killm or a killp
     * window decision): counted, traced and mixed into the run
     * fingerprint like every other injection. @p kind must be
     * CoreKill or MgrKill.
     */
    void noteKill(Kind kind, Tick now, unsigned id, unsigned detail);

    const Counters &counters() const { return c_; }

    void setEventHook(EventHook fn) { hook_ = std::move(fn); }

    /** Attach the run's event tracer (null = untraced): every
     *  injected fault funnels through note() and lands on ring @p a
     *  (the afflicted manager/core) as a FaultInject record. */
    void setTracer(trace::Tracer *tracer) { tracer_ = tracer; }

    /** Test support: script the next message fates ahead of any
     *  random draw (consumed FIFO). */
    void pushFate(MsgFate fate) { scripted_.push_back(fate); }

  private:
    /** Pure uniform draw in [0, 1) from (seed, stream, a, b). */
    double hashUniform(std::uint64_t stream, std::uint64_t a,
                       std::uint64_t b) const;

    void note(Kind kind, Tick now, unsigned a, unsigned b);

    /** Count a (mgr, window) pair at most once. */
    bool countWindow(std::vector<std::int64_t> &seen, unsigned mgr,
                     std::int64_t window);

    FaultSpec spec_;
    Rng fateRng_;
    std::deque<MsgFate> scripted_;
    std::vector<std::int64_t> exhaustSeen_;
    std::vector<std::int64_t> stallSeen_;
    bool explicitStallSeen_ = false;
    Counters c_;
    EventHook hook_;
    trace::Tracer *tracer_ = nullptr;
};

} // namespace altoc::sim

#endif // ALTOC_SIM_FAULT_INJECTOR_HH
