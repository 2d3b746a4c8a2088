/**
 * @file
 * d-FCFS with work stealing (ZygOS [53]).
 *
 * Idle cores with empty local queues steal the head of a randomly
 * chosen victim queue (Sec. II-D). Each steal costs 2-3 cache misses
 * (200-400 ns of inter-thread communication) and moves the *entire*
 * message, and the victim is chosen without regard to the SLO --
 * exactly the overheads the paper charges ZygOS with. A steal attempt
 * pays its latency even when the victim's queue turns out to be empty
 * by the time the miss chain resolves.
 */

#ifndef ALTOC_SCHED_WORK_STEALING_HH
#define ALTOC_SCHED_WORK_STEALING_HH

#include <cstdint>

#include "sched/dfcfs.hh"

namespace altoc::sched {

/**
 * ZygOS-style work stealing on top of per-core d-FCFS queues.
 */
class WorkStealingScheduler : public DFcfsScheduler
{
  public:
    struct Config
    {
        std::string label = "ZygOS";

        /** Local dispatch overhead (same meaning as d-FCFS). */
        Tick dispatchOverhead = lat::kL1;

        /** Bounds of one steal operation's latency (Sec. II-D). */
        Tick stealMin = lat::kStealMin;
        Tick stealMax = lat::kStealMax;

        /** Victim probes per idle episode before giving up until new
         *  work arrives. */
        unsigned maxProbes = 2;
    };

    explicit WorkStealingScheduler(const Config &cfg);

    std::string name() const override { return wsCfg_.label; }
    void deliver(net::Rpc *r, unsigned queue) override;

    /** Requests that crossed cores via stealing. */
    std::uint64_t steals() const { return steals_; }

  protected:
    void onAttach() override;
    void onCompletion(cpu::Core &core, net::Rpc *r) override;
    void dispatchRescued(unsigned succ) override;

  private:
    /** Begin a steal episode on idle core @p thief. */
    void beginSteal(unsigned thief);

    /** Live victim for @p thief, or -1 when no live peer exists.
     *  Consumes RNG draws exactly as the pre-fault code did when
     *  every core is alive, keeping pristine runs bit-identical. */
    int pickVictim(unsigned thief);

    /** Steal latency resolved: try to take work from @p victim. */
    void finishSteal(unsigned thief, unsigned victim, unsigned probes_left);

    /** Wake one parked core to go stealing (work exists elsewhere). */
    void wakeIdleCore();

    Config wsCfg_;
    std::vector<bool> stealing_;
    /** Cores that gave up probing and parked until new work shows up. */
    std::vector<unsigned> parked_;
    std::uint64_t steals_ = 0;
};

} // namespace altoc::sched

#endif // ALTOC_SCHED_WORK_STEALING_HH
