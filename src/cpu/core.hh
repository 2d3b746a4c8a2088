/**
 * @file
 * Worker core execution model.
 *
 * Cores execute RPC handlers run-to-completion (Sec. IX-A) unless the
 * scheduler supplies a preemption quantum (Shinjuku's 5 us timer,
 * nanoPU's piggybacked preemption). A core is a pure executor: it
 * owns no queue; schedulers decide what runs where and are notified
 * on completion or quantum expiry.
 */

#ifndef ALTOC_CPU_CORE_HH
#define ALTOC_CPU_CORE_HH

#include <cstdint>

#include "common/inline_fn.hh"
#include "common/units.hh"
#include "net/rpc.hh"
#include "sim/simulator.hh"

namespace altoc::cpu {

/**
 * One hardware thread executing RPC handlers.
 */
class Core
{
  public:
    /** Invoked when the running request finishes all its work.
     *  Inline (no heap, no type-erasure allocation): completion fires
     *  once per executed slice, squarely on the descriptor hot path. */
    using CompletionFn = InlineFunction<void(Core &, net::Rpc *)>;

    /** Invoked when the quantum expires with work remaining. */
    using PreemptFn = InlineFunction<void(Core &, net::Rpc *)>;

    Core(sim::Simulator &sim, unsigned id, unsigned tile);

    Core(const Core &) = delete;
    Core &operator=(const Core &) = delete;
    Core(Core &&) = delete;

    unsigned id() const { return id_; }

    /** NoC tile this core occupies. */
    unsigned tile() const { return tile_; }

    bool busy() const { return busy_; }

    /** True once the core has fail-stopped (fault injection). */
    bool dead() const { return dead_; }

    net::Rpc *current() const { return current_; }

    void setCompletion(CompletionFn fn) { onComplete_ = std::move(fn); }
    void setPreempt(PreemptFn fn) { onPreempt_ = std::move(fn); }

    /**
     * Invoked once, when a request first starts executing, and may
     * rewrite r.service / r.remaining. Substrates that derive service
     * time from real work (the MICA KVS executes the GET/SET against
     * its partition here) install this; the default keeps the
     * workload-sampled demand.
     */
    using ServiceResolver = InlineCopyFn<void(net::Rpc &, Core &)>;

    void setResolver(ServiceResolver fn) { resolver_ = std::move(fn); }

    /**
     * Begin executing @p r. The request starts after
     * @p dispatch_delay ns (scheduler hand-off cost) and runs for
     * min(r->remaining, quantum) ns, then fires the completion or
     * preemption callback. The core must be idle.
     */
    void run(net::Rpc *r, Tick dispatch_delay, Tick quantum = kTickInf);

    /**
     * Fail-stop this core permanently. Any in-flight slice is
     * abandoned (its completion event fires into a dead guard and is
     * ignored -- no completion or preemption callback runs), and the
     * orphaned request, if any, is returned for the scheduler to
     * rescue. A dead core never accepts another dispatch.
     */
    net::Rpc *kill();

    /**
     * Execution-stretch hook: consulted once per slice with
     * (core id, start tick, slice ns) and returns extra wall time the
     * slice takes (straggler dips, freezes). The fault injector
     * installs this; unset (the default) costs nothing. Stretch time
     * does not count toward busyNs.
     */
    using StretchFn = InlineFunction<Tick(unsigned, Tick, Tick)>;

    void setStretch(StretchFn fn) { stretch_ = std::move(fn); }

    /** Nanoseconds spent executing request work (utilization). */
    Tick busyNs() const { return busyNs_; }

    /** Requests fully completed on this core. */
    std::uint64_t completed() const { return completed_; }

    /** Quantum expiries (preemptions) on this core. */
    std::uint64_t preemptions() const { return preemptions_; }

  private:
    void finishSlice(net::Rpc *r, Tick slice);

    sim::Simulator &sim_;
    unsigned id_;
    unsigned tile_;
    bool busy_ = false;
    bool dead_ = false;
    net::Rpc *current_ = nullptr;
    CompletionFn onComplete_;
    PreemptFn onPreempt_;
    ServiceResolver resolver_;
    StretchFn stretch_;
    Tick busyNs_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t preemptions_ = 0;
};

} // namespace altoc::cpu

#endif // ALTOC_CPU_CORE_HH
