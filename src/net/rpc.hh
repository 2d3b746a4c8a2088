/**
 * @file
 * RPC request descriptors and their pool allocator.
 *
 * Mirroring the hardware design (Sec. V-B), schedulers move 14 B
 * *descriptors* while payloads notionally stay in the LLC; the Rpc
 * struct is that descriptor plus simulation bookkeeping. Descriptors
 * are pool-allocated and recycled so steady-state simulation performs
 * no heap traffic per request.
 */

#ifndef ALTOC_NET_RPC_HH
#define ALTOC_NET_RPC_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "common/logging.hh"
#include "common/units.hh"
#include "workload/distributions.hh"

// Mirrors sim/auditor.hh: builds without ALTOC_AUDIT compile the
// release() double-free scan away entirely.
#ifndef ALTOC_AUDIT_ENABLED
#define ALTOC_AUDIT_ENABLED 0
#endif

namespace altoc::net {

using workload::RequestKind;

/** Size of the hardware descriptor a MIGRATE message moves (Sec. V-B:
 *  8 B pointer + 48-bit IP/port = 14 B). */
constexpr unsigned kDescriptorBytes = 14;

/** Response wire size (Sec. II: >90% of responses < 64 B). */
constexpr std::uint32_t kResponseBytes = 64;

/**
 * One in-flight RPC request.
 */
struct Rpc
{
    /** Monotonically increasing request id. */
    std::uint64_t id = 0;

    /** Time the request was received by the NIC (latency epoch,
     *  Sec. VII-B: measurement is server-side from NIC receipt). */
    Tick nicArrival = 0;

    /** Time the request entered its current queue. */
    Tick enqueued = 0;

    /** Time the request first started executing on a core. */
    Tick started = kTickInf;

    /** Total on-core service demand (ns). */
    Tick service = 0;

    /** Remaining demand; differs from service under preemption. */
    Tick remaining = 0;

    /** Connection the request arrived on (RSS steering input). */
    std::uint32_t conn = 0;

    /** Wire size of the request message in bytes. */
    std::uint32_t sizeBytes = 0;

    /** MICA key (meaningful for Get/Set/Scan kinds). */
    std::uint64_t key = 0;

    /** EREW partition that owns this request's key. */
    std::uint16_t homeGroup = 0;

    /** Group whose NetRX queue currently holds the request. */
    std::uint16_t curGroup = 0;

    /** Request class. */
    RequestKind kind = RequestKind::Generic;

    /** Owning application/tenant (multi-tenant isolation support). */
    std::uint8_t tenant = 0;

    /** Set once the request has been migrated (migrate-at-most-once,
     *  Sec. V-B optimization 4). */
    bool migrated = false;

    /** True if this request was predicted to violate the SLO. */
    bool predictedViolation = false;

    /** True if the scheduler rejected the request past its deadline
     *  (reactive-drop baselines only; ALTOCUMULUS never drops). */
    bool dropped = false;

    /** Pool bookkeeping: true while the descriptor sits on the free
     *  list. Maintained only by audit builds (O(1) double-release
     *  detection); alloc()'s zero-reset clears it either way. */
    bool pooled = false;
};

/**
 * The on-the-wire essence of a not-yet-admitted request: every field
 * a load generator decides, none of the server-side bookkeeping. A
 * rack's ToR fills one of these per dispatch and the *receiving*
 * server materializes the Rpc from it on arrival (Server::injectWire)
 * -- so a server's descriptor pool is only ever touched by events of
 * that server's own event-kernel region, and a request in flight on
 * the rack link holds no descriptor. Sized to ride in a 48-byte
 * InlineFn capture alongside the target Server pointer.
 */
struct WireRpc
{
    std::uint64_t id = 0;
    Tick service = 0;
    std::uint64_t key = 0;
    std::uint32_t conn = 0;
    std::uint32_t sizeBytes = 0;
    std::uint16_t homeGroup = 0;
    RequestKind kind = RequestKind::Generic;
};

/**
 * Slab pool of Rpc descriptors with an embedded free list.
 *
 * The pool grows one slab at a time when a request finds the free
 * list empty, so it holds the peak number of descriptors in flight
 * (rounded up to a slab); below that peak, alloc/release never touch
 * the heap.
 * Pointers remain stable for the lifetime of the pool (slabs are
 * never moved), so components may hold raw Rpc* across events.
 */
class RpcPool
{
  public:
    /** Descriptors per slab unless the constructor says otherwise:
     *  256 (20 KB), which covers a server's usual in-flight peak in
     *  one slab or a few, so a server's first delivery does not build
     *  a large slab inside a timed run. */
    static constexpr std::size_t kDefaultSlab = 256;

    explicit RpcPool(std::size_t slab_size = kDefaultSlab)
        : slabSize_(slab_size)
    {}

    RpcPool(const RpcPool &) = delete;
    RpcPool &operator=(const RpcPool &) = delete;

    /** Obtain a zero-initialized descriptor. */
    Rpc *
    alloc()
    {
        if (free_.empty())
            grow();
        Rpc *r = free_.back();
        free_.pop_back();
        *r = Rpc{};
        ++outstanding_;
        return r;
    }

    /** Return a descriptor to the pool. */
    void
    release(Rpc *r)
    {
#if ALTOC_AUDIT_ENABLED
        // A double release corrupts the free list and silently hands
        // the same descriptor to two requests; catch it here while
        // the offender is on the stack. The pooled flag makes the
        // check O(1) -- a membership scan of the free list would cost
        // a whole slab's worth of pointers per release.
        altoc_assert(outstanding_ > 0,
                     "RpcPool::release underflow (rpc id %llu)",
                     static_cast<unsigned long long>(r->id));
        altoc_assert(!r->pooled,
                     "double release of rpc id %llu",
                     static_cast<unsigned long long>(r->id));
        r->pooled = true;
#endif
        free_.push_back(r);
        --outstanding_;
    }

    /** Number of descriptors currently allocated. */
    std::size_t outstanding() const { return outstanding_; }

    /** Total descriptors owned by the pool (free + outstanding). */
    std::size_t capacity() const { return slabs_.size() * slabSize_; }

  private:
    void
    grow()
    {
        slabs_.emplace_back(slabSize_);
        for (auto &r : slabs_.back())
            free_.push_back(&r);
    }

    std::size_t slabSize_;
    std::deque<std::vector<Rpc>> slabs_;
    std::vector<Rpc *> free_;
    std::size_t outstanding_ = 0;
};

} // namespace altoc::net

#endif // ALTOC_NET_RPC_HH
