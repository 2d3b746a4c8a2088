/**
 * @file
 * Always-on binary event tracing (telemetry substrate).
 *
 * A Tracer owns one fixed-slot ring of 16-byte POD records per core
 * (manager/group events use the manager's core index as their ring).
 * The record path is a bounds check, an index increment and a 16-byte
 * store into preallocated slots: no heap allocation, no branches that
 * schedule events, no effect whatsoever on simulated behavior. When a
 * ring is full the oldest record is overwritten and a per-ring drop
 * counter advances, so a bounded-memory trace of the most recent
 * window always survives arbitrarily long runs.
 *
 * Gating mirrors the invariant auditor (sim/auditor.hh): hook call
 * sites compile away unless the build sets ALTOC_TRACE_ENABLED
 * (CMake option ALTOC_TRACE, default ON), and even then they are a
 * null-pointer test unless the run attached a tracer. The classes
 * themselves are always compiled so tests can drive them directly in
 * any configuration.
 *
 * The on-disk format (writeFile(), decoded by trace/reader.hh and the
 * `altoc-trace` CLI) is deterministic: the same run produces
 * bit-identical trace files regardless of host, thread count or wall
 * clock. See DESIGN.md "Telemetry".
 */

#ifndef ALTOC_TRACE_TRACE_HH
#define ALTOC_TRACE_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hh"

#ifndef ALTOC_TRACE_ENABLED
#define ALTOC_TRACE_ENABLED 0
#endif

/**
 * Record a trace event iff tracing is compiled in and a tracer is
 * attached: ALTOC_TRACE_HOOK(tr, now, core, TraceKind::X, arg).
 * Expands to nothing in non-trace builds, so the disabled path is a
 * no-op (not even a branch).
 */
#if ALTOC_TRACE_ENABLED
#define ALTOC_TRACE_HOOK(tr, ...)                                           \
    do {                                                                    \
        if ((tr) != nullptr)                                                \
            (tr)->__VA_ARGS__;                                              \
    } while (0)
#else
#define ALTOC_TRACE_HOOK(tr, ...)                                           \
    do {                                                                    \
    } while (0)
#endif

namespace altoc::trace {

/**
 * Event taxonomy. Values are part of the on-disk format: append new
 * kinds at the end and never renumber (the decoder rejects files
 * whose version it does not know, but within a version the mapping is
 * frozen). 0 is reserved as "invalid" so zeroed storage is never
 * mistaken for a record.
 */
enum class TraceKind : std::uint8_t
{
    Invalid = 0,
    MigrateSend,        //!< MIGRATE launched      (core=src, peer=dst)
    MigrateArrive,      //!< batch accepted        (core=dst, peer=src)
    MigrateAck,         //!< ACK back at source    (core=src, peer=dst)
    MigrateNack,        //!< NACK back at source   (core=src, peer=dst)
    MigrateTimeout,     //!< ACK deadline fired    (core=src, peer=dst)
    MigrateRetry,       //!< timed-out batch re-sent (core=src, peer=alt dst)
    QuarantineEnter,    //!< peer masked out       (core=observer, peer)
    QuarantineProbe,    //!< half-open probe sent  (core=observer, peer)
    QuarantineRejoin,   //!< peer readmitted       (core=observer, peer)
    ThresholdRecompute, //!< Alg. 1 line 3         (core=group, arg=threshold)
    ManagerStall,       //!< runtime skipped       (core=group, arg=ns left)
    FaultInject,        //!< injected fault        (aux=FaultInjector::Kind)
    CoreDead,           //!< core fail-stopped     (core=ring, arg=core id,
                        //!<                        aux=1 for a manager)
    PeerDeadDeclared,   //!< peer verdict: dead    (core=observer,
                        //!<                        arg=(probeFailures, peer))
    ManagerFailover,    //!< group adopted         (core=successor,
                        //!<                        arg=(rescued, dead group))
    DescriptorRescue,   //!< orphans re-homed      (core=rescuer,
                        //!<                        arg=(count, source))
    AdmissionShed,      //!< arrival shed          (core=0, arg=rpc id)
    TorDispatch,        //!< ToR steered a request (core=ToR request
                        //!<                        ring, arg=(rpc id low
                        //!<                        16, server), aux=policy)
    ServerDead,         //!< server lost all workers (core=ToR control
                        //!<                        ring, arg=server id)
};

/** One past the largest valid kind (summary-table size). */
constexpr std::size_t kTraceKindCount =
    static_cast<std::size_t>(TraceKind::ServerDead) + 1;

/** Stable display name of @p kind ("?" for out-of-range values). */
const char *traceKindName(TraceKind kind);

/** Parse a display name back to a kind (Invalid when unknown). */
TraceKind traceKindFromName(const std::string &name);

/**
 * One trace record: 16 bytes, POD, written verbatim to disk. The
 * meaning of arg/aux depends on kind; the migrate/quarantine kinds
 * pack (count, peer) into arg via tracePack().
 */
struct TraceRecord
{
    Tick tick = 0;          //!< simulated time of the event
    std::uint32_t arg = 0;  //!< kind-specific payload
    std::uint16_t core = 0; //!< writer ring (core / manager index)
    std::uint8_t kind = 0;  //!< TraceKind
    std::uint8_t aux = 0;   //!< small payload (attempt, fault kind)
};

static_assert(sizeof(TraceRecord) == 16, "records are 16-byte POD");

/** Pack (count, peer) into a record's arg field. */
constexpr std::uint32_t
tracePack(std::uint32_t count, std::uint32_t peer)
{
    return (count << 16) | (peer & 0xffffu);
}

/** Count half of a packed arg. */
constexpr std::uint32_t traceCount(std::uint32_t arg) { return arg >> 16; }

/** Peer half of a packed arg. */
constexpr std::uint32_t tracePeer(std::uint32_t arg)
{
    return arg & 0xffffu;
}

/**
 * True for kinds whose arg packs (count, peer) where peer is a core
 * or group index local to the writing server. The rack trace writer
 * rewrites those peers into the flat id space (server * cores +
 * local); the decoder keys its pair ledgers off them. TorDispatch is
 * deliberately not included -- its peer half is a server index, which
 * is already global.
 */
bool traceKindPacksPeer(TraceKind kind);

/** Per-run tracing configuration (Server::Config / WorkloadSpec). */
struct TraceConfig
{
    /** Attach a tracer to the run. Off by default: a pristine run
     *  carries no tracer and every hook is a dead branch. */
    bool enabled = false;

    /** Fixed slot count of each per-core ring. 16 B per slot; the
     *  ring keeps the newest `ringSlots` records per core. */
    std::size_t ringSlots = 4096;

    /** Write the binary trace here after the run (empty = keep the
     *  rings in memory only; see Server::writeTrace). */
    std::string file;
};

/** On-disk file header (all fields little-endian, as written). */
struct TraceFileHeader
{
    std::uint32_t magic = 0;      //!< kTraceMagic
    std::uint16_t version = 0;    //!< kTraceVersion
    std::uint16_t recordSize = 0; //!< sizeof(TraceRecord)
    std::uint32_t ringCount = 0;

    /** Rings per server in a federated (rack) trace, so the decoder
     *  can recover (server, core) from the flat ring index: ring
     *  s*coresPerServer + c is core c of server s and the last ring is
     *  the ToR. 0 means a legacy single-server trace (every pre-rack
     *  file and every N=1 run writes 0, keeping those bytes
     *  untouched). Was `reserved`, always written as 0. */
    std::uint32_t coresPerServer = 0;
};

/** On-disk per-ring header, followed by `stored` records
 *  oldest-to-newest. */
struct TraceRingHeader
{
    std::uint32_t core = 0;   //!< ring index
    std::uint32_t stored = 0; //!< records serialized after this header
    std::uint64_t written = 0; //!< records ever pushed to the ring
    std::uint64_t dropped = 0; //!< records overwritten (written - stored)
};

static_assert(sizeof(TraceFileHeader) == 16, "stable header layout");
static_assert(sizeof(TraceRingHeader) == 24, "stable ring header layout");

/** "ALTC" little-endian. */
constexpr std::uint32_t kTraceMagic = 0x43544c41u;
constexpr std::uint16_t kTraceVersion = 1;

/**
 * The per-core ring set. Single-threaded like the simulator that
 * feeds it; one instance per Server.
 */
class Tracer
{
  public:
    /**
     * @param rings         ring count (one per core)
     * @param slots_per_ring fixed slot count of each ring (>= 1)
     */
    Tracer(unsigned rings, std::size_t slots_per_ring);

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /**
     * Record one event on ring @p core. The hot path: bounds test,
     * 16-byte store, counter bump. Never allocates, never throws;
     * out-of-range rings and a disabled tracer drop the record
     * silently (the record path must not be able to kill a run).
     */
    void
    record(Tick tick, unsigned core, TraceKind kind, std::uint32_t arg,
           std::uint8_t aux = 0) noexcept
    {
        if (!enabled_ || core >= rings_.size())
            return;
        Ring &r = rings_[core];
        const std::size_t cap = r.slots.size();
        r.slots[static_cast<std::size_t>(r.written % cap)] =
            TraceRecord{tick, arg, static_cast<std::uint16_t>(core),
                        static_cast<std::uint8_t>(kind), aux};
        if (r.written >= cap)
            ++r.dropped;
        ++r.written;
    }

    /** Runtime gate: a disabled tracer ignores record() entirely. */
    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    unsigned numRings() const
    {
        return static_cast<unsigned>(rings_.size());
    }

    std::size_t ringSlots() const { return slots_; }

    /** Records ever pushed to ring @p core. */
    std::uint64_t written(unsigned core) const
    {
        return rings_[core].written;
    }

    /** Records overwritten (lost) on ring @p core. */
    std::uint64_t dropped(unsigned core) const
    {
        return rings_[core].dropped;
    }

    /** Live records currently held by ring @p core. */
    std::size_t stored(unsigned core) const;

    /** Sum of written() over all rings. */
    std::uint64_t totalWritten() const;

    /** Sum of dropped() over all rings. */
    std::uint64_t totalDropped() const;

    /** Copy ring @p core's live records, oldest to newest
     *  (test/decoder support; allocates, not a hot path). */
    std::vector<TraceRecord> snapshot(unsigned core) const;

    /** Forget every record and counter; keeps the slot storage. */
    void reset();

    /**
     * Serialize all rings to @p path in the format documented above.
     * Deterministic: identical ring contents produce identical bytes.
     * Returns false (leaving any partial file behind) on I/O failure.
     */
    bool writeFile(const std::string &path) const;

  private:
    struct Ring
    {
        std::vector<TraceRecord> slots;
        std::uint64_t written = 0;
        std::uint64_t dropped = 0;
    };

    std::vector<Ring> rings_;
    std::size_t slots_ = 0;
    bool enabled_ = true;
};

/**
 * Serialize a rack's tracers into one federated trace file: server
 * s's ring c becomes flat ring s*coresPerServer + c and the rings of
 * @p tor (the ToR dispatcher's tracer, may be null) follow them in
 * order. The header's coresPerServer field carries @p coresPerServer
 * so decoders can invert the flattening; every per-server tracer must
 * have exactly @p coresPerServer rings. Same determinism contract as
 * Tracer::writeFile. Returns false on I/O failure.
 */
bool writeRackTraceFile(const std::string &path,
                        const std::vector<const Tracer *> &servers,
                        unsigned coresPerServer, const Tracer *tor);

} // namespace altoc::trace

#endif // ALTOC_TRACE_TRACE_HH
