#include "trace/trace.hh"

#include <cstdio>

namespace altoc::trace {

namespace {

constexpr const char *kKindNames[kTraceKindCount] = {
    "Invalid",         "MigrateSend",     "MigrateArrive",
    "MigrateAck",      "MigrateNack",     "MigrateTimeout",
    "MigrateRetry",    "QuarantineEnter", "QuarantineProbe",
    "QuarantineRejoin", "ThresholdRecompute", "ManagerStall",
    "FaultInject",     "CoreDead",        "PeerDeadDeclared",
    "ManagerFailover", "DescriptorRescue", "AdmissionShed",
    "TorDispatch",     "ServerDead",
};

static_assert(sizeof(kKindNames) / sizeof(kKindNames[0]) ==
                  kTraceKindCount,
              "one name per kind");

/** fopen wrapper that closes on scope exit (writeFile error paths). */
struct File
{
    explicit File(const std::string &path)
        : fp(std::fopen(path.c_str(), "wb"))
    {
    }

    ~File()
    {
        if (fp != nullptr)
            std::fclose(fp);
    }

    File(const File &) = delete;
    File &operator=(const File &) = delete;

    bool
    put(const void *data, std::size_t bytes)
    {
        return std::fwrite(data, 1, bytes, fp) == bytes;
    }

    std::FILE *fp;
};

} // namespace

const char *
traceKindName(TraceKind kind)
{
    const auto idx = static_cast<std::size_t>(kind);
    return idx < kTraceKindCount ? kKindNames[idx] : "?";
}

bool
traceKindPacksPeer(TraceKind kind)
{
    switch (kind) {
    case TraceKind::MigrateSend:
    case TraceKind::MigrateArrive:
    case TraceKind::MigrateAck:
    case TraceKind::MigrateNack:
    case TraceKind::MigrateTimeout:
    case TraceKind::MigrateRetry:
    case TraceKind::QuarantineEnter:
    case TraceKind::QuarantineProbe:
    case TraceKind::QuarantineRejoin:
    case TraceKind::PeerDeadDeclared:
    case TraceKind::ManagerFailover:
    case TraceKind::DescriptorRescue:
        return true;
    default:
        return false;
    }
}

TraceKind
traceKindFromName(const std::string &name)
{
    for (std::size_t i = 0; i < kTraceKindCount; ++i) {
        if (name == kKindNames[i])
            return static_cast<TraceKind>(i);
    }
    return TraceKind::Invalid;
}

Tracer::Tracer(unsigned rings, std::size_t slots_per_ring)
    : rings_(rings), slots_(slots_per_ring > 0 ? slots_per_ring : 1)
{
    for (Ring &r : rings_)
        r.slots.resize(slots_);
}

std::size_t
Tracer::stored(unsigned core) const
{
    const Ring &r = rings_[core];
    return r.written < r.slots.size()
               ? static_cast<std::size_t>(r.written)
               : r.slots.size();
}

std::uint64_t
Tracer::totalWritten() const
{
    std::uint64_t sum = 0;
    for (const Ring &r : rings_)
        sum += r.written;
    return sum;
}

std::uint64_t
Tracer::totalDropped() const
{
    std::uint64_t sum = 0;
    for (const Ring &r : rings_)
        sum += r.dropped;
    return sum;
}

std::vector<TraceRecord>
Tracer::snapshot(unsigned core) const
{
    std::vector<TraceRecord> out;
    if (core >= rings_.size())
        return out;
    const Ring &r = rings_[core];
    const std::size_t cap = r.slots.size();
    const std::size_t live = stored(core);
    out.reserve(live);
    // Oldest live record sits at written % cap once the ring has
    // wrapped; before that the ring is a plain array from slot 0.
    const std::size_t start =
        r.written < cap ? 0 : static_cast<std::size_t>(r.written % cap);
    for (std::size_t i = 0; i < live; ++i)
        out.push_back(r.slots[(start + i) % cap]);
    return out;
}

void
Tracer::reset()
{
    for (Ring &r : rings_) {
        r.written = 0;
        r.dropped = 0;
    }
}

bool
Tracer::writeFile(const std::string &path) const
{
    File f(path);
    if (f.fp == nullptr)
        return false;

    TraceFileHeader hdr;
    hdr.magic = kTraceMagic;
    hdr.version = kTraceVersion;
    hdr.recordSize = sizeof(TraceRecord);
    hdr.ringCount = static_cast<std::uint32_t>(rings_.size());
    hdr.coresPerServer = 0;
    if (!f.put(&hdr, sizeof(hdr)))
        return false;

    for (unsigned core = 0; core < rings_.size(); ++core) {
        const Ring &r = rings_[core];
        TraceRingHeader rh;
        rh.core = core;
        rh.stored = static_cast<std::uint32_t>(stored(core));
        rh.written = r.written;
        rh.dropped = r.dropped;
        if (!f.put(&rh, sizeof(rh)))
            return false;
        const std::vector<TraceRecord> live = snapshot(core);
        if (!live.empty() &&
            !f.put(live.data(), live.size() * sizeof(TraceRecord)))
            return false;
    }
    return std::fflush(f.fp) == 0;
}

namespace {

/**
 * Serialize one ring of @p tr as flat ring @p flat (rack writer).
 * @p peerBase is the writing server's base in the flat id space
 * (server * coresPerServer): ring indices, packed peer halves and
 * CoreDead core ids are all local to the writer, so each gets the
 * base added -- the decoder's pair ledgers and death rules would
 * otherwise cross-match cores of different servers.
 */
bool
putRing(File &f, const Tracer &tr, unsigned core, unsigned flat,
        unsigned peerBase)
{
    TraceRingHeader rh;
    rh.core = flat;
    rh.stored = static_cast<std::uint32_t>(tr.stored(core));
    rh.written = tr.written(core);
    rh.dropped = tr.dropped(core);
    if (!f.put(&rh, sizeof(rh)))
        return false;
    std::vector<TraceRecord> live = tr.snapshot(core);
    for (TraceRecord &rec : live) {
        rec.core = static_cast<std::uint16_t>(flat);
        const auto kind = static_cast<TraceKind>(rec.kind);
        if (traceKindPacksPeer(kind)) {
            rec.arg = tracePack(traceCount(rec.arg),
                                tracePeer(rec.arg) + peerBase);
        } else if (kind == TraceKind::CoreDead) {
            rec.arg += peerBase;
        }
    }
    return live.empty() ||
           f.put(live.data(), live.size() * sizeof(TraceRecord));
}

} // namespace

bool
writeRackTraceFile(const std::string &path,
                   const std::vector<const Tracer *> &servers,
                   unsigned coresPerServer, const Tracer *tor)
{
    File f(path);
    if (f.fp == nullptr)
        return false;

    TraceFileHeader hdr;
    hdr.magic = kTraceMagic;
    hdr.version = kTraceVersion;
    hdr.recordSize = sizeof(TraceRecord);
    hdr.ringCount = static_cast<std::uint32_t>(
        servers.size() * coresPerServer +
        (tor != nullptr ? tor->numRings() : 0));
    hdr.coresPerServer = coresPerServer;
    if (!f.put(&hdr, sizeof(hdr)))
        return false;

    unsigned flat = 0;
    unsigned base = 0;
    for (const Tracer *tr : servers) {
        for (unsigned core = 0; core < coresPerServer; ++core, ++flat) {
            if (!putRing(f, *tr, core, flat, base))
                return false;
        }
        base += coresPerServer;
    }
    // The ToR rings' records (TorDispatch, ServerDead, AdmissionShed)
    // carry server indices or rpc ids, never local core ids -- no
    // peer rewrite.
    if (tor != nullptr) {
        for (unsigned r = 0; r < tor->numRings(); ++r, ++flat) {
            if (!putRing(f, *tor, r, flat, 0))
                return false;
        }
    }
    return std::fflush(f.fp) == 0;
}

} // namespace altoc::trace
