/**
 * @file
 * Trace-file decoding, timeline merging and causal validation.
 *
 * The reader is the other half of trace/trace.hh: it loads the binary
 * ring dump written by Tracer::writeFile, rejecting stale or
 * truncated files with a precise status, then merges the per-core
 * rings into one (tick, ring, position)-ordered timeline. On top of
 * that it offers per-kind summaries and a causal-ordering validator
 * (MIGRATE resolutions never precede their sends, quarantine probes
 * and rejoins require a prior enter) that both the `altoc-trace` CLI
 * (--check) and the chaos tests lean on.
 *
 * None of this is hot-path code: the decoder runs post-hoc on files.
 */

#ifndef ALTOC_TRACE_READER_HH
#define ALTOC_TRACE_READER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.hh"

namespace altoc::trace {

/** Outcome of readTraceFile (one failure reason, first one wins). */
enum class TraceReadStatus
{
    Ok,
    OpenFailed, //!< file missing / unreadable
    BadMagic,   //!< not a trace file
    BadVersion, //!< stale format (version or record size mismatch)
    BadRecord,  //!< invalid kind / inconsistent ring header
    Truncated,  //!< file ends mid-header or mid-ring
};

/** Stable display name of @p status. */
const char *traceReadStatusName(TraceReadStatus status);

/** One decoded ring: live records oldest-to-newest plus counters. */
struct TraceRingImage
{
    std::uint32_t core = 0;
    std::uint64_t written = 0;
    std::uint64_t dropped = 0;
    std::vector<TraceRecord> records;
};

/** A whole decoded trace file. */
struct TraceFileImage
{
    std::vector<TraceRingImage> rings;

    /** Rings per server of a federated trace (header field); 0 for a
     *  legacy single-server file. See TraceFileHeader. */
    std::uint32_t coresPerServer = 0;

    std::uint64_t totalWritten() const;
    std::uint64_t totalDropped() const;

    /** Server owning flat ring @p ring (0 for single-server files;
     *  the ToR's rings map past the last server). */
    std::uint32_t serverOfRing(std::uint32_t ring) const
    {
        return coresPerServer == 0 ? 0 : ring / coresPerServer;
    }
};

/**
 * Decode @p path into @p out. On any non-Ok status @p out is left
 * empty; Truncated/BadRecord name the first structural violation.
 */
TraceReadStatus readTraceFile(const std::string &path,
                              TraceFileImage &out);

/**
 * Merge all rings into one timeline ordered by (tick, ring core,
 * position within ring). Records of one ring never reorder relative
 * to each other, and ties across rings break deterministically, so
 * the merge of a given file is unique. Equivalent to a stable sort
 * of the core-ordered concatenation by tick (the reference model the
 * property test checks against), but runs as a k-way merge.
 */
std::vector<TraceRecord> mergeTimeline(const TraceFileImage &image);

/** Per-kind aggregate over a merged timeline. */
struct TraceKindSummary
{
    std::uint64_t count = 0;
    Tick first = 0; //!< tick of the earliest record of this kind
    Tick last = 0;  //!< tick of the latest record of this kind
};

/** Summarize @p timeline; index by static_cast<size_t>(kind). */
std::vector<TraceKindSummary>
summarize(const std::vector<TraceRecord> &timeline);

/**
 * Check causal ordering over a merged timeline; appends a
 * human-readable line per violation to @p errors (capped at 32) and
 * returns whether the timeline is clean. Verified invariants:
 *  - ticks are non-decreasing (the merge itself guarantees this; a
 *    violation means the caller passed an unmerged sequence);
 *  - per (src, dst) pair, at every prefix the MIGRATE resolutions
 *    (ack + nack + timeout) never outnumber the sends (send + retry),
 *    and the pair's first event is a send;
 *  - QuarantineProbe and QuarantineRejoin on an (observer, peer)
 *    pair require a prior QuarantineEnter on that pair;
 *  - no TorDispatch targets a server already declared dead by a
 *    ServerDead record (federated traces only).
 * Drop-lossy traces can violate these legitimately (the oldest
 * records were evicted), so callers gate on dropped == 0 first.
 */
bool validateTimeline(const std::vector<TraceRecord> &timeline,
                      std::vector<std::string> &errors);

/** Render one record as a fixed-format text line (CLI / tests). */
std::string formatRecord(const TraceRecord &rec);

} // namespace altoc::trace

#endif // ALTOC_TRACE_READER_HH
