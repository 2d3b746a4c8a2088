/**
 * @file
 * MICA-style bucketized lossy hash index.
 *
 * The index maps key hashes to circular-log offsets. Buckets hold a
 * fixed number of (tag, offset) slots; on overflow the bucket evicts
 * the entry whose log offset is oldest (it is the most likely to have
 * been overwritten anyway). Tag comparison filters most misses; a
 * full key comparison against the log entry resolves collisions.
 * The ALTOCUMULUS paper uses MICA's default 2 M buckets (Sec. IX-B);
 * the count is configurable so tests stay small.
 */

#ifndef ALTOC_MICA_HASH_TABLE_HH
#define ALTOC_MICA_HASH_TABLE_HH

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace altoc::mica {

/** 64-bit string hash (FNV-1a). */
std::uint64_t hashKey(std::string_view key);

/**
 * Lossy bucketized index from key hash to log offset.
 */
class HashTable
{
  public:
    static constexpr unsigned kSlotsPerBucket = 7;

    /** @param buckets bucket count (rounded up to a power of two). */
    explicit HashTable(std::size_t buckets);

    /**
     * Find the log offset for @p hash; the caller validates the full
     * key against the log entry. Returns slot-probe count via
     * @p probes for the service-time model.
     */
    std::optional<std::uint64_t> find(std::uint64_t hash,
                                      unsigned *probes = nullptr) const;

    /**
     * Insert or update the mapping hash -> offset. Returns true if
     * an existing entry was updated, false if inserted (possibly
     * evicting the oldest slot).
     */
    bool insert(std::uint64_t hash, std::uint64_t offset);

    /** Remove the mapping (used by tests); true if present. */
    bool erase(std::uint64_t hash);

    std::uint64_t evictions() const { return evictions_; }

  private:
    struct Slot
    {
        std::uint16_t tag = 0;
        bool used = false;
        std::uint64_t offset = 0;
    };

    struct Bucket
    {
        std::array<Slot, kSlotsPerBucket> slots;
    };

    std::size_t bucketIndex(std::uint64_t hash) const
    {
        return static_cast<std::size_t>(hash) & mask_;
    }

    static std::uint16_t tagOf(std::uint64_t hash)
    {
        // High bits; the low bits already select the bucket.
        std::uint16_t t = static_cast<std::uint16_t>(hash >> 48);
        return t == 0 ? 1 : t;
    }

    std::vector<Bucket> buckets_;
    std::size_t mask_;
    std::uint64_t evictions_ = 0;
};

} // namespace altoc::mica

#endif // ALTOC_MICA_HASH_TABLE_HH
