/**
 * @file
 * Order-sensitive FNV-1a stream digest.
 *
 * The repo's determinism contract reduces a run to a hash of its
 * completion stream: every completion mixes the tuple (tick, event
 * type, core id, request id). Two runs of the same scenario with the
 * same seed must produce identical digests (tests/test_determinism.cc,
 * tests/test_golden_results.cc), and a parallel sweep must reproduce
 * the serial sweep's digests element-wise (tests/test_parallel_run.cc).
 *
 * RunDigest is the one place that scheme is written down:
 * runExperiment and bench::RunFingerprint both fold events through
 * it, so the golden files and the bench output cannot drift apart.
 */

#ifndef ALTOC_COMMON_FINGERPRINT_HH
#define ALTOC_COMMON_FINGERPRINT_HH

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace altoc {

/** Byte-wise FNV-1a over a stream of 64-bit words. */
class Fnv1a
{
  public:
    /** Mix one 64-bit word (order sensitive): its eight bytes, lowest
     *  first, each xored in and multiplied by the prime. */
    void
    mix(std::uint64_t v)
    {
        // A zero byte xors in nothing, so the zero bytes above v's
        // highest non-zero one only multiply by the prime: fold the n
        // bytes up to that one, then the rest in one multiply by
        // P^(8 - n). The digest is the eight-byte loop's, bit for bit;
        // a completion's small fields take 13 dependent multiplies
        // instead of 32.
        const int n = (std::bit_width(v) + 7) / 8;
        for (int i = 0; i < n; ++i) {
            h_ ^= (v >> (8 * i)) & 0xffu;
            h_ *= kPrime;
        }
        h_ *= kPrimePow[static_cast<std::size_t>(8 - n)];
    }

    std::uint64_t digest() const { return h_; }

  private:
    static constexpr std::uint64_t kOffset = 14695981039346656037ull; // lint:allow raw-tick-literal: FNV-1a offset basis, not a duration
    static constexpr std::uint64_t kPrime = 1099511628211ull; // lint:allow raw-tick-literal: FNV-1a prime, not a duration
    /** kPrimePow[k] = kPrime^k mod 2^64, for k = 0..8. */
    static constexpr std::array<std::uint64_t, 9> kPrimePow = [] {
        std::array<std::uint64_t, 9> p{};
        p[0] = 1;
        for (std::size_t k = 1; k < p.size(); ++k)
            p[k] = p[k - 1] * kPrime;
        return p;
    }();

    std::uint64_t h_ = kOffset;
};

/**
 * A run's identity digest (RunResult::fingerprint): the completion
 * and fault-event stream folded through Fnv1a, plus the number of
 * events folded.
 */
class RunDigest
{
  public:
    /** One completion: (tick, request kind, core id, request id). */
    void
    completion(std::uint64_t now, std::uint64_t kind, std::uint64_t core,
               std::uint64_t id)
    {
        h_.mix(now);
        h_.mix(kind);
        h_.mix(core);
        h_.mix(id);
        ++events_;
    }

    /** One injected fault: (tick, tagged kind, subject a, subject b).
     *  The tag keeps fault kinds apart from request kinds. */
    void
    fault(std::uint64_t now, std::uint64_t kind, std::uint64_t a,
          std::uint64_t b)
    {
        h_.mix(now);
        h_.mix(kFaultTag + kind);
        h_.mix(a);
        h_.mix(b);
        ++events_;
    }

    /** Tag the event just folded with the server that observed it
     *  (federated runs only: core ids repeat across servers). */
    void server(std::uint64_t s) { h_.mix(s); }

    std::uint64_t digest() const { return h_.digest(); }

    /** Events folded so far (RunResult::fingerprintEvents). */
    std::uint64_t events() const { return events_; }

  private:
    static constexpr std::uint64_t kFaultTag = 0xFA000000ull;

    Fnv1a h_;
    std::uint64_t events_ = 0;
};

} // namespace altoc

#endif // ALTOC_COMMON_FINGERPRINT_HH
