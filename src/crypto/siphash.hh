/**
 * @file
 * SipHash-2-4 (Aumasson & Bernstein), implemented from scratch.
 *
 * A fast keyed 64-bit PRF. The timing plane of the secure-memory
 * engine uses it for BMT node hashes, data HMACs, and one-time-pad
 * generation so that multi-million-access sweeps remain cheap while
 * still exercising real keyed-hash semantics (tamper detection works
 * identically). Validated against the reference test vectors.
 */

#ifndef AMNT_CRYPTO_SIPHASH_HH
#define AMNT_CRYPTO_SIPHASH_HH

#include <cstddef>
#include <cstdint>

namespace amnt::crypto
{

/** SipHash-2-4 keyed with a 128-bit key held as two 64-bit halves. */
class SipHash24
{
  public:
    SipHash24(std::uint64_t k0, std::uint64_t k1) : k0_(k0), k1_(k1) {}

    /** 64-bit MAC over an arbitrary byte string. */
    std::uint64_t mac(const void *data, std::size_t len) const;

    /** 64-bit MAC over a pair of words (fast path, no buffer). */
    std::uint64_t macWords(std::uint64_t a, std::uint64_t b) const;

  private:
    std::uint64_t k0_;
    std::uint64_t k1_;
};

} // namespace amnt::crypto

#endif // AMNT_CRYPTO_SIPHASH_HH
