/**
 * @file
 * SHA-256 (FIPS 180-4), implemented from scratch.
 *
 * Used by the functional secure-memory plane for HMAC computation and
 * Bonsai Merkle Tree node hashing. Validated against the NIST example
 * vectors in tests/crypto/test_sha256.cc.
 */

#ifndef AMNT_CRYPTO_SHA256_HH
#define AMNT_CRYPTO_SHA256_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace amnt::crypto
{

/** A 32-byte SHA-256 digest. */
using Sha256Digest = std::array<std::uint8_t, 32>;

/**
 * Portable SHA-256 compression over @p nblocks consecutive 64-byte
 * blocks, updating the 8-word @p state in place.
 */
void sha256CompressScalar(std::uint32_t state[8],
                          const std::uint8_t *blocks,
                          std::size_t nblocks);

/**
 * Incremental SHA-256 context. Typical use:
 * @code
 *   Sha256 h;
 *   h.update(data, len);
 *   Sha256Digest d = h.final();
 * @endcode
 */
class Sha256
{
  public:
    Sha256() { reset(); }

    /** Reset to the initial state. */
    void reset();

    /** Absorb @p len bytes. */
    void update(const void *data, std::size_t len);

    /** Finish and produce the digest; context must then be reset(). */
    Sha256Digest final();

    /** One-shot convenience. */
    static Sha256Digest digest(const void *data, std::size_t len);

  private:
    std::uint32_t state_[8];
    std::uint64_t totalBytes_;
    std::uint8_t buffer_[64];
    std::size_t bufferLen_;
};

} // namespace amnt::crypto

#endif // AMNT_CRYPTO_SHA256_HH
