/**
 * @file
 * AES-128 block cipher (FIPS 197), implemented from scratch.
 *
 * Counter-mode encryption in the functional secure-memory plane
 * generates one-time pads with this cipher. Validated against the
 * FIPS-197 Appendix and SP 800-38A vectors.
 */

#ifndef AMNT_CRYPTO_AES128_HH
#define AMNT_CRYPTO_AES128_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace amnt::crypto
{

/** A 16-byte AES block or key. */
using AesBlock = std::array<std::uint8_t, 16>;

/**
 * Portable AES-128 ECB encryption of @p nblocks 16-byte blocks with
 * the expanded schedule @p rk.
 */
void aes128EncryptScalar(const std::uint8_t *rk, const std::uint8_t *in,
                         std::uint8_t *out, std::size_t nblocks);

/**
 * AES-128 with a fixed key schedule computed at construction.
 * Only the forward (encrypt) direction is needed: counter mode uses
 * the cipher purely as a pseudo-random function.
 */
class Aes128
{
  public:
    /** Expand the 16-byte key into the round-key schedule. */
    explicit Aes128(const AesBlock &key);

    /** Encrypt one 16-byte block in place semantics: out = E_k(in). */
    AesBlock encrypt(const AesBlock &in) const;

    /** Encrypt @p nblocks consecutive 16-byte blocks. */
    void
    encryptBlocks(const std::uint8_t *in, std::uint8_t *out,
                  std::size_t nblocks) const
    {
        aes128EncryptScalar(roundKeys_, in, out, nblocks);
    }

  private:
    // 11 round keys of 16 bytes each.
    std::uint8_t roundKeys_[176];
};

} // namespace amnt::crypto

#endif // AMNT_CRYPTO_AES128_HH
