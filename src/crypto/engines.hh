/**
 * @file
 * Pluggable hash/encryption engines for the secure-memory hardware.
 *
 * The protocol logic in src/mee and src/core is agnostic to the
 * concrete primitives. Two planes are provided:
 *
 *  - Functional plane: HMAC-SHA-256 + AES-128-CTR; cryptographically
 *    real, used by unit/property tests and the examples.
 *  - Fast plane: SipHash-2-4 for both MACs and pad expansion; a real
 *    keyed PRF that keeps multi-million-access timing sweeps cheap.
 *
 * Both planes provide identical tamper-detection semantics: any change
 * to protected bytes changes the MAC with overwhelming probability.
 */

#ifndef AMNT_CRYPTO_ENGINES_HH
#define AMNT_CRYPTO_ENGINES_HH

#include <cstdint>
#include <memory>

#include "common/types.hh"
#include "crypto/aes128.hh"
#include "crypto/hmac_sha256.hh"
#include "crypto/siphash.hh"

namespace amnt::crypto
{

/** One mac64 computation in a batch (see HashEngine::mac64xN). */
struct MacRequest
{
    const void *data;
    std::size_t len;
    std::uint64_t tweak;
};

/** One pad generation in a batch (see EncryptionEngine::padxN). */
struct PadRequest
{
    Addr blockAddr;
    std::uint64_t major;
    std::uint8_t minor;
};

/**
 * Keyed MAC producing 64-bit tags, with a caller-supplied tweak that
 * binds the MAC to an address/domain (preventing splicing).
 */
class HashEngine
{
  public:
    virtual ~HashEngine() = default;

    /** 64-bit MAC of @p len bytes at @p data, bound to @p tweak. */
    virtual std::uint64_t mac64(const void *data, std::size_t len,
                                std::uint64_t tweak) const = 0;

    /** Batch MAC: out[i] = mac64(reqs[i]). */
    void
    mac64xN(const MacRequest *reqs, std::size_t n, std::uint64_t *out) const
    {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = mac64(reqs[i].data, reqs[i].len, reqs[i].tweak);
    }
};

/** Counter-mode one-time-pad generator. */
class EncryptionEngine
{
  public:
    virtual ~EncryptionEngine() = default;

    /**
     * Fill @p out with a 64-byte pad unique to
     * (block address, major counter, minor counter).
     */
    virtual void pad(Addr block_addr, std::uint64_t major,
                     std::uint8_t minor,
                     std::uint8_t out[kBlockSize]) const = 0;

    /** Batch pad generation: pad i is written to out + i * kBlockSize. */
    void
    padxN(const PadRequest *reqs, std::size_t n, std::uint8_t *out) const
    {
        for (std::size_t i = 0; i < n; ++i)
            pad(reqs[i].blockAddr, reqs[i].major, reqs[i].minor,
                out + i * kBlockSize);
    }

    /** XOR @p in with the pad into @p out (encrypt == decrypt). */
    void xorPad(Addr block_addr, std::uint64_t major, std::uint8_t minor,
                const std::uint8_t in[kBlockSize],
                std::uint8_t out[kBlockSize]) const;
};

/** Fast plane MAC: SipHash-2-4. */
class SipHashEngine : public HashEngine
{
  public:
    SipHashEngine(std::uint64_t k0, std::uint64_t k1) : sip_(k0, k1) {}

    std::uint64_t
    mac64(const void *data, std::size_t len,
          std::uint64_t tweak) const override
    {
        return sip_.mac(data, len) ^ sip_.macWords(tweak, 0x746a7773ULL);
    }

  private:
    SipHash24 sip_;
};

/** Functional plane MAC: HMAC-SHA-256 truncated to 64 bits. */
class HmacShaEngine : public HashEngine
{
  public:
    HmacShaEngine(const void *key, std::size_t key_len)
        : hmac_(key, key_len)
    {
    }

    std::uint64_t mac64(const void *data, std::size_t len,
                        std::uint64_t tweak) const override;

  private:
    HmacSha256 hmac_;
};

/** Fast plane pad: SipHash-expanded keystream. */
class FastPadEngine : public EncryptionEngine
{
  public:
    FastPadEngine(std::uint64_t k0, std::uint64_t k1) : sip_(k0, k1) {}

    void pad(Addr block_addr, std::uint64_t major, std::uint8_t minor,
             std::uint8_t out[kBlockSize]) const override;

  private:
    SipHash24 sip_;
};

/** Functional plane pad: AES-128 in counter mode (4 blocks per pad). */
class AesCtrEngine : public EncryptionEngine
{
  public:
    explicit AesCtrEngine(const AesBlock &key) : aes_(key) {}

    void pad(Addr block_addr, std::uint64_t major, std::uint8_t minor,
             std::uint8_t out[kBlockSize]) const override;

  private:
    Aes128 aes_;
};

/** Which primitive family a secure-memory system instantiates. */
enum class CryptoPlane
{
    Functional, ///< AES-128-CTR + HMAC-SHA-256 (tests, examples)
    Fast,       ///< SipHash-2-4 everywhere (timing sweeps)
};

/** Bundle of engines owned by a secure-memory system. */
struct CryptoSuite
{
    std::unique_ptr<HashEngine> hash;
    std::unique_ptr<EncryptionEngine> enc;

    /** Build a suite for @p plane, deriving keys from @p seed. */
    static CryptoSuite make(CryptoPlane plane, std::uint64_t seed);
};

} // namespace amnt::crypto

#endif // AMNT_CRYPTO_ENGINES_HH
