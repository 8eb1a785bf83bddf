#include "crypto/engines.hh"

#include <cstring>

#include "common/bitops.hh"

namespace amnt::crypto
{

void
EncryptionEngine::xorPad(Addr block_addr, std::uint64_t major,
                         std::uint8_t minor,
                         const std::uint8_t in[kBlockSize],
                         std::uint8_t out[kBlockSize]) const
{
    std::uint8_t p[kBlockSize];
    pad(block_addr, major, minor, p);
    for (std::size_t i = 0; i < kBlockSize; ++i)
        out[i] = in[i] ^ p[i];
}

std::uint64_t
HmacShaEngine::mac64(const void *data, std::size_t len,
                     std::uint64_t tweak) const
{
    // Bind the tweak by MACing tweak || data.
    std::uint8_t buf[8 + kBlockSize * 2];
    if (len > sizeof(buf) - 8) {
        // Rare large payloads: two-stage MAC.
        std::uint8_t t[8];
        store64le(t, tweak);
        Sha256 h;
        h.update(t, 8);
        h.update(data, len);
        const Sha256Digest d = h.final();
        return hmac_.mac64(d.data(), d.size());
    }
    store64le(buf, tweak);
    std::memcpy(buf + 8, data, len);
    return hmac_.mac64(buf, 8 + len);
}

void
FastPadEngine::pad(Addr block_addr, std::uint64_t major, std::uint8_t minor,
                   std::uint8_t out[kBlockSize]) const
{
    const std::uint64_t seed =
        sip_.macWords(block_addr, (major << 8) | minor);
    for (unsigned i = 0; i < kBlockSize / 8; ++i)
        store64le(out + 8 * i, sip_.macWords(seed, i));
}

void
AesCtrEngine::pad(Addr block_addr, std::uint64_t major, std::uint8_t minor,
                  std::uint8_t out[kBlockSize]) const
{
    std::uint8_t ctrs[kBlockSize];
    for (unsigned i = 0; i < kBlockSize / 16; ++i) {
        std::uint8_t *ctr = ctrs + 16 * i;
        store64le(ctr, block_addr);
        store64le(ctr + 8, (major << 16) | (std::uint64_t(minor) << 8) | i);
    }
    aes_.encryptBlocks(ctrs, out, kBlockSize / 16);
}

CryptoSuite
CryptoSuite::make(CryptoPlane plane, std::uint64_t seed)
{
    CryptoSuite suite;
    // Derive independent subkeys from the seed with SipHash under a
    // fixed derivation key.
    const SipHash24 kdf(0x414d4e542d4b4446ULL, seed);
    const std::uint64_t k0 = kdf.macWords(seed, 1);
    const std::uint64_t k1 = kdf.macWords(seed, 2);
    const std::uint64_t k2 = kdf.macWords(seed, 3);
    const std::uint64_t k3 = kdf.macWords(seed, 4);

    if (plane == CryptoPlane::Fast) {
        suite.hash = std::make_unique<SipHashEngine>(k0, k1);
        suite.enc = std::make_unique<FastPadEngine>(k2, k3);
    } else {
        std::uint8_t hkey[16];
        store64le(hkey, k0);
        store64le(hkey + 8, k1);
        suite.hash = std::make_unique<HmacShaEngine>(hkey, sizeof(hkey));
        AesBlock akey;
        store64le(akey.data(), k2);
        store64le(akey.data() + 8, k3);
        suite.enc = std::make_unique<AesCtrEngine>(akey);
    }
    return suite;
}

} // namespace amnt::crypto
