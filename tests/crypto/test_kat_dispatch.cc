/**
 * Known-answer tests for every runtime-dispatchable crypto kernel.
 *
 * The suites in test_sha256/test_aes128/test_hmac exercise whichever
 * kernel set AMNT_CRYPTO_ISA selected at startup. This file walks all
 * paths available on the host (scalar always; AES-NI / SHA-NI when
 * detected) and asserts the same NIST/FIPS/RFC vectors on each, plus
 * the batch-API contract: mac64xN/padxN bit-identical to N scalar
 * calls on every path, with the wide kernels both on and off, and
 * every 4-lane SipHash kernel the CPU supports against scalar.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/bitops.hh"
#include "crypto/aes128.hh"
#include "crypto/dispatch.hh"
#include "crypto/engines.hh"
#include "crypto/hmac_sha256.hh"
#include "crypto/isa_kernels.hh"
#include "crypto/sha256.hh"
#include "crypto/siphash.hh"

namespace amnt::crypto
{
namespace
{

/** Restore the startup kernel selection when a test ends. */
class IsaGuard
{
  public:
    IsaGuard() : saved_(dispatch::active().isa) {}
    ~IsaGuard() { dispatch::select(saved_); }

  private:
    dispatch::Isa saved_;
};

/** Restore the batch-kernel knob when a test ends. */
class BatchGuard
{
  public:
    BatchGuard() : saved_(dispatch::batchEnabled()) {}
    ~BatchGuard() { dispatch::setBatchEnabled(saved_); }

  private:
    bool saved_;
};

std::vector<dispatch::Isa>
availableIsas()
{
    std::vector<dispatch::Isa> out;
    for (auto isa :
         {dispatch::Isa::Scalar, dispatch::Isa::AesNi,
          dispatch::Isa::ShaNi, dispatch::Isa::Native}) {
        if (dispatch::available(isa))
            out.push_back(isa);
    }
    return out;
}

std::string
hex(const std::uint8_t *p, std::size_t n)
{
    std::string out;
    for (std::size_t i = 0; i < n; ++i) {
        char buf[3];
        std::snprintf(buf, sizeof(buf), "%02x", p[i]);
        out += buf;
    }
    return out;
}

void
fromHex(const char *s, std::uint8_t *out)
{
    for (std::size_t i = 0; s[2 * i] != '\0'; ++i) {
        unsigned v = 0;
        std::sscanf(s + 2 * i, "%2x", &v);
        out[i] = static_cast<std::uint8_t>(v);
    }
}

TEST(KatDispatch, ScalarAlwaysAvailable)
{
    EXPECT_TRUE(dispatch::available(dispatch::Isa::Scalar));
    EXPECT_TRUE(dispatch::available(dispatch::Isa::Native));
    EXPECT_FALSE(availableIsas().empty());
}

TEST(KatDispatch, SelectRefusesUnavailable)
{
    IsaGuard guard;
    for (auto isa : {dispatch::Isa::AesNi, dispatch::Isa::ShaNi}) {
        if (!dispatch::available(isa)) {
            EXPECT_FALSE(dispatch::select(isa));
        }
    }
}

TEST(KatDispatch, Sha256NistVectorsEveryPath)
{
    IsaGuard guard;
    for (auto isa : availableIsas()) {
        ASSERT_TRUE(dispatch::select(isa));
        SCOPED_TRACE(dispatch::isaName(isa));

        const Sha256Digest empty = Sha256::digest("", 0);
        EXPECT_EQ(hex(empty.data(), empty.size()),
                  "e3b0c44298fc1c149afbf4c8996fb924"
                  "27ae41e4649b934ca495991b7852b855");

        const Sha256Digest abc = Sha256::digest("abc", 3);
        EXPECT_EQ(hex(abc.data(), abc.size()),
                  "ba7816bf8f01cfea414140de5dae2223"
                  "b00361a396177a9cb410ff61f20015ad");

        const char *two =
            "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
        const Sha256Digest d2 = Sha256::digest(two, std::strlen(two));
        EXPECT_EQ(hex(d2.data(), d2.size()),
                  "248d6a61d20638b8e5c026930c3e6039"
                  "a33ce45964ff2167f6ecedd419db06c1");

        // Million a's: exercises the multi-block compress loop.
        Sha256 h;
        const std::string chunk(1000, 'a');
        for (int i = 0; i < 1000; ++i)
            h.update(chunk.data(), chunk.size());
        const Sha256Digest dm = h.final();
        EXPECT_EQ(hex(dm.data(), dm.size()),
                  "cdc76e5c9914fb9281a1c7e284d73e67"
                  "f1809a48a497200e046d39ccc7112cd0");
    }
}

TEST(KatDispatch, Sha256PathsAgreeOnArbitraryLengths)
{
    IsaGuard guard;
    std::vector<std::uint8_t> msg(1031);
    for (std::size_t i = 0; i < msg.size(); ++i)
        msg[i] = static_cast<std::uint8_t>(i * 37 + 11);
    for (std::size_t len : {0u, 1u, 55u, 56u, 63u, 64u, 65u, 127u,
                            128u, 129u, 1031u}) {
        ASSERT_TRUE(dispatch::select(dispatch::Isa::Scalar));
        const Sha256Digest ref = Sha256::digest(msg.data(), len);
        for (auto isa : availableIsas()) {
            ASSERT_TRUE(dispatch::select(isa));
            EXPECT_EQ(Sha256::digest(msg.data(), len), ref)
                << dispatch::isaName(isa) << " len " << len;
        }
    }
}

TEST(KatDispatch, AesFips197EveryPath)
{
    IsaGuard guard;
    AesBlock key, pt, want;
    fromHex("000102030405060708090a0b0c0d0e0f", key.data());
    fromHex("00112233445566778899aabbccddeeff", pt.data());
    fromHex("69c4e0d86a7b0430d8cdb78070b4c55a", want.data());
    for (auto isa : availableIsas()) {
        ASSERT_TRUE(dispatch::select(isa));
        const Aes128 aes(key);
        EXPECT_EQ(aes.encrypt(pt), want) << dispatch::isaName(isa);
    }
}

TEST(KatDispatch, AesSp800_38aBatchEveryPath)
{
    IsaGuard guard;
    AesBlock key;
    fromHex("2b7e151628aed2a6abf7158809cf4f3c", key.data());
    static const char *kPt[4] = {
        "6bc1bee22e409f96e93d7e117393172a",
        "ae2d8a571e03ac9c9eb76fac45af8e51",
        "30c81c46a35ce411e5fbc1191a0a52ef",
        "f69f2445df4f9b17ad2b417be66c3710",
    };
    static const char *kCt[4] = {
        "3ad77bb40d7a3660a89ecaf32466ef97",
        "f5d3d58503b9699de785895a96fdbaaf",
        "43b1cd7f598ece23881b00e3ed030688",
        "7b0c785e27e8ad3f8223207104725dd4",
    };
    std::uint8_t in[4 * 16], want[4 * 16], out[4 * 16];
    for (int i = 0; i < 4; ++i) {
        fromHex(kPt[i], in + 16 * i);
        fromHex(kCt[i], want + 16 * i);
    }
    for (auto isa : availableIsas()) {
        ASSERT_TRUE(dispatch::select(isa));
        const Aes128 aes(key);
        // One multi-block call: exercises the 4-wide pipelined path.
        aes.encryptBlocks(in, out, 4);
        EXPECT_EQ(hex(out, sizeof(out)), hex(want, sizeof(want)))
            << dispatch::isaName(isa);
    }
}

TEST(KatDispatch, AesMultiBlockTailEveryPath)
{
    IsaGuard guard;
    AesBlock key;
    fromHex("2b7e151628aed2a6abf7158809cf4f3c", key.data());
    // 7 blocks: one 4-wide group plus a 3-block tail.
    std::uint8_t in[7 * 16];
    for (std::size_t i = 0; i < sizeof(in); ++i)
        in[i] = static_cast<std::uint8_t>(i * 13 + 5);
    for (auto isa : availableIsas()) {
        ASSERT_TRUE(dispatch::select(isa));
        const Aes128 aes(key);
        std::uint8_t batch[7 * 16];
        aes.encryptBlocks(in, batch, 7);
        for (int b = 0; b < 7; ++b) {
            AesBlock one;
            std::memcpy(one.data(), in + 16 * b, 16);
            const AesBlock enc = aes.encrypt(one);
            EXPECT_EQ(hex(batch + 16 * b, 16),
                      hex(enc.data(), enc.size()))
                << dispatch::isaName(isa) << " block " << b;
        }
    }
}

TEST(KatDispatch, HmacRfc4231EveryPath)
{
    IsaGuard guard;
    std::uint8_t key[20];
    std::memset(key, 0x0b, sizeof(key));
    for (auto isa : availableIsas()) {
        ASSERT_TRUE(dispatch::select(isa));
        const HmacSha256 hmac(key, sizeof(key));
        const Sha256Digest d = hmac.mac("Hi There", 8);
        EXPECT_EQ(hex(d.data(), d.size()),
                  "b0344c61d8db38535ca8afceaf0bf12b"
                  "881dc200c9833da726e9376c2e32cff7")
            << dispatch::isaName(isa);
    }
}

TEST(KatDispatch, SipHashBatchMatchesScalar)
{
    BatchGuard guard;
    const SipHash24 sip(0x0706050403020100ULL, 0x0f0e0d0c0b0a0908ULL);
    std::vector<std::uint8_t> pool(256);
    for (std::size_t i = 0; i < pool.size(); ++i)
        pool[i] = static_cast<std::uint8_t>(i);

    for (std::size_t len : {0u, 3u, 8u, 16u, 63u, 64u}) {
        for (std::size_t n : {1u, 3u, 4u, 5u, 9u, 16u}) {
            std::vector<const std::uint8_t *> ptrs(n);
            for (std::size_t i = 0; i < n; ++i)
                ptrs[i] = pool.data() + i;
            std::vector<std::uint64_t> batch(n);
            sip.macManySameLen(ptrs.data(), len, batch.data(), n);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(batch[i], sip.mac(ptrs[i], len))
                    << "len " << len << " lane " << i << "/" << n;
        }
    }

    std::vector<std::uint64_t> a(13), b(13), batch(13);
    for (std::size_t i = 0; i < a.size(); ++i) {
        a[i] = 0x1111111111111111ULL * i;
        b[i] = ~a[i];
    }
    sip.macWordsMany(a.data(), b.data(), batch.data(), a.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(batch[i], sip.macWords(a[i], b[i])) << "lane " << i;
}

/**
 * Dispatch only ever runs the widest vector SipHash kernel, so call
 * every compiled-in 4-lane kernel the CPU supports directly.
 */
TEST(KatDispatch, SipHashFourLaneKernelsMatchScalar)
{
    const std::uint64_t k0 = 0x0706050403020100ULL;
    const std::uint64_t k1 = 0x0f0e0d0c0b0a0908ULL;
    const SipHash24 sip(k0, k1);
    const dispatch::CpuCaps &caps = dispatch::cpuCaps();
    std::vector<std::pair<const char *, dispatch::Sip4Fn>> kernels;
    if (caps.avx2)
        kernels.emplace_back("avx2", dispatch::sipAvx2Kernel());
    if (caps.avx512vl)
        kernels.emplace_back("avx512vl", dispatch::sipAvx512Kernel());
    if (kernels.empty())
        GTEST_SKIP() << "no vector SipHash kernel on this host";

    std::uint8_t msgs[4][64];
    for (std::size_t l = 0; l < 4; ++l)
        for (std::size_t i = 0; i < 64; ++i)
            msgs[l][i] = static_cast<std::uint8_t>(l * 71 + i * 13 + 1);

    for (std::size_t len = 0; len <= 64; ++len) {
        // Interleave word w of lane l at m[w * 4 + l], ending with
        // the padded tail-and-length word, as SipHash24 stages it.
        const std::size_t nwords = len / 8 + 1;
        std::uint64_t m[9 * 4];
        for (std::size_t l = 0; l < 4; ++l) {
            for (std::size_t w = 0; w < len / 8; ++w)
                m[w * 4 + l] = load64le(msgs[l] + 8 * w);
            std::uint64_t last = static_cast<std::uint64_t>(len) << 56;
            const std::uint8_t *tail = msgs[l] + len / 8 * 8;
            for (std::size_t t = 0; t < len % 8; ++t)
                last |= static_cast<std::uint64_t>(tail[t]) << (8 * t);
            m[(nwords - 1) * 4 + l] = last;
        }
        for (const auto &[name, kernel] : kernels) {
            std::uint64_t out[4];
            kernel(k0, k1, m, nwords, out);
            for (std::size_t l = 0; l < 4; ++l)
                EXPECT_EQ(out[l], sip.mac(msgs[l], len))
                    << name << " len " << len << " lane " << l;
        }
    }
}

/** Batch engine calls must equal N scalar calls on every path. */
TEST(KatDispatch, EngineBatchesMatchScalarEveryPath)
{
    IsaGuard isa_guard;
    BatchGuard batch_guard;

    std::uint8_t payload[192 * kBlockSize];
    for (std::size_t i = 0; i < sizeof(payload); ++i)
        payload[i] = static_cast<std::uint8_t>(i * 31 + 7);

    for (auto isa : availableIsas()) {
        ASSERT_TRUE(dispatch::select(isa));
        SCOPED_TRACE(dispatch::isaName(isa));

        const SipHashEngine sip_eng(0x1234, 0x5678);
        std::uint8_t hkey[16] = {1, 2, 3, 4, 5, 6, 7, 8,
                                 9, 10, 11, 12, 13, 14, 15, 16};
        const HmacShaEngine hmac_eng(hkey, sizeof(hkey));
        const FastPadEngine fast_pad(0x9abc, 0xdef0);
        AesBlock akey;
        fromHex("000102030405060708090a0b0c0d0e0f", akey.data());
        const AesCtrEngine aes_pad(akey);

        // Chunk-boundary coverage: within one chunk, exactly one
        // chunk, and spanning three chunks.
        for (std::size_t n : {1u, 5u, 64u, 130u}) {
            std::vector<MacRequest> mreqs(n);
            std::vector<PadRequest> preqs(n);
            for (std::size_t i = 0; i < n; ++i) {
                // Mixed lengths to exercise the equal-length grouping.
                const std::size_t len = (i % 7 == 3) ? 24 : kBlockSize;
                mreqs[i] = {payload + i * kBlockSize, len,
                            0xabcd0000 + i};
                preqs[i] = {Addr(i * kBlockSize), 77 + i,
                            std::uint8_t(i % 120)};
            }
            for (bool wide : {true, false}) {
                dispatch::setBatchEnabled(wide);
                for (const HashEngine *h :
                     {static_cast<const HashEngine *>(&sip_eng),
                      static_cast<const HashEngine *>(&hmac_eng)}) {
                    std::vector<std::uint64_t> batch(n);
                    h->mac64xN(mreqs.data(), n, batch.data());
                    for (std::size_t i = 0; i < n; ++i)
                        EXPECT_EQ(batch[i],
                                  h->mac64(mreqs[i].data, mreqs[i].len,
                                           mreqs[i].tweak))
                            << "wide " << wide << " n " << n << " req "
                            << i;
                }
                for (const EncryptionEngine *e :
                     {static_cast<const EncryptionEngine *>(&fast_pad),
                      static_cast<const EncryptionEngine *>(
                          &aes_pad)}) {
                    std::vector<std::uint8_t> batch(n * kBlockSize);
                    e->padxN(preqs.data(), n, batch.data());
                    for (std::size_t i = 0; i < n; ++i) {
                        std::uint8_t one[kBlockSize];
                        e->pad(preqs[i].blockAddr, preqs[i].major,
                               preqs[i].minor, one);
                        EXPECT_EQ(
                            std::memcmp(batch.data() + i * kBlockSize,
                                        one, kBlockSize),
                            0)
                            << "wide " << wide << " n " << n << " req "
                            << i;
                    }
                }
            }
        }
    }
}

} // namespace
} // namespace amnt::crypto
