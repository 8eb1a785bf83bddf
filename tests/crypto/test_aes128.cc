#include <gtest/gtest.h>

#include <cstring>

#include "crypto/aes128.hh"

namespace amnt::crypto
{
namespace
{

AesBlock
fromHex(const char *hex)
{
    AesBlock b{};
    for (int i = 0; i < 16; ++i) {
        unsigned v = 0;
        std::sscanf(hex + 2 * i, "%02x", &v);
        b[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(v);
    }
    return b;
}

// FIPS-197 Appendix C.1.
TEST(Aes128, Fips197Vector)
{
    Aes128 aes(fromHex("000102030405060708090a0b0c0d0e0f"));
    const AesBlock out =
        aes.encrypt(fromHex("00112233445566778899aabbccddeeff"));
    EXPECT_EQ(out, fromHex("69c4e0d86a7b0430d8cdb78070b4c55a"));
}

// NIST SP 800-38A F.1.1 (ECB-AES128, block 1).
TEST(Aes128, Sp800_38aBlock1)
{
    Aes128 aes(fromHex("2b7e151628aed2a6abf7158809cf4f3c"));
    const AesBlock out =
        aes.encrypt(fromHex("6bc1bee22e409f96e93d7e117393172a"));
    EXPECT_EQ(out, fromHex("3ad77bb40d7a3660a89ecaf32466ef97"));
}

// NIST SP 800-38A F.1.1 (ECB-AES128, block 2).
TEST(Aes128, Sp800_38aBlock2)
{
    Aes128 aes(fromHex("2b7e151628aed2a6abf7158809cf4f3c"));
    const AesBlock out =
        aes.encrypt(fromHex("ae2d8a571e03ac9c9eb76fac45af8e51"));
    EXPECT_EQ(out, fromHex("f5d3d58503b9699de785895a96fdbaaf"));
}

// NIST SP 800-38A F.1.1 (ECB-AES128, blocks 1-4) through one
// multi-block call.
TEST(Aes128, Sp800_38aBlocks1To4InOneCall)
{
    Aes128 aes(fromHex("2b7e151628aed2a6abf7158809cf4f3c"));
    const char *pt[4] = {
        "6bc1bee22e409f96e93d7e117393172a",
        "ae2d8a571e03ac9c9eb76fac45af8e51",
        "30c81c46a35ce411e5fbc1191a0a52ef",
        "f69f2445df4f9b17ad2b417be66c3710",
    };
    const char *ct[4] = {
        "3ad77bb40d7a3660a89ecaf32466ef97",
        "f5d3d58503b9699de785895a96fdbaaf",
        "43b1cd7f598ece23881b00e3ed030688",
        "7b0c785e27e8ad3f8223207104725dd4",
    };
    std::uint8_t in[4 * 16], out[4 * 16];
    for (int i = 0; i < 4; ++i)
        std::memcpy(in + 16 * i, fromHex(pt[i]).data(), 16);
    aes.encryptBlocks(in, out, 4);
    for (int i = 0; i < 4; ++i) {
        AesBlock got;
        std::memcpy(got.data(), out + 16 * i, 16);
        EXPECT_EQ(got, fromHex(ct[i])) << "block " << i + 1;
    }
}

TEST(Aes128, EncryptBlocksMatchesSingleBlockCalls)
{
    Aes128 aes(fromHex("2b7e151628aed2a6abf7158809cf4f3c"));
    std::uint8_t in[7 * 16], out[7 * 16];
    for (std::size_t i = 0; i < sizeof(in); ++i)
        in[i] = static_cast<std::uint8_t>(i * 13 + 5);
    aes.encryptBlocks(in, out, 7);
    for (int b = 0; b < 7; ++b) {
        AesBlock one, got;
        std::memcpy(one.data(), in + 16 * b, 16);
        std::memcpy(got.data(), out + 16 * b, 16);
        EXPECT_EQ(got, aes.encrypt(one)) << "block " << b;
    }
}

TEST(Aes128, Deterministic)
{
    Aes128 aes(fromHex("00000000000000000000000000000000"));
    const AesBlock in{};
    EXPECT_EQ(aes.encrypt(in), aes.encrypt(in));
}

TEST(Aes128, KeySensitivity)
{
    Aes128 a(fromHex("00000000000000000000000000000000"));
    Aes128 b(fromHex("00000000000000000000000000000001"));
    const AesBlock in{};
    EXPECT_NE(a.encrypt(in), b.encrypt(in));
}

} // namespace
} // namespace amnt::crypto
