#include "crypto/siphash.hh"

#include "common/bitops.hh"

namespace amnt::crypto
{

namespace
{

struct SipState
{
    std::uint64_t v0, v1, v2, v3;

    explicit SipState(std::uint64_t k0, std::uint64_t k1)
        : v0(0x736f6d6570736575ULL ^ k0),
          v1(0x646f72616e646f6dULL ^ k1),
          v2(0x6c7967656e657261ULL ^ k0),
          v3(0x7465646279746573ULL ^ k1)
    {
    }

    void
    round()
    {
        v0 += v1;
        v1 = rotl64(v1, 13);
        v1 ^= v0;
        v0 = rotl64(v0, 32);
        v2 += v3;
        v3 = rotl64(v3, 16);
        v3 ^= v2;
        v0 += v3;
        v3 = rotl64(v3, 21);
        v3 ^= v0;
        v2 += v1;
        v1 = rotl64(v1, 17);
        v1 ^= v2;
        v2 = rotl64(v2, 32);
    }

    std::uint64_t
    finalize()
    {
        v2 ^= 0xff;
        round();
        round();
        round();
        round();
        return v0 ^ v1 ^ v2 ^ v3;
    }
};

} // namespace

std::uint64_t
SipHash24::mac(const void *data, std::size_t len) const
{
    SipState s(k0_, k1_);
    const auto *p = static_cast<const std::uint8_t *>(data);
    const std::size_t full_words = len / 8;
    for (std::size_t i = 0; i < full_words; ++i) {
        const std::uint64_t m = load64le(p + 8 * i);
        s.v3 ^= m;
        s.round();
        s.round();
        s.v0 ^= m;
    }
    std::uint64_t last = static_cast<std::uint64_t>(len & 0xff) << 56;
    const std::size_t tail = len & 7;
    const std::uint8_t *tp = p + 8 * full_words;
    for (std::size_t i = 0; i < tail; ++i)
        last |= static_cast<std::uint64_t>(tp[i]) << (8 * i);
    s.v3 ^= last;
    s.round();
    s.round();
    s.v0 ^= last;
    return s.finalize();
}

std::uint64_t
SipHash24::macWords(std::uint64_t a, std::uint64_t b) const
{
    SipState s(k0_, k1_);
    for (std::uint64_t m : {a, b}) {
        s.v3 ^= m;
        s.round();
        s.round();
        s.v0 ^= m;
    }
    // Length word for a 16-byte message.
    const std::uint64_t last = 16ULL << 56;
    s.v3 ^= last;
    s.round();
    s.round();
    s.v0 ^= last;
    return s.finalize();
}

} // namespace amnt::crypto
