#include "crypto/sha256.hh"

#include <cstring>

#include "common/bitops.hh"

namespace amnt::crypto
{

namespace
{

constexpr std::uint32_t kRoundConst[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b,
    0x59f111f1, 0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01,
    0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7,
    0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
    0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152,
    0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819,
    0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116, 0x1e376c08,
    0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f,
    0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

} // namespace

void
Sha256::reset()
{
    state_[0] = 0x6a09e667;
    state_[1] = 0xbb67ae85;
    state_[2] = 0x3c6ef372;
    state_[3] = 0xa54ff53a;
    state_[4] = 0x510e527f;
    state_[5] = 0x9b05688c;
    state_[6] = 0x1f83d9ab;
    state_[7] = 0x5be0cd19;
    totalBytes_ = 0;
    bufferLen_ = 0;
}

void
sha256CompressScalar(std::uint32_t state[8], const std::uint8_t *blocks,
                     std::size_t nblocks)
{
    for (std::size_t blk = 0; blk < nblocks; ++blk) {
        const std::uint8_t *block = blocks + 64 * blk;
        std::uint32_t w[64];
        for (int i = 0; i < 16; ++i)
            w[i] = load32be(block + 4 * i);
        for (int i = 16; i < 64; ++i) {
            const std::uint32_t s0 = rotr32(w[i - 15], 7) ^
                rotr32(w[i - 15], 18) ^ (w[i - 15] >> 3);
            const std::uint32_t s1 = rotr32(w[i - 2], 17) ^
                rotr32(w[i - 2], 19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16] + s0 + w[i - 7] + s1;
        }

        std::uint32_t a = state[0], b = state[1], c = state[2];
        std::uint32_t d = state[3], e = state[4], f = state[5];
        std::uint32_t g = state[6], h = state[7];

        for (int i = 0; i < 64; ++i) {
            const std::uint32_t s1 =
                rotr32(e, 6) ^ rotr32(e, 11) ^ rotr32(e, 25);
            const std::uint32_t ch = (e & f) ^ (~e & g);
            const std::uint32_t t1 = h + s1 + ch + kRoundConst[i] + w[i];
            const std::uint32_t s0 =
                rotr32(a, 2) ^ rotr32(a, 13) ^ rotr32(a, 22);
            const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
            const std::uint32_t t2 = s0 + maj;
            h = g;
            g = f;
            f = e;
            e = d + t1;
            d = c;
            c = b;
            b = a;
            a = t1 + t2;
        }

        state[0] += a;
        state[1] += b;
        state[2] += c;
        state[3] += d;
        state[4] += e;
        state[5] += f;
        state[6] += g;
        state[7] += h;
    }
}

void
Sha256::update(const void *data, std::size_t len)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    totalBytes_ += len;
    if (bufferLen_ > 0) {
        const std::size_t take = std::min(len, sizeof(buffer_) - bufferLen_);
        std::memcpy(buffer_ + bufferLen_, p, take);
        bufferLen_ += take;
        p += take;
        len -= take;
        if (bufferLen_ == sizeof(buffer_)) {
            sha256CompressScalar(state_, buffer_, 1);
            bufferLen_ = 0;
        }
    }
    if (len >= sizeof(buffer_)) {
        const std::size_t full = len / sizeof(buffer_);
        sha256CompressScalar(state_, p, full);
        p += full * sizeof(buffer_);
        len -= full * sizeof(buffer_);
    }
    if (len > 0) {
        std::memcpy(buffer_, p, len);
        bufferLen_ = len;
    }
}

Sha256Digest
Sha256::final()
{
    const std::uint64_t bit_len = totalBytes_ * 8;
    const std::uint8_t pad_byte = 0x80;
    update(&pad_byte, 1);
    const std::uint8_t zero = 0;
    while (bufferLen_ != 56)
        update(&zero, 1);
    std::uint8_t len_be[8];
    store64be(len_be, bit_len);
    update(len_be, 8);

    Sha256Digest out;
    for (int i = 0; i < 8; ++i)
        store32be(out.data() + 4 * i, state_[i]);
    return out;
}

Sha256Digest
Sha256::digest(const void *data, std::size_t len)
{
    Sha256 h;
    h.update(data, len);
    return h.final();
}

} // namespace amnt::crypto
