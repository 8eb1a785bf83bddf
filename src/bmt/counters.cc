#include "bmt/counters.hh"

#include <cstring>

#include "common/bitops.hh"

namespace amnt::bmt
{

// The word packing below moves 8 seven-bit minors (56 bits, 7 bytes)
// per step; other widths need a different group size.
static_assert(kMinorCounterBits == 7 && kCounterArity % 8 == 0,
              "counter packing assumes 7-bit minors in groups of 8");

namespace
{

/** Bytes holding one group of 8 packed minors. */
constexpr std::size_t kGroupBytes = 8 * kMinorCounterBits / 8;

} // namespace

std::array<std::uint8_t, kBlockSize>
CounterBlock::serialize() const
{
    std::array<std::uint8_t, kBlockSize> out;
    store64le(out.data(), major);
    // Pack 64 seven-bit minors into the remaining 56 bytes, minor i at
    // bit 7i (little-endian), one 56-bit word per group of 8.
    std::uint8_t *dst = out.data() + 8;
    for (unsigned g = 0; g < kCounterArity; g += 8, dst += kGroupBytes) {
        std::uint64_t w = 0;
        for (unsigned j = 0; j < 8; ++j)
            w |= static_cast<std::uint64_t>(minors[g + j] &
                                            kMinorCounterMax)
                 << (j * kMinorCounterBits);
        std::uint8_t word[8];
        store64le(word, w);
        std::memcpy(dst, word, kGroupBytes);
    }
    return out;
}

CounterBlock
CounterBlock::deserialize(const std::array<std::uint8_t, kBlockSize> &raw)
{
    CounterBlock cb;
    cb.major = load64le(raw.data());
    const std::uint8_t *src = raw.data() + 8;
    for (unsigned g = 0; g < kCounterArity; g += 8, src += kGroupBytes) {
        std::uint8_t word[8] = {};
        std::memcpy(word, src, kGroupBytes);
        const std::uint64_t w = load64le(word);
        for (unsigned j = 0; j < 8; ++j)
            cb.minors[g + j] = static_cast<std::uint8_t>(
                (w >> (j * kMinorCounterBits)) & kMinorCounterMax);
    }
    return cb;
}

} // namespace amnt::bmt
