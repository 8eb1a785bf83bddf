/**
 * @file
 * Slow reference for the counter-block format: CounterBlock's
 * serialize and deserialize as they were before the word-at-a-time
 * packing, one minor and one or two bytes per step. Minor i sits at
 * bit 7i of the 56-byte area after the little-endian major, so both
 * implementations must agree byte for byte (test_counters.cc).
 */

#ifndef AMNT_TESTS_BMT_REFERENCE_COUNTERS_HH
#define AMNT_TESTS_BMT_REFERENCE_COUNTERS_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "bmt/counters.hh"
#include "common/bitops.hh"

namespace amnt::test
{

inline std::array<std::uint8_t, kBlockSize>
referenceSerialize(const bmt::CounterBlock &cb)
{
    std::array<std::uint8_t, kBlockSize> out{};
    store64le(out.data(), cb.major);
    std::size_t bitpos = 0;
    std::uint8_t *base = out.data() + 8;
    for (unsigned i = 0; i < kCounterArity; ++i) {
        const std::uint32_t v = cb.minors[i] & kMinorCounterMax;
        const std::size_t byte = bitpos >> 3;
        const unsigned shift = bitpos & 7;
        base[byte] |= static_cast<std::uint8_t>(v << shift);
        if (shift > 1)
            base[byte + 1] |= static_cast<std::uint8_t>(v >> (8 - shift));
        bitpos += kMinorCounterBits;
    }
    return out;
}

inline bmt::CounterBlock
referenceDeserialize(const std::array<std::uint8_t, kBlockSize> &raw)
{
    bmt::CounterBlock cb;
    cb.major = load64le(raw.data());
    std::size_t bitpos = 0;
    const std::uint8_t *base = raw.data() + 8;
    for (unsigned i = 0; i < kCounterArity; ++i) {
        const std::size_t byte = bitpos >> 3;
        const unsigned shift = bitpos & 7;
        std::uint32_t v = base[byte] >> shift;
        if (shift > 1)
            v |= static_cast<std::uint32_t>(base[byte + 1]) << (8 - shift);
        cb.minors[i] = static_cast<std::uint8_t>(v & kMinorCounterMax);
        bitpos += kMinorCounterBits;
    }
    return cb;
}

} // namespace amnt::test

#endif // AMNT_TESTS_BMT_REFERENCE_COUNTERS_HH
