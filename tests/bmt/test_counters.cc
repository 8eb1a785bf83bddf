#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "bmt/counters.hh"
#include "bmt/reference_counters.hh"
#include "common/rng.hh"

namespace amnt::bmt
{
namespace
{

TEST(CounterBlock, StartsZero)
{
    const CounterBlock cb;
    EXPECT_TRUE(cb.isZero());
    EXPECT_EQ(cb.major, 0ull);
}

TEST(CounterBlock, IncrementIsolatedPerSlot)
{
    CounterBlock cb;
    EXPECT_FALSE(cb.increment(3));
    EXPECT_FALSE(cb.increment(3));
    EXPECT_EQ(cb.minors[3], 2);
    EXPECT_EQ(cb.minors[2], 0);
    EXPECT_FALSE(cb.isZero());
}

TEST(CounterBlock, OverflowAtSevenBits)
{
    CounterBlock cb;
    for (int i = 0; i < 127; ++i)
        EXPECT_FALSE(cb.increment(0)) << "iteration " << i;
    EXPECT_EQ(cb.minors[0], kMinorCounterMax);
    EXPECT_TRUE(cb.increment(0)); // would exceed 7 bits
    cb.overflowReset();
    EXPECT_EQ(cb.major, 1ull);
    for (auto m : cb.minors)
        EXPECT_EQ(m, 0);
}

TEST(CounterBlock, SerializeIs64Bytes)
{
    CounterBlock cb;
    cb.major = 0x1122334455667788ULL;
    const auto raw = cb.serialize();
    EXPECT_EQ(raw.size(), kBlockSize);
    EXPECT_EQ(raw[0], 0x88); // little-endian major
}

TEST(CounterBlock, SerializeRoundTripDense)
{
    CounterBlock cb;
    cb.major = 0xdeadbeefcafe1234ULL;
    for (unsigned i = 0; i < kCounterArity; ++i)
        cb.minors[i] = static_cast<std::uint8_t>((i * 37 + 5) & 0x7f);
    EXPECT_EQ(CounterBlock::deserialize(cb.serialize()), cb);
}

TEST(CounterBlock, SerializeRoundTripExtremes)
{
    CounterBlock cb;
    for (unsigned i = 0; i < kCounterArity; ++i)
        cb.minors[i] = i % 2 ? kMinorCounterMax : 0;
    EXPECT_EQ(CounterBlock::deserialize(cb.serialize()), cb);
}

TEST(CounterBlock, MinorsUseExactly56Bytes)
{
    // Setting only the last minor must not touch the major bytes and
    // must land inside the trailing 56-byte area.
    CounterBlock cb;
    cb.minors[63] = kMinorCounterMax;
    const auto raw = cb.serialize();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(raw[static_cast<std::size_t>(i)], 0);
    EXPECT_NE(raw[63], 0);
    EXPECT_EQ(CounterBlock::deserialize(raw), cb);
}

TEST(CounterBlock, ZeroBlockSerializesToZeros)
{
    const CounterBlock cb;
    for (auto b : cb.serialize())
        EXPECT_EQ(b, 0);
}

/** Both directions of the packed format agree with the bit loops. */
void
expectMatchesReference(const CounterBlock &cb)
{
    const auto raw = cb.serialize();
    EXPECT_EQ(raw, test::referenceSerialize(cb));
    EXPECT_EQ(CounterBlock::deserialize(raw), test::referenceDeserialize(raw));
    EXPECT_EQ(CounterBlock::deserialize(raw), cb);
}

TEST(CounterBlock, EverySlotAtEdgeValuesMatchesReference)
{
    // 63/64 cross the sixth bit, 126/127 fill all seven: every slot
    // at every byte offset the packing can put it.
    const std::uint8_t values[] = {0, 1, 63, 64, 126, kMinorCounterMax};
    for (unsigned slot = 0; slot < kCounterArity; ++slot) {
        for (std::uint8_t v : values) {
            CounterBlock cb;
            cb.minors[slot] = v;
            expectMatchesReference(cb);
            // The same value in every other slot too.
            CounterBlock all;
            all.minors.fill(v);
            all.minors[slot] = static_cast<std::uint8_t>(
                kMinorCounterMax - v);
            expectMatchesReference(all);
        }
    }
}

TEST(CounterBlock, SeededRandomBlocksMatchReference)
{
    Rng rng(0xc0de);
    for (int n = 0; n < 2000; ++n) {
        CounterBlock cb;
        cb.major = rng.next();
        for (auto &m : cb.minors)
            m = static_cast<std::uint8_t>(rng.below(kMinorCounterMax + 1));
        expectMatchesReference(cb);

        // Arbitrary raw bytes: every bit of the 56-byte area belongs
        // to some minor, so deserialize must agree on any input.
        std::array<std::uint8_t, kBlockSize> raw;
        for (auto &b : raw)
            b = static_cast<std::uint8_t>(rng.next());
        EXPECT_EQ(CounterBlock::deserialize(raw),
                  test::referenceDeserialize(raw));
        EXPECT_EQ(CounterBlock::deserialize(raw).serialize(), raw);
    }
}

TEST(CounterBlock, MajorExtremesMatchReference)
{
    const std::uint64_t majors[] = {
        0, 1, 0x80, 0xffffffffull, 0x8000000000000000ull,
        std::numeric_limits<std::uint64_t>::max() - 1,
        std::numeric_limits<std::uint64_t>::max()};
    for (std::uint64_t major : majors) {
        CounterBlock cb;
        cb.major = major;
        expectMatchesReference(cb);
        cb.minors.fill(kMinorCounterMax);
        expectMatchesReference(cb);
    }
}

TEST(CounterBlock, SerializeMasksMinorsToSevenBits)
{
    // The in-core byte can hold an eighth bit; the format drops it,
    // as the reference does.
    CounterBlock cb;
    cb.minors[5] = 0xff;
    cb.minors[63] = 0x80;
    EXPECT_EQ(cb.serialize(), test::referenceSerialize(cb));
}

} // namespace
} // namespace amnt::bmt
