/**
 * FlatMap unit tests: parity with std::unordered_map across insert,
 * find, erase (backward-shift deletion), rehash, and iteration, plus
 * the edge cases open addressing gets wrong when the probe-chain
 * bookkeeping is off (erase in long collision runs, wrap-around at
 * the table end). Seeded op streams check both value layouts entry
 * for entry and in iteration order against the all-inline reference
 * map, and arena-held values are checked never to move.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/flat_map.hh"
#include "common/reference_flat_map.hh"
#include "common/rng.hh"
#include "common/types.hh"

using namespace amnt;

namespace
{

TEST(FlatMap, StartsEmpty)
{
    FlatMap<std::uint64_t, int> map;
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.size(), 0u);
    EXPECT_FALSE(map.contains(0));
    EXPECT_EQ(map.find(42), map.end());
}

TEST(FlatMap, InsertAndFind)
{
    FlatMap<std::uint64_t, int> map;
    map[5] = 50;
    map[9] = 90;
    ASSERT_TRUE(map.contains(5));
    ASSERT_TRUE(map.contains(9));
    EXPECT_EQ(map.find(5)->second, 50);
    EXPECT_EQ(map.find(9)->second, 90);
    EXPECT_FALSE(map.contains(7));
    EXPECT_EQ(map.size(), 2u);
}

TEST(FlatMap, TryEmplaceReportsFreshness)
{
    FlatMap<std::uint64_t, int> map;
    auto [it1, fresh1] = map.try_emplace(3);
    EXPECT_TRUE(fresh1);
    EXPECT_EQ(it1->second, 0); // value-initialized
    it1->second = 33;
    auto [it2, fresh2] = map.try_emplace(3);
    EXPECT_FALSE(fresh2);
    EXPECT_EQ(it2->second, 33);
    EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMap, EraseRemovesOnlyTarget)
{
    FlatMap<std::uint64_t, int> map;
    for (std::uint64_t k = 0; k < 64; ++k)
        map[k * 64] = static_cast<int>(k);
    EXPECT_TRUE(map.erase(0));
    EXPECT_FALSE(map.erase(0));
    EXPECT_EQ(map.size(), 63u);
    for (std::uint64_t k = 1; k < 64; ++k) {
        ASSERT_TRUE(map.contains(k * 64));
        EXPECT_EQ(map.find(k * 64)->second, static_cast<int>(k));
    }
}

TEST(FlatMap, GrowthPreservesEntries)
{
    FlatMap<std::uint64_t, std::uint64_t> map;
    // Push well past several rehash thresholds.
    for (std::uint64_t k = 0; k < 10'000; ++k)
        map[k * 0x40] = k ^ 0xabcd;
    EXPECT_EQ(map.size(), 10'000u);
    for (std::uint64_t k = 0; k < 10'000; ++k) {
        auto it = map.find(k * 0x40);
        ASSERT_NE(it, map.end());
        EXPECT_EQ(it->second, k ^ 0xabcd);
    }
}

TEST(FlatMap, ClearEmptiesButStaysUsable)
{
    FlatMap<std::uint64_t, int> map;
    for (std::uint64_t k = 0; k < 100; ++k)
        map[k] = 1;
    map.clear();
    EXPECT_TRUE(map.empty());
    EXPECT_FALSE(map.contains(5));
    map[5] = 2;
    EXPECT_EQ(map.find(5)->second, 2);
}

TEST(FlatMap, IterationVisitsEveryEntryOnce)
{
    FlatMap<std::uint64_t, std::uint64_t> map;
    for (std::uint64_t k = 1; k <= 200; ++k)
        map[k * kBlockSize] = k;
    std::uint64_t count = 0, sum = 0;
    for (const auto &kv : map) {
        ++count;
        sum += kv.second;
    }
    EXPECT_EQ(count, 200u);
    EXPECT_EQ(sum, 200u * 201u / 2);
}

/** Identity hash forces collision runs so backward-shift is covered. */
struct IdentityHash
{
    std::size_t
    operator()(std::uint64_t v) const
    {
        return static_cast<std::size_t>(v);
    }
};

TEST(FlatMap, BackwardShiftKeepsCollisionRunsReachable)
{
    // All keys land on nearby home slots: erasing in the middle of
    // the run must not orphan the tail entries.
    FlatMap<std::uint64_t, int, IdentityHash> map;
    const std::vector<std::uint64_t> keys = {16, 32, 48, 17, 33, 18};
    for (std::uint64_t k : keys)
        map[k] = static_cast<int>(k);
    EXPECT_TRUE(map.erase(32));
    for (std::uint64_t k : keys) {
        if (k == 32)
            continue;
        ASSERT_TRUE(map.contains(k)) << "lost key " << k;
        EXPECT_EQ(map.find(k)->second, static_cast<int>(k));
    }
}

TEST(FlatMap, RandomizedParityWithUnorderedMap)
{
    FlatMap<std::uint64_t, std::uint64_t> map;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    Rng rng(12345);

    for (int step = 0; step < 200'000; ++step) {
        // Block-aligned keys from a small space: plenty of erase hits
        // and re-inserts of previously deleted slots.
        const std::uint64_t key = rng.below(4096) * kBlockSize;
        switch (rng.below(4)) {
        case 0:
        case 1: { // insert / overwrite
            const std::uint64_t value = rng.next();
            map[key] = value;
            ref[key] = value;
            break;
        }
        case 2: { // erase
            EXPECT_EQ(map.erase(key), ref.erase(key) != 0);
            break;
        }
        default: { // lookup
            auto it = map.find(key);
            auto rit = ref.find(key);
            ASSERT_EQ(it != map.end(), rit != ref.end());
            if (rit != ref.end()) {
                ASSERT_EQ(it->second, rit->second);
            }
            break;
        }
        }
        ASSERT_EQ(map.size(), ref.size());
    }

    // Full-content comparison at the end, via iteration.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> got(
        map.begin(), map.end());
    std::sort(got.begin(), got.end());
    std::vector<std::pair<std::uint64_t, std::uint64_t>> want(
        ref.begin(), ref.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want);
}

/** A 64 B value, like the NVM store's and the HMAC table's blocks. */
struct Wide
{
    std::array<std::uint64_t, 8> words{};
    bool operator==(const Wide &) const = default;
};

/** A 24 B value: just past the inline bound. */
struct Mid
{
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::uint32_t c = 0;
    bool operator==(const Mid &) const = default;
};

static_assert(sizeof(Wide) == 64 && sizeof(Mid) == 24);
static_assert(FlatMap<std::uint64_t, Wide>::kArenaValues);
static_assert(FlatMap<std::uint64_t, Mid>::kArenaValues);
static_assert(
    !FlatMap<std::uint64_t, std::array<std::uint8_t, 16>>::kArenaValues);
static_assert(!FlatMap<std::uint64_t, std::uint64_t>::kArenaValues);
static_assert(
    std::is_nothrow_move_constructible_v<FlatMap<std::uint64_t, Wide>>);
static_assert(
    std::is_nothrow_move_assignable_v<FlatMap<std::uint64_t, Wide>>);
static_assert(std::is_nothrow_move_constructible_v<
              FlatMap<std::uint64_t, std::uint64_t>>);

void
fillValue(Wide &v, std::uint64_t x)
{
    for (std::size_t i = 0; i < v.words.size(); ++i)
        v.words[i] = x * 0x9e3779b97f4a7c15ULL + i;
}

void
fillValue(Mid &v, std::uint64_t x)
{
    v = {x, ~x, static_cast<std::uint32_t>(x >> 7)};
}

void
fillValue(std::uint64_t &v, std::uint64_t x)
{
    v = x;
}

template <typename V>
class FlatMapParity : public ::testing::Test
{
};

using ParityValues = ::testing::Types<Wide, Mid, std::uint64_t>;
TYPED_TEST_SUITE(FlatMapParity, ParityValues);

/** Same size, same lookup of @p key, same entries in the same order. */
template <typename Map, typename Ref>
void
expectSameMaps(const Map &map, const Ref &ref, std::uint64_t key)
{
    ASSERT_EQ(map.size(), ref.size());
    ASSERT_EQ(map.empty(), ref.empty());
    const auto it = map.find(key);
    const auto rit = ref.find(key);
    ASSERT_EQ(it == map.end(), rit == ref.end()) << "key " << key;
    ASSERT_EQ(map.contains(key), ref.contains(key));
    if (rit != ref.end()) {
        ASSERT_TRUE(it->second == rit->second) << "key " << key;
    }
    auto a = map.begin();
    auto b = ref.begin();
    for (; a != map.end() && b != ref.end(); ++a, ++b) {
        ASSERT_EQ(a->first, b->first);
        ASSERT_TRUE(a->second == b->second) << "key " << a->first;
    }
    ASSERT_TRUE(a == map.end() && b == ref.end());
}

TYPED_TEST(FlatMapParity, SeededOpStreamsMatchReference)
{
    using V = TypeParam;
    using Map = FlatMap<std::uint64_t, V>;
    using Ref = test::ReferenceFlatMap<std::uint64_t, V>;

    for (std::uint64_t seed : {1, 271828}) {
        Map map;
        Ref ref;
        Rng rng(seed);
        for (int step = 0; step < 8000; ++step) {
            // Alternate insert-heavy and erase-heavy phases so the
            // maps grow through several rehashes and drain again.
            const bool filling = (step / 1000) % 2 == 0;
            const std::uint64_t key = rng.below(512) * kBlockSize;
            const std::uint64_t r = rng.below(1000);
            const std::uint64_t x = rng.next();
            if (r < (filling ? 400u : 200u)) {
                auto [it, fresh] = map.try_emplace(key);
                auto [rit, rfresh] = ref.try_emplace(key);
                ASSERT_EQ(fresh, rfresh);
                if (x & 1) {
                    fillValue(it->second, x);
                    fillValue(rit->second, x);
                }
            } else if (r < (filling ? 750u : 400u)) {
                fillValue(map[key], x);
                fillValue(ref[key], x);
            } else if (r < 980) {
                ASSERT_EQ(map.erase(key), ref.erase(key));
            } else if (r < 988) {
                // Deep copy: the copy outlives the original's storage.
                Map copy(map);
                map.clear();
                map = copy;
                Ref rcopy(ref);
                ref.clear();
                ref = rcopy;
            } else if (r < 996) {
                Map moved(std::move(map));
                ASSERT_TRUE(map.empty());
                ASSERT_EQ(map.find(key), map.end());
                map = std::move(moved);
                Ref rmoved(std::move(ref));
                ref = std::move(rmoved);
            } else {
                map.clear();
                ref.clear();
            }
            expectSameMaps(map, ref, key);
        }
    }
}

TEST(FlatMap, ArenaValuesNeverMove)
{
    // Pointers taken while the map holds one entry, and at sampled
    // points of its growth, must still reach the same intact values
    // after growth to 100k entries and after erasing other keys.
    FlatMap<std::uint64_t, Wide> map;
    auto expected = [](std::uint64_t k) {
        Wide v;
        fillValue(v, k);
        return v;
    };
    std::vector<std::pair<std::uint64_t, const Wide *>> pinned;
    auto insert = [&](std::uint64_t k) {
        Wide &v = map[k * kBlockSize];
        fillValue(v, k);
        if (k % 997 == 0)
            pinned.emplace_back(k, &v);
    };
    insert(0);
    ASSERT_EQ(map.size(), 1u);
    for (std::uint64_t k = 1; k < 100'000; ++k)
        insert(k);
    ASSERT_EQ(map.size(), 100'000u);

    auto check = [&] {
        for (const auto &[k, ptr] : pinned) {
            const auto it = map.find(k * kBlockSize);
            ASSERT_NE(it, map.end()) << "lost key " << k;
            ASSERT_EQ(&it->second, ptr) << "value of key " << k << " moved";
            ASSERT_TRUE(*ptr == expected(k)) << "key " << k;
        }
    };
    check();

    // Erase every key that is not pinned, then reuse the freed arena
    // entries with fresh keys.
    for (std::uint64_t k = 1; k < 100'000; ++k) {
        if (k % 997 != 0) {
            ASSERT_EQ(map.erase(k * kBlockSize), 1u);
        }
    }
    ASSERT_EQ(map.size(), pinned.size());
    check();
    for (std::uint64_t k = 100'000; k < 150'000; ++k) {
        Wide &v = map[k * kBlockSize];
        ASSERT_TRUE(v == Wide{}) << "recycled entry not reset, key " << k;
        fillValue(v, k);
    }
    check();
    std::uint64_t seen = 0;
    for (const auto &kv : map) {
        ASSERT_TRUE(kv.second == expected(kv.first / kBlockSize))
            << "key " << kv.first;
        ++seen;
    }
    EXPECT_EQ(seen, pinned.size() + 50'000);
}

TEST(FlatMap, MovedFromMapIsEmptyAndReusable)
{
    FlatMap<std::uint64_t, Wide> map;
    fillValue(map[64], 1);
    FlatMap<std::uint64_t, Wide> other(std::move(map));
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.begin(), map.end());
    fillValue(map[128], 2);
    EXPECT_EQ(map.size(), 1u);
    EXPECT_EQ(other.size(), 1u);
    Wide want;
    fillValue(want, 1);
    EXPECT_TRUE(other.find(64)->second == want);
}

} // namespace
