#include <gtest/gtest.h>

#include "cache/cache.hh"

namespace amnt::cache
{
namespace
{

CacheConfig
smallCache()
{
    // 4 sets x 2 ways of 64 B lines.
    return {"test", 512, 2, 1};
}

TEST(Cache, MissThenHit)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.access(0x0, false));
    c.insert(0x0, false);
    EXPECT_TRUE(c.access(0x0, false));
    EXPECT_EQ(c.stats().get("hits"), 1ull);
    EXPECT_EQ(c.stats().get("misses"), 1ull);
}

TEST(Cache, BlockGranularity)
{
    Cache c(smallCache());
    c.insert(0x0, false);
    EXPECT_TRUE(c.access(0x3f, false)); // same 64 B block
    EXPECT_FALSE(c.access(0x40, false));
}

TEST(Cache, LruEviction)
{
    Cache c(smallCache());
    // Set index = block % 4; blocks 0, 4, 8 all map to set 0.
    c.insert(0 * 64, false);
    c.insert(4 * 64, false);
    c.access(0 * 64, false); // make block 0 most recent
    const AccessResult res = c.insert(8 * 64, false);
    EXPECT_TRUE(res.evictedValid);
    EXPECT_EQ(res.evictedAddr, 4ull * 64); // LRU victim
    EXPECT_TRUE(c.contains(0 * 64));
    EXPECT_FALSE(c.contains(4 * 64));
}

TEST(Cache, DirtyEvictionReported)
{
    Cache c(smallCache());
    c.insert(0 * 64, true);
    c.insert(4 * 64, false);
    const AccessResult res = c.insert(8 * 64, false);
    EXPECT_TRUE(res.evictedValid);
    EXPECT_TRUE(res.evictedDirty);
    EXPECT_EQ(res.evictedAddr, 0ull);
    EXPECT_EQ(c.stats().get("dirty_evictions"), 1ull);
}

TEST(Cache, AccessCanSetDirty)
{
    Cache c(smallCache());
    c.insert(0, false);
    EXPECT_FALSE(c.isDirty(0));
    c.access(0, true);
    EXPECT_TRUE(c.isDirty(0));
    c.clean(0);
    EXPECT_FALSE(c.isDirty(0));
}

TEST(Cache, InvalidateReportsDirtiness)
{
    Cache c(smallCache());
    c.insert(0, true);
    EXPECT_TRUE(c.invalidate(0));
    EXPECT_FALSE(c.contains(0));
    EXPECT_FALSE(c.invalidate(0));
}

TEST(Cache, InvalidateAll)
{
    Cache c(smallCache());
    c.insert(0, true);
    c.insert(64, false);
    c.invalidateAll();
    EXPECT_FALSE(c.contains(0));
    EXPECT_FALSE(c.contains(64));
}

TEST(Cache, ForEachLineAndCleanIf)
{
    Cache c(smallCache());
    c.insert(0 * 64, true);
    c.insert(1 * 64, true);
    c.insert(2 * 64, false);
    int dirty = 0, valid = 0;
    c.forEachLine([&](Addr, bool d) {
        ++valid;
        dirty += d;
    });
    EXPECT_EQ(valid, 3);
    EXPECT_EQ(dirty, 2);

    const std::uint64_t cleaned =
        c.cleanIf([](Addr a) { return a == 0; });
    EXPECT_EQ(cleaned, 1ull);
    EXPECT_FALSE(c.isDirty(0));
    EXPECT_TRUE(c.isDirty(64));
}

TEST(Cache, HitRate)
{
    Cache c(smallCache());
    c.insert(0, false);
    c.access(0, false);
    c.access(0, false);
    c.access(64, false); // miss
    EXPECT_DOUBLE_EQ(c.hitRate(), 2.0 / 3.0);
}

TEST(Cache, FillsUseInvalidWaysFirst)
{
    Cache c(smallCache());
    c.insert(0 * 64, false);
    const AccessResult res = c.insert(4 * 64, false);
    EXPECT_FALSE(res.evictedValid);
    EXPECT_TRUE(c.contains(0 * 64));
    EXPECT_TRUE(c.contains(4 * 64));
}

TEST(Cache, TouchCountsOnlyHits)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.touch(0, true)); // miss: nothing counted or filled
    EXPECT_EQ(c.stats().get("misses"), 0ull);
    EXPECT_FALSE(c.contains(0));
    c.insert(0, false);
    EXPECT_TRUE(c.touch(0, true));
    EXPECT_TRUE(c.isDirty(0));
    EXPECT_EQ(c.stats().get("hits"), 1ull);
}

TEST(Cache, RejectsMoreThanSixteenWays)
{
    // 17 ways do not fit the 4-bit way indices of the recency word.
    CacheConfig cfg{"bad", 17 * 4 * 64, 17, 1};
    EXPECT_DEATH({ Cache c(cfg); }, "more than 16");
}

TEST(Cache, RejectsBlockNumbersPastThirtyTwoBits)
{
    Cache c(smallCache());
    const Addr last = blockAddr((BlockId{1} << 32) - 1);
    c.insert(last, false);
    EXPECT_TRUE(c.contains(last));
    EXPECT_EXIT(c.insert(last + kBlockSize, false),
                ::testing::ExitedWithCode(1), "beyond 32-bit");
    EXPECT_EXIT(c.access(last + kBlockSize, false),
                ::testing::ExitedWithCode(1), "beyond 32-bit");
}

} // namespace
} // namespace amnt::cache
