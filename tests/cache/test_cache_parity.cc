/**
 * Op-stream parity between cache::Cache and its slow reference
 * (reference_cache.hh). Seeded streams mix every mutating and
 * querying operation (access, touch, lookupOrFill, contains, isDirty,
 * insert, clean, invalidate, invalidateAll and cleanIf); after each op the two caches must agree on the
 * op's result (hit or miss, victim address, valid and dirty bits),
 * on all five stat counters and dirtyLines(), and on the full
 * forEachLine sequence, which pins its set-major, way-index order.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "cache/cache.hh"
#include "common/rng.hh"
#include "reference_cache.hh"

namespace amnt::cache
{
namespace
{

using Lines = std::vector<std::pair<Addr, bool>>;

template <typename C>
Lines
linesOf(const C &c)
{
    Lines out;
    c.forEachLine([&](Addr a, bool d) { out.emplace_back(a, d); });
    return out;
}

template <typename C>
std::vector<std::uint64_t>
countersOf(const C &c)
{
    std::vector<std::uint64_t> out;
    for (const char *name :
         {"hits", "misses", "fills", "evictions", "dirty_evictions"})
        out.push_back(c.stats().get(name));
    out.push_back(c.dirtyLines());
    return out;
}

/**
 * Drive one geometry with one seed. Addresses land in a few sets
 * spread over the index range, with more distinct tags per set than
 * ways, so every set under test keeps filling, hitting and evicting.
 * A quarter of the tags sit just below the 32-bit block-number limit.
 */
void
runStream(unsigned ways, std::uint64_t sets, std::uint64_t seed,
          unsigned ops)
{
    SCOPED_TRACE("ways " + std::to_string(ways) + ", sets " +
                 std::to_string(sets) + ", seed " + std::to_string(seed));
    const CacheConfig cfg{"parity", sets * ways * kBlockSize, ways, 1};
    Cache fast(cfg);
    test::ReferenceCache ref(cfg);
    Rng rng(seed);

    const std::uint64_t hot_sets = sets < 8 ? sets : 8;
    std::vector<std::uint64_t> set_ids;
    for (std::uint64_t i = 0; i < hot_sets; ++i)
        set_ids.push_back(i * (sets / hot_sets) + rng.below(sets / hot_sets));
    const std::uint64_t tags_per_set = 2 * ways + 2;
    const std::uint64_t top_tag = ((std::uint64_t{1} << 32) - 1) / sets;
    auto pick = [&]() -> Addr {
        std::uint64_t t = rng.below(tags_per_set);
        if (rng.below(4) == 0)
            t = top_tag - t;
        const BlockId block = t * sets + set_ids[rng.below(hot_sets)];
        return blockAddr(block) + rng.below(kBlockSize);
    };

    for (unsigned i = 0; i < ops; ++i) {
        SCOPED_TRACE("op " + std::to_string(i));
        const Addr a = pick();
        const bool d = rng.chance(0.3);
        const std::uint64_t kind = rng.below(100);
        if (kind < 20) {
            ASSERT_EQ(fast.access(a, d), ref.access(a, d));
        } else if (kind < 30) {
            ASSERT_EQ(fast.touch(a, d), ref.touch(a, d));
        } else if (kind < 36) {
            ASSERT_EQ(fast.contains(a), ref.contains(a));
        } else if (kind < 42) {
            ASSERT_EQ(fast.isDirty(a), ref.isDirty(a));
        } else if (kind < 80) {
            // insert requires a non-resident block; lookupOrFill not.
            const bool fill = kind < 55;
            if (!fill && ref.contains(a))
                continue;
            const AccessResult f =
                fill ? fast.lookupOrFill(a, d) : fast.insert(a, d);
            const AccessResult r =
                fill ? ref.lookupOrFill(a, d) : ref.insert(a, d);
            ASSERT_EQ(f.hit, r.hit);
            ASSERT_EQ(f.evictedValid, r.evictedValid);
            ASSERT_EQ(f.evictedDirty, r.evictedDirty);
            ASSERT_EQ(f.evictedAddr, r.evictedAddr);
        } else if (kind < 87) {
            fast.clean(a);
            ref.clean(a);
        } else if (kind < 95) {
            ASSERT_EQ(fast.invalidate(a), ref.invalidate(a));
        } else if (kind < 99) {
            const std::uint64_t mod = 2 + rng.below(3);
            const std::uint64_t rem = rng.below(mod);
            auto pred = [&](Addr x) { return blockOf(x) % mod == rem; };
            ASSERT_EQ(fast.cleanIf(pred), ref.cleanIf(pred));
        } else if (rng.below(8) == 0) {
            fast.invalidateAll();
            ref.invalidateAll();
        }
        ASSERT_EQ(countersOf(fast), countersOf(ref));
        ASSERT_EQ(linesOf(fast), linesOf(ref));
    }
}

TEST(CacheParity, SeededOpStreamsMatchReference)
{
    for (unsigned ways : {2u, 4u, 8u, 16u}) {
        for (std::uint64_t sets : {1ull, 2ull, 8ull, 64ull, 1024ull}) {
            for (std::uint64_t seed : {1ull, 271828ull}) {
                runStream(ways, sets, seed, 3000);
                if (HasFatalFailure())
                    return;
            }
        }
    }
}

} // namespace
} // namespace amnt::cache
