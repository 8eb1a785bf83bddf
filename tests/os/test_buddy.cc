#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <set>
#include <type_traits>
#include <vector>

#include "os/amntpp_allocator.hh"
#include "os/buddy_allocator.hh"

namespace amnt::os
{
namespace
{

/**
 * Exposes an allocator's free lists and carries the page-by-page
 * aging that ageSystem() replaced, as the slow reference the direct
 * build is checked against: drain every frame as single pages, then
 * free each kept run one page at a time.
 */
template <typename Base>
class AgingProbe : public Base
{
  public:
    using Base::Base;

    const std::vector<std::list<PageId>> &
    lists() const
    {
        return this->freeLists_;
    }

    void
    ageReference(Rng &rng, double free_fraction, std::uint64_t run_pages)
    {
        this->aging_ = true;
        while (this->allocPage())
            ;
        std::vector<PageId> runs;
        for (PageId start = 0; start < this->totalFrames();
             start += run_pages)
            runs.push_back(start);
        for (std::size_t i = runs.size(); i > 1; --i)
            std::swap(runs[i - 1], runs[rng.below(i)]);
        for (PageId start : runs) {
            if (!rng.chance(free_fraction))
                continue;
            const PageId end =
                std::min(start + run_pages, this->totalFrames());
            for (PageId f = start; f < end; ++f)
                this->freePage(f);
        }
        this->aging_ = false;
    }
};

/** Ages @p fast directly and @p slow page by page; asserts equality. */
template <typename A>
void
checkAgingMatchesReference(A &fast, A &slow, std::uint64_t seed,
                            double free_fraction,
                            std::uint64_t run_pages, unsigned max_order)
{
    Rng rng_fast(seed), rng_slow(seed);
    fast.ageSystem(rng_fast, free_fraction, run_pages);
    slow.ageReference(rng_slow, free_fraction, run_pages);

    for (unsigned o = 0; o <= max_order; ++o) {
        ASSERT_EQ(fast.chunksAt(o), slow.chunksAt(o)) << "order " << o;
        ASSERT_EQ(fast.lists()[o], slow.lists()[o]) << "order " << o;
    }
    ASSERT_EQ(fast.freeFrames(), slow.freeFrames());
    ASSERT_EQ(fast.instructions(), 0ull);
    ASSERT_EQ(rng_fast.next(), rng_slow.next()) << "RNG draws differ";

    // AMNT++ boots with one restructure pass over the aged lists.
    if constexpr (std::is_base_of_v<AmntPpAllocator, A>) {
        fast.restructure();
        slow.restructure();
        ASSERT_EQ(fast.biasedRegion(), slow.biasedRegion());
    }

    // Hand-out order: a later drain yields the same frame sequence.
    std::vector<PageId> fast_seq, slow_seq;
    while (auto f = fast.allocPage())
        fast_seq.push_back(*f);
    while (auto f = slow.allocPage())
        slow_seq.push_back(*f);
    ASSERT_EQ(fast_seq, slow_seq);
}

TEST(Buddy, AgingMatchesPageByPageReferenceOnRandomGrid)
{
    // Frames not a power of two, every max order 0..11, run lengths
    // both below and above 2^max_order and unaligned, both allocator
    // classes (AMNT++ steers allocation by region, so the drain after
    // aging exercises its hand-out order too).
    Rng grid(20240417);
    for (int trial = 0; trial < 600; ++trial) {
        const std::uint64_t frames = 1 + grid.below(6000);
        const unsigned max_order = static_cast<unsigned>(grid.below(12));
        const std::uint64_t top = 1ull << max_order;
        const std::uint64_t run_pages =
            grid.chance(0.5) ? 1 + grid.below(top)
                             : top + 1 + grid.below(3 * top + 7);
        const double fraction = grid.uniform();
        const std::uint64_t seed = grid.next();
        SCOPED_TRACE(testing::Message()
                     << "trial " << trial << " frames " << frames
                     << " max_order " << max_order << " run_pages "
                     << run_pages << " fraction " << fraction);
        if (grid.chance(0.5)) {
            AgingProbe<BuddyAllocator> fast(frames, max_order);
            AgingProbe<BuddyAllocator> slow(frames, max_order);
            checkAgingMatchesReference(fast, slow, seed, fraction,
                                        run_pages, max_order);
        } else {
            const std::uint64_t region = 1 + grid.below(512);
            AgingProbe<AmntPpAllocator> fast(frames, region, max_order);
            AgingProbe<AmntPpAllocator> slow(frames, region, max_order);
            checkAgingMatchesReference(fast, slow, seed, fraction,
                                        run_pages, max_order);
        }
        if (testing::Test::HasFatalFailure())
            return;
    }
}

TEST(BuddyDeathTest, AgingRejectsZeroRunPages)
{
    BuddyAllocator b(64);
    Rng rng(1);
    EXPECT_DEATH(b.ageSystem(rng, 0.7, 0), "run_pages must be non-zero");
}

TEST(Buddy, AllFramesAllocatable)
{
    BuddyAllocator b(1024);
    std::set<PageId> seen;
    while (auto f = b.allocPage()) {
        EXPECT_LT(*f, 1024ull);
        EXPECT_TRUE(seen.insert(*f).second) << "double allocation";
    }
    EXPECT_EQ(seen.size(), 1024ull);
    EXPECT_EQ(b.freeFrames(), 0ull);
}

TEST(Buddy, NonPowerOfTwoCapacity)
{
    BuddyAllocator b(1000);
    std::uint64_t n = 0;
    while (b.allocPage())
        ++n;
    EXPECT_EQ(n, 1000ull);
}

TEST(Buddy, OrderAllocationAligned)
{
    BuddyAllocator b(1024);
    for (int i = 0; i < 16; ++i) {
        auto f = b.alloc(4);
        ASSERT_TRUE(f.has_value());
        EXPECT_EQ(*f % 16, 0ull) << "order-4 chunk misaligned";
    }
}

TEST(Buddy, FreeCoalescesBackToFullChunks)
{
    BuddyAllocator b(1024, 10);
    std::vector<PageId> frames;
    while (auto f = b.allocPage())
        frames.push_back(*f);
    for (PageId f : frames)
        b.freePage(f);
    EXPECT_EQ(b.freeFrames(), 1024ull);
    EXPECT_EQ(b.chunksAt(10), 1ull); // fully coalesced
    EXPECT_EQ(b.chunksAt(0), 0ull);
}

TEST(Buddy, SplitProducesBuddyHalves)
{
    BuddyAllocator b(16, 4);
    EXPECT_EQ(b.chunksAt(4), 1ull);
    auto f = b.allocPage();
    ASSERT_TRUE(f.has_value());
    // Splitting 16 -> 8+4+2+1 free halves remain.
    EXPECT_EQ(b.chunksAt(3), 1ull);
    EXPECT_EQ(b.chunksAt(2), 1ull);
    EXPECT_EQ(b.chunksAt(1), 1ull);
    EXPECT_EQ(b.chunksAt(0), 1ull);
    EXPECT_EQ(b.freeFrames(), 15ull);
}

TEST(Buddy, IsFreeTracksState)
{
    BuddyAllocator b(64);
    auto f = b.allocPage();
    ASSERT_TRUE(f.has_value());
    EXPECT_FALSE(b.isFree(*f));
    b.freePage(*f);
    EXPECT_TRUE(b.isFree(*f));
}

TEST(Buddy, InstructionAccounting)
{
    BuddyAllocator b(1024);
    const std::uint64_t before = b.instructions();
    b.allocPage();
    EXPECT_GT(b.instructions(), before);
}

TEST(Buddy, AgedSystemLeavesPinsAndRunGranularOrder)
{
    BuddyAllocator b(4096);
    Rng rng(3);
    b.ageSystem(rng, 0.5, /*run_pages=*/64);
    // Whole runs are pinned or freed: free count is a multiple of 64
    // and roughly half the memory.
    EXPECT_EQ(b.freeFrames() % 64, 0ull);
    EXPECT_GT(b.freeFrames(), 1024ull);
    EXPECT_LT(b.freeFrames(), 3072ull);
    EXPECT_EQ(b.instructions(), 0ull);

    // Allocations stay contiguous inside a run but jump across runs:
    // consecutive-frame pairs dominate, yet multiple distinct runs
    // appear and the run sequence is not simply ascending.
    std::vector<PageId> got;
    for (int i = 0; i < 256; ++i)
        got.push_back(*b.allocPage());
    int monotone = 0;
    std::set<PageId> runs_seen;
    for (std::size_t i = 1; i < got.size(); ++i)
        monotone += got[i] == got[i - 1] + 1;
    for (PageId f : got)
        runs_seen.insert(f / 64);
    EXPECT_GT(monotone, 128) << "runs should stay contiguous";
    EXPECT_GE(runs_seen.size(), 3ull);
}

TEST(Buddy, RandomAllocFreeStormPreservesInvariants)
{
    BuddyAllocator b(2048);
    Rng rng(9);
    std::vector<PageId> held;
    for (int i = 0; i < 20000; ++i) {
        if (!held.empty() && rng.chance(0.45)) {
            const std::size_t j = rng.below(held.size());
            b.freePage(held[j]);
            held[j] = held.back();
            held.pop_back();
        } else if (auto f = b.allocPage()) {
            held.push_back(*f);
        }
        ASSERT_EQ(b.freeFrames() + held.size(), 2048ull);
    }
    std::set<PageId> unique(held.begin(), held.end());
    EXPECT_EQ(unique.size(), held.size());
}

} // namespace
} // namespace amnt::os
