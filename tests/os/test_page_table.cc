#include <gtest/gtest.h>

#include <unordered_map>

#include "common/rng.hh"
#include "os/page_table.hh"

namespace amnt::os
{
namespace
{

TEST(PageTable, FirstTouchAllocates)
{
    BuddyAllocator alloc(256);
    PageTable pt(alloc);
    EXPECT_EQ(pt.faults(), 0ull);
    const Addr p = pt.translate(0x12345);
    EXPECT_EQ(pt.faults(), 1ull);
    EXPECT_EQ(p & (kPageSize - 1), 0x345ull); // offset preserved
    EXPECT_EQ(alloc.freeFrames(), 255ull);
}

TEST(PageTable, StableTranslation)
{
    BuddyAllocator alloc(256);
    PageTable pt(alloc);
    const Addr a = pt.translate(0x4000);
    EXPECT_EQ(pt.translate(0x4000), a);
    EXPECT_EQ(pt.translate(0x4fff), a + 0xfff);
    EXPECT_EQ(pt.faults(), 1ull);
}

TEST(PageTable, DistinctPagesDistinctFrames)
{
    BuddyAllocator alloc(256);
    PageTable pt(alloc);
    const Addr a = pt.translate(0x0000);
    const Addr b = pt.translate(0x1000);
    EXPECT_NE(pageOf(a), pageOf(b));
}

TEST(PageTable, TwoProcessesNeverShareFrames)
{
    BuddyAllocator alloc(256);
    PageTable p1(alloc), p2(alloc);
    const Addr a = p1.translate(0x8000);
    const Addr b = p2.translate(0x8000); // same vaddr, other process
    EXPECT_NE(pageOf(a), pageOf(b));
}

TEST(PageTable, ProbeDoesNotAllocate)
{
    BuddyAllocator alloc(256);
    PageTable pt(alloc);
    Addr out = 0;
    EXPECT_FALSE(pt.probe(0x9000, out));
    EXPECT_EQ(pt.faults(), 0ull);
    pt.translate(0x9000);
    EXPECT_TRUE(pt.probe(0x9123, out));
}

TEST(PageTable, UnmapReturnsFrameAndRefaults)
{
    BuddyAllocator alloc(256);
    PageTable pt(alloc);
    pt.translate(0x3000);
    EXPECT_EQ(alloc.freeFrames(), 255ull);
    pt.unmapPage(3);
    EXPECT_EQ(alloc.freeFrames(), 256ull);
    pt.translate(0x3000);
    EXPECT_EQ(pt.faults(), 2ull);
}

TEST(PageTable, UnmapAllReleasesEverything)
{
    BuddyAllocator alloc(256);
    PageTable pt(alloc);
    for (int i = 0; i < 50; ++i)
        pt.translate(static_cast<Addr>(i) * kPageSize);
    EXPECT_EQ(pt.mappedPages(), 50ull);
    pt.unmapAll();
    EXPECT_EQ(pt.mappedPages(), 0ull);
    EXPECT_EQ(alloc.freeFrames(), 256ull);

    // The last page translated refaults into a fresh frame: no
    // mapping, and no cached translation, outlives process exit.
    pt.translate(49 * kPageSize);
    EXPECT_EQ(pt.faults(), 51ull);
    EXPECT_EQ(pt.mappedPages(), 1ull);
    EXPECT_EQ(alloc.freeFrames(), 255ull);
}

TEST(PageTable, ForEachMappingVisitsAll)
{
    BuddyAllocator alloc(256);
    PageTable pt(alloc);
    pt.translate(0x1000);
    pt.translate(0x5000);
    int n = 0;
    pt.forEachMapping([&](PageId, PageId) { ++n; });
    EXPECT_EQ(n, 2);
}

TEST(PageTable, StormMatchesUnorderedMapReference)
{
    // Slow reference: a std::unordered_map page table driven by its
    // own allocator, built and aged the same way. Each step
    // translates, unmaps or re-touches a page; every translation, the
    // fault count and the mapped-page count must agree. Half the
    // steps reuse the previous step's page, so translate, unmap and
    // translate of one page in a row is common: the sequence a stale
    // cached translation would answer without refaulting.
    BuddyAllocator alloc(4096), ref_alloc(4096);
    Rng age(77), ref_age(77);
    alloc.ageSystem(age, 0.8, 96);
    ref_alloc.ageSystem(ref_age, 0.8, 96);
    PageTable pt(alloc);
    std::unordered_map<PageId, PageId> ref;
    std::uint64_t ref_faults = 0;

    Rng rng(2024);
    const PageId vpages = 3000;
    PageId vpage = 0;
    for (int step = 0; step < 60000; ++step) {
        if (!rng.chance(0.5))
            vpage = rng.below(vpages);
        const Addr vaddr = pageAddr(vpage) + rng.below(kPageSize);
        if (rng.chance(0.25)) {
            pt.unmapPage(vpage);
            auto it = ref.find(vpage);
            if (it != ref.end()) {
                ref_alloc.freePage(it->second);
                ref.erase(it);
            }
        } else {
            auto it = ref.find(vpage);
            if (it == ref.end()) {
                it = ref.emplace(vpage, *ref_alloc.allocPage()).first;
                ++ref_faults;
            }
            ASSERT_EQ(pt.translate(vaddr),
                      pageAddr(it->second) + (vaddr & (kPageSize - 1)))
                << "step " << step;
        }
        ASSERT_EQ(pt.faults(), ref_faults) << "step " << step;
        ASSERT_EQ(pt.mappedPages(), ref.size()) << "step " << step;
    }
    for (const auto &[mapped, frame] : ref) {
        Addr paddr = 0;
        ASSERT_TRUE(pt.probe(pageAddr(mapped), paddr));
        EXPECT_EQ(pageOf(paddr), frame);
    }
}

} // namespace
} // namespace amnt::os
