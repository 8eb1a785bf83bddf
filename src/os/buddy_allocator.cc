#include "os/buddy_allocator.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/log.hh"

namespace amnt::os
{

BuddyAllocator::BuddyAllocator(std::uint64_t frames, unsigned max_order)
    : frames_(frames), maxOrder_(max_order)
{
    if (frames == 0)
        panic("BuddyAllocator requires at least one frame");
    if (max_order > 20)
        panic("unreasonable max order");
    freeLists_.resize(maxOrder_ + 1);

    // Seed the free lists with maximal aligned chunks.
    PageId frame = 0;
    while (frame < frames_) {
        unsigned order = maxOrder_;
        while (order > 0 &&
               ((frame & ((1ull << order) - 1)) != 0 ||
                frame + (1ull << order) > frames_))
            --order;
        pushChunk(frame, order);
        freeFrames_ += 1ull << order;
        frame += 1ull << order;
    }
}

void
BuddyAllocator::pushChunk(PageId frame, unsigned order)
{
    freeLists_[order].push_front(frame);
    index_[key(frame, order)] = freeLists_[order].begin();
}

void
BuddyAllocator::removeChunk(PageId frame, unsigned order)
{
    auto it = index_.find(key(frame, order));
    if (it == index_.end())
        panic("removeChunk: chunk not free");
    freeLists_[order].erase(it->second);
    index_.erase(it);
}

bool
BuddyAllocator::chunkIsFree(PageId frame, unsigned order) const
{
    return index_.count(key(frame, order)) != 0;
}

std::size_t
BuddyAllocator::chunksAt(unsigned order) const
{
    return freeLists_[order].size();
}

PageId
BuddyAllocator::allocFrom(unsigned have, unsigned order)
{
    PageId frame = freeLists_[have].front();
    removeChunk(frame, have);

    // Split down to the requested order, returning the low half and
    // freeing the high half at each step (Linux splits the same way).
    while (have > order) {
        --have;
        charge(costs_.splitPerLevel);
        pushChunk(frame + (1ull << have), have);
    }
    freeFrames_ -= 1ull << order;
    return frame;
}

std::optional<PageId>
BuddyAllocator::alloc(unsigned order)
{
    charge(costs_.allocBase);
    unsigned have = order;
    while (have <= maxOrder_ && freeLists_[have].empty())
        ++have;
    if (have > maxOrder_)
        return std::nullopt;
    return allocFrom(have, order);
}

std::optional<PageId>
BuddyAllocator::allocPage()
{
    return alloc(0);
}

void
BuddyAllocator::free(PageId frame, unsigned order)
{
    charge(costs_.freeBase);
    if (frame >= frames_)
        panic("free of frame beyond memory");

    // Only the newly returned frames change the free count; buddies
    // absorbed during coalescing were already counted.
    freeFrames_ += 1ull << order;

    // Coalesce with the buddy while it is also free.
    while (order < maxOrder_) {
        const PageId buddy = frame ^ (1ull << order);
        if (buddy + (1ull << order) > frames_ ||
            !chunkIsFree(buddy, order))
            break;
        charge(costs_.coalescePerLevel);
        removeChunk(buddy, order);
        frame = std::min(frame, buddy);
        ++order;
    }
    pushChunk(frame, order);
    if (!aging_)
        onReclaim();
}

bool
BuddyAllocator::isFree(PageId frame) const
{
    for (unsigned order = 0; order <= maxOrder_; ++order) {
        const PageId base = frame & ~((1ull << order) - 1);
        if (chunkIsFree(base, order))
            return true;
    }
    return false;
}

void
BuddyAllocator::ageSystem(Rng &rng, double free_fraction,
                          std::uint64_t run_pages)
{
    if (run_pages == 0)
        panic("ageSystem: run_pages must be non-zero");
    aging_ = true;
    // Start fully allocated: draining every frame leaves every list
    // empty, so build that state directly.
    for (auto &lst : freeLists_)
        lst.clear();
    index_.clear();
    freeFrames_ = 0;

    // Shuffle run order, then free whole runs (or pin them).
    std::vector<PageId> runs;
    for (PageId start = 0; start < frames_; start += run_pages)
        runs.push_back(start);
    for (std::size_t i = runs.size(); i > 1; --i)
        std::swap(runs[i - 1], runs[rng.below(i)]);

    for (PageId start : runs) {
        if (!rng.chance(free_fraction))
            continue; // pinned: some resident daemon keeps it
        const PageId end = std::min(start + run_pages, frames_);
        // Free the run as its maximal aligned blocks, ascending. A
        // surviving chunk is pushed when the block holding its
        // highest page is freed, just as when freeing page by page
        // it is pushed when that page is freed, so every list gets
        // the same chunks in the same order.
        for (PageId f = start; f < end;) {
            unsigned order = 0;
            while (order < maxOrder_ &&
                   (f & ((2ull << order) - 1)) == 0 &&
                   f + (2ull << order) <= end)
                ++order;
            free(f, order);
            f += 1ull << order;
        }
    }

    // Aging is environment setup, not measured OS work.
    instructions_ = 0;
    aging_ = false;
}

} // namespace amnt::os
