/**
 * @file
 * Per-process page table with first-touch physical allocation.
 *
 * Virtual address spaces are private per process; physical frames
 * come from the shared buddy (or AMNT++) allocator on first touch.
 * The translation layer is what lets the multiprogram experiments
 * show physical interleaving (Figure 3b) and what gives AMNT++ its
 * lever: same virtual behavior, different physical placement.
 */

#ifndef AMNT_OS_PAGE_TABLE_HH
#define AMNT_OS_PAGE_TABLE_HH

#include <cstdint>
#include <functional>

#include "common/flat_map.hh"
#include "common/types.hh"
#include "os/buddy_allocator.hh"

namespace amnt::os
{

/** Maps one process's virtual pages to physical frames. */
class PageTable
{
  public:
    /** @param allocator Shared physical allocator; not owned. */
    explicit PageTable(BuddyAllocator &allocator)
        : allocator_(&allocator)
    {
    }

    /**
     * Translate a virtual address, allocating the backing frame on
     * first touch. Returns the physical address.
     */
    Addr translate(Addr vaddr);

    /** Translate without allocating; false when unmapped. */
    bool probe(Addr vaddr, Addr &paddr) const;

    /** Release the frame backing virtual page @p vpage, if any. */
    void unmapPage(PageId vpage);

    /** Release every mapping (process exit). */
    void unmapAll();

    /** Mapped page count. */
    std::size_t mappedPages() const { return map_.size(); }

    /** Pages faulted in so far (allocation count). */
    std::uint64_t faults() const { return faults_; }

    /**
     * Iterate mappings: visitor(vpage, pframe), in the map's slot
     * order (deterministic, but not sorted by virtual page).
     */
    void forEachMapping(
        const std::function<void(PageId, PageId)> &visitor) const;

  private:
    BuddyAllocator *allocator_;
    FlatMap<PageId, PageId> map_;
    std::uint64_t faults_ = 0;
};

} // namespace amnt::os

#endif // AMNT_OS_PAGE_TABLE_HH
