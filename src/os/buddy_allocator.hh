/**
 * @file
 * Binary buddy physical-page allocator modeled after Linux's
 * free_area structure (paper section 5).
 *
 * Physical memory is managed as chunks of 2^order pages kept in
 * per-order free lists. Allocation pops the head of the smallest
 * sufficient order, splitting larger chunks as needed; freeing
 * coalesces with the buddy chunk while possible. The allocator also
 * keeps an instruction account so the OS cost of AMNT++'s
 * modifications can be reported (paper Table 2).
 *
 * ageSystem() emulates a long-running machine: every frame is
 * allocated and then a fraction is freed in random order with the
 * rest left pinned, which randomizes the free lists the way real
 * reclamation does. This is what makes physical placement scatter —
 * the problem AMNT++'s biased free lists solve.
 */

#ifndef AMNT_OS_BUDDY_ALLOCATOR_HH
#define AMNT_OS_BUDDY_ALLOCATOR_HH

#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace amnt::os
{

/** Modeled instruction costs of allocator operations. */
struct AllocCosts
{
    std::uint64_t allocBase = 60;
    std::uint64_t splitPerLevel = 25;
    std::uint64_t freeBase = 55;
    std::uint64_t coalescePerLevel = 30;
    std::uint64_t scanPerChunk = 2; ///< AMNT++ restructure scan
};

/** Linux-style binary buddy allocator over physical page frames. */
class BuddyAllocator
{
  public:
    /**
     * @param frames    Total physical page frames (power of two not
     *                  required; the tail simply starts free).
     * @param max_order Largest chunk order (Linux: 10).
     */
    explicit BuddyAllocator(std::uint64_t frames,
                            unsigned max_order = 10);

    virtual ~BuddyAllocator() = default;

    /** Allocate one page frame; nullopt when memory is exhausted. */
    std::optional<PageId> allocPage();

    /** Allocate a 2^order-aligned chunk; returns its first frame. */
    virtual std::optional<PageId> alloc(unsigned order);

    /** Return a chunk to the allocator (coalescing with buddies). */
    void free(PageId frame, unsigned order);

    /** Free a single page frame. */
    void freePage(PageId frame) { free(frame, 0); }

    /** Frames currently free. */
    std::uint64_t freeFrames() const { return freeFrames_; }

    /** Total frames managed. */
    std::uint64_t totalFrames() const { return frames_; }

    /** Modeled OS instructions spent in the allocator so far. */
    std::uint64_t instructions() const { return instructions_; }

    /** Number of free chunks at @p order (testing). */
    std::size_t chunksAt(unsigned order) const;

    /**
     * Emulate a long-running system: allocate everything, then free
     * whole runs of @p run_pages contiguous frames in shuffled order
     * with probability @p free_fraction, pinning the rest. Free
     * lists end up holding contiguous multi-megabyte chunks in
     * randomized order — contiguity survives within a run (as it
     * does on real systems, where reclamation returns whole
     * mappings) but successive allocations can jump across memory,
     * which is the scatter AMNT++'s biased lists repair.
     *
     * The aged state is built directly: the allocator starts fully
     * allocated (empty lists), and each freed run is returned as its
     * maximal aligned blocks in ascending address order. The lists,
     * free count and RNG draws equal those of draining every frame
     * and freeing each run page by page (checked against that
     * reference in tests/os/test_buddy.cc), at a cost proportional
     * to the number of blocks rather than frames. @p run_pages must
     * be non-zero.
     */
    void ageSystem(Rng &rng, double free_fraction = 0.7,
                   std::uint64_t run_pages = 8192);

    /** True iff @p frame is currently inside some free chunk. */
    bool isFree(PageId frame) const;

  protected:
    /**
     * Hook invoked at the end of free() — the reclamation path —
     * where AMNT++ installs its free-list restructuring.
     */
    virtual void onReclaim() {}

    /** Charge modeled OS instructions. */
    void charge(std::uint64_t n) { instructions_ += n; }

    /** Insert chunk at the head of its order list (no coalescing). */
    void pushChunk(PageId frame, unsigned order);

    /** Remove a specific free chunk from its order list. */
    void removeChunk(PageId frame, unsigned order);

    /** Largest chunk order managed. */
    unsigned maxOrder() const { return maxOrder_; }

    /**
     * Pop the head chunk of @p have and split it down to @p order,
     * re-listing the upper halves; the caller guarantees the list at
     * @p have is non-empty.
     */
    PageId allocFrom(unsigned have, unsigned order);

    /** Free lists: per order, chunk start frames; head = next out. */
    std::vector<std::list<PageId>> freeLists_;

    AllocCosts costs_;

    /** Suppresses reclamation hooks during ageSystem() setup. */
    bool aging_ = false;

  private:
    /** Locate a free chunk record. */
    bool chunkIsFree(PageId frame, unsigned order) const;

    std::uint64_t frames_;
    unsigned maxOrder_;
    std::uint64_t freeFrames_ = 0;
    std::uint64_t instructions_ = 0;

    /** (frame, order) -> iterator for O(1) list removal. */
    std::unordered_map<std::uint64_t, std::list<PageId>::iterator>
        index_;

    static std::uint64_t
    key(PageId frame, unsigned order)
    {
        return (frame << 5) | order;
    }
};

} // namespace amnt::os

#endif // AMNT_OS_BUDDY_ALLOCATOR_HH
