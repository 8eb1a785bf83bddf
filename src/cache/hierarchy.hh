/**
 * @file
 * Multi-level data-cache hierarchy in front of the secure memory
 * controller.
 *
 * A hierarchy is a path of Cache objects (L1 first). Caches may be
 * shared between hierarchies (e.g. a shared LLC among per-core private
 * levels in the multiprogram configuration); the path holds non-owning
 * pointers. Misses at the last level call out to the secure memory
 * engine through user-provided callbacks, as do dirty write-backs —
 * those write-backs are exactly the "data writes" whose metadata
 * persistence the paper's protocols manage.
 */

#ifndef AMNT_CACHE_HIERARCHY_HH
#define AMNT_CACHE_HIERARCHY_HH

#include <functional>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "common/types.hh"

namespace amnt::obs
{
class StatRegistry;
}

namespace amnt::cache
{

/**
 * Write-allocate, write-back hierarchy walk. Fill policy is
 * inclusive: a block filled from memory is installed at every level.
 */
class CacheHierarchy
{
  public:
    /** Latency-returning callbacks into the memory controller. */
    using MemReadFn = std::function<Cycle(Addr)>;
    using MemWriteFn = std::function<Cycle(Addr)>;

    /**
     * @param path      Cache levels, L1 first; non-owning.
     * @param mem_read  Invoked on a miss at the last level.
     * @param mem_write Invoked when a dirty block leaves the last level.
     */
    CacheHierarchy(std::vector<Cache *> path, MemReadFn mem_read,
                   MemWriteFn mem_write);

    /** Perform one access; returns the latency in cycles. */
    Cycle access(Addr addr, AccessType type);

    /** Drop all cached state (power loss); dirty data is lost. */
    void invalidateAll();

    /** Reads that reached memory. */
    std::uint64_t memReads() const { return memReads_; }

    /** Write-backs that reached memory. */
    std::uint64_t memWrites() const { return memWrites_; }

    /**
     * Register memory-traffic probes (`<prefix>.mem_reads`,
     * `.mem_writes`) with a stats registry (obs/registry.hh).
     */
    void registerStats(obs::StatRegistry &reg,
                       const std::string &prefix) const;

  private:
    /**
     * Install @p addr at level @p level, recursively absorbing dirty
     * victims into the next level down (or memory). Returns the
     * latency the displaced write-backs add: when a dirty block
     * leaves the last level its metadata persistence work (ordered
     * NVM persists under strict-style protocols) stalls the access
     * that triggered the eviction.
     */
    Cycle installAt(std::size_t level, Addr addr, bool dirty);

    std::vector<Cache *> path_;
    MemReadFn memRead_;
    MemWriteFn memWrite_;
    std::vector<AccessResult> fills_; ///< per-level outcome of access()
    std::uint64_t memReads_ = 0;
    std::uint64_t memWrites_ = 0;
};

} // namespace amnt::cache

#endif // AMNT_CACHE_HIERARCHY_HH
