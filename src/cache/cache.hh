/**
 * @file
 * Set-associative cache model with LRU replacement and per-line dirty
 * bits, used both for the on-chip data hierarchy and for the 64 kB
 * security-metadata cache.
 *
 * Each set is one packed record: the 32-bit block numbers of its ways,
 * a 64-bit recency word (a 4-bit way index per LRU position, least
 * recent first) and valid and dirty bitmasks. An 8-way set fits one
 * 64 B host line and a 16-way set two. A hit or a fill moves its way
 * to the most recent position; the victim is the lowest invalid way,
 * or else the way in the least recent position, which is exact LRU.
 *
 * The model is tag-only: block contents travel through the engines
 * that own the cache, which keeps the same class usable by the
 * content-free timing plane and the functional plane. Eviction of a
 * dirty line invokes a caller-provided write-back handler.
 */

#ifndef AMNT_CACHE_CACHE_HH
#define AMNT_CACHE_CACHE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace amnt::cache
{

/** Construction parameters. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 64 * 1024;
    unsigned ways = 8;
    Cycle hitLatency = 2;
};

/** Outcome of an access. */
struct AccessResult
{
    bool hit = false;
    bool evictedValid = false;  ///< a victim line was displaced
    bool evictedDirty = false;  ///< ... and it was dirty
    Addr evictedAddr = 0;       ///< block address of the victim
};

/**
 * Tag-array cache. Addresses are block aligned internally; any byte
 * address within a block refers to the same line. At most 16 ways,
 * and block numbers must fit in 32 bits (fatal otherwise).
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    // Noncopyable: hot-path counters point into the stats group.
    Cache(const Cache &) = delete;
    Cache &operator=(const Cache &) = delete;

    /** Cache name (statistics prefix). */
    const std::string &name() const { return config_.name; }

    /** Total line count. */
    std::uint64_t lines() const { return numSets_ * config_.ways; }

    /**
     * Lines currently dirty (write-queue residency: the write-back
     * work outstanding against backing memory). Maintained
     * incrementally, so sampling it per access is O(1).
     */
    std::uint64_t dirtyLines() const { return dirtyLines_; }

    /** Hit latency in cycles. */
    Cycle hitLatency() const { return config_.hitLatency; }

    /**
     * Look up @p addr; on hit, refresh LRU and optionally set the
     * dirty bit. Does not allocate on miss.
     */
    bool access(Addr addr, bool set_dirty);

    /**
     * Hit-only touch: on a hit, exactly access(); on a miss, change
     * and count nothing. One probe where callers would otherwise ask
     * contains() and then access().
     */
    bool touch(Addr addr, bool set_dirty);

    /** Non-mutating presence test. */
    bool contains(Addr addr) const;

    /** Non-mutating dirty test (false when absent). */
    bool isDirty(Addr addr) const;

    /**
     * Allocate a line for @p addr (must not currently hit). The LRU
     * way of the set is the victim; its identity is reported in the
     * result so the owner can write back content.
     */
    AccessResult insert(Addr addr, bool dirty);

    /**
     * access() and, on a miss, insert() in one probe: the result's
     * hit flag says which happened, and a fill reports its victim.
     */
    AccessResult lookupOrFill(Addr addr, bool dirty);

    /** Clear the dirty bit of a resident line (write-through commit). */
    void clean(Addr addr);

    /** Invalidate one line if present; returns whether it was dirty. */
    bool invalidate(Addr addr);

    /** Drop every line (power loss of a volatile array). */
    void invalidateAll();

    /**
     * Visit every valid line: visitor(addr, dirty). Lines are visited
     * set by set in set-index order, and within a set in way-index
     * order. AMNT's subtree-movement scan and Phoenix's shadow image
     * feed this order into persisted state, so it is part of the
     * contract.
     */
    void forEachLine(
        const std::function<void(Addr, bool)> &visitor) const;

    /**
     * Clear dirty bits that @p pred selects, visiting lines in
     * forEachLine's order; returns count cleaned.
     */
    std::uint64_t cleanIf(const std::function<bool(Addr)> &pred);

    /** Statistics: hits, misses, evictions, dirty evictions. */
    const StatGroup &stats() const { return stats_; }

    /** Mutable statistics (registry federation / reset-in-place). */
    StatGroup &stats() { return stats_; }

    /** Hit rate over all accesses so far. */
    double
    hitRate() const
    {
        return stats_.ratio("hits", "misses");
    }

  private:
    // Word offsets within a set record; tags start 16 B in, so the
    // tag array of an 8-way set ends inside the record's host line.
    static constexpr unsigned kOrderLo = 0; ///< recency word, low half
    static constexpr unsigned kOrderHi = 1; ///< recency word, high half
    static constexpr unsigned kMasks = 2;   ///< valid | dirty << 16
    static constexpr unsigned kTags = 4;    ///< one block number per way

    static std::uint64_t
    loadOrder(const std::uint32_t *set)
    {
        return std::uint64_t{set[kOrderLo]} |
               std::uint64_t{set[kOrderHi]} << 32;
    }

    static void
    storeOrder(std::uint32_t *set, std::uint64_t order)
    {
        set[kOrderLo] = static_cast<std::uint32_t>(order);
        set[kOrderHi] = static_cast<std::uint32_t>(order >> 32);
    }

    std::uint32_t tagOf(Addr addr) const;
    std::uint32_t *setOf(std::uint32_t tag) const;
    std::uint32_t match(const std::uint32_t *set, std::uint32_t tag) const;
    void hitWay(std::uint32_t *set, unsigned way, bool set_dirty);
    AccessResult fill(std::uint32_t *set, std::uint32_t tag, bool dirty);

    CacheConfig config_;
    std::uint64_t numSets_;
    unsigned strideShift_;   ///< log2 of the words per set record
    std::uint32_t allWays_;  ///< one bit per way
    std::uint64_t identity_; ///< recency word of a freshly filled set
    unsigned mruShift_;      ///< bit offset of the most recent position
    std::vector<std::uint32_t> storage_;
    std::uint32_t *sets_; ///< first record, 64 B aligned in storage_
    std::uint64_t dirtyLines_ = 0;
    StatGroup stats_;

    // Per-access counters resolved once (see StatGroup::counter).
    std::uint64_t *hits_;
    std::uint64_t *misses_;
    std::uint64_t *fills_;
    std::uint64_t *evictions_;
    std::uint64_t *dirtyEvictions_;
};

} // namespace amnt::cache

#endif // AMNT_CACHE_CACHE_HH
