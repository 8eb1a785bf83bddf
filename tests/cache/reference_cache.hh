/**
 * @file
 * Slow reference for cache::Cache: the cache model as it was before
 * each set became one packed record. Every line is a 24-byte struct
 * with its own LRU stamp from a global use clock; each operation
 * scans the set linearly, and the victim is the first invalid way or
 * else the way with the smallest stamp. The fast cache must agree
 * with it op for op: hit or miss, victim, stats, dirty count and
 * forEachLine order (test_cache_parity.cc drives them side by side).
 */

#ifndef AMNT_TESTS_CACHE_REFERENCE_CACHE_HH
#define AMNT_TESTS_CACHE_REFERENCE_CACHE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "cache/cache.hh"
#include "common/bitops.hh"
#include "common/log.hh"

namespace amnt::test
{

class ReferenceCache
{
  public:
    explicit ReferenceCache(const cache::CacheConfig &config)
        : config_(config)
    {
        if (config.sizeBytes == 0 || config.ways == 0)
            panic("cache %s: zero size or associativity",
                  config.name.c_str());
        const std::uint64_t total_lines = config.sizeBytes / kBlockSize;
        if (total_lines < config.ways)
            panic("cache %s: fewer lines than ways", config.name.c_str());
        numSets_ = total_lines / config.ways;
        if (!isPowerOfTwo(numSets_))
            panic("cache %s: set count not a power of two",
                  config.name.c_str());
        lines_.resize(numSets_ * config.ways);
        hits_ = &stats_.counter("hits");
        misses_ = &stats_.counter("misses");
        fills_ = &stats_.counter("fills");
        evictions_ = &stats_.counter("evictions");
        dirtyEvictions_ = &stats_.counter("dirty_evictions");
    }

    ReferenceCache(const ReferenceCache &) = delete;
    ReferenceCache &operator=(const ReferenceCache &) = delete;

    std::uint64_t lines() const { return numSets_ * config_.ways; }
    std::uint64_t dirtyLines() const { return dirtyLines_; }

    bool
    access(Addr addr, bool set_dirty)
    {
        Line *line = find(addr);
        if (line == nullptr) {
            ++*misses_;
            return false;
        }
        ++*hits_;
        line->lastUse = ++useClock_;
        if (set_dirty && !line->dirty) {
            line->dirty = true;
            ++dirtyLines_;
        }
        return true;
    }

    /** Hit-only touch, as callers spelled it: contains, then access. */
    bool
    touch(Addr addr, bool set_dirty)
    {
        return contains(addr) && access(addr, set_dirty);
    }

    /** access(), then insert() on a miss, as the hierarchy did. */
    cache::AccessResult
    lookupOrFill(Addr addr, bool dirty)
    {
        if (access(addr, dirty)) {
            cache::AccessResult hit;
            hit.hit = true;
            return hit;
        }
        return insert(addr, dirty);
    }

    bool contains(Addr addr) const { return find(addr) != nullptr; }

    bool
    isDirty(Addr addr) const
    {
        const Line *line = find(addr);
        return line != nullptr && line->dirty;
    }

    cache::AccessResult
    insert(Addr addr, bool dirty)
    {
        if (find(addr) != nullptr)
            panic("cache %s: insert of resident block",
                  config_.name.c_str());

        Line *set = &lines_[setOf(addr) * config_.ways];
        Line *victim = &set[0];
        for (unsigned w = 0; w < config_.ways; ++w) {
            if (!set[w].valid) {
                victim = &set[w];
                break;
            }
            if (set[w].lastUse < victim->lastUse)
                victim = &set[w];
        }

        cache::AccessResult result;
        if (victim->valid) {
            result.evictedValid = true;
            result.evictedDirty = victim->dirty;
            result.evictedAddr = victim->tag;
            ++*evictions_;
            if (victim->dirty) {
                ++*dirtyEvictions_;
                --dirtyLines_;
            }
        }
        victim->tag = blockAddr(blockOf(addr));
        victim->valid = true;
        victim->dirty = dirty;
        if (dirty)
            ++dirtyLines_;
        victim->lastUse = ++useClock_;
        ++*fills_;
        return result;
    }

    void
    clean(Addr addr)
    {
        Line *line = find(addr);
        if (line != nullptr && line->dirty) {
            line->dirty = false;
            --dirtyLines_;
        }
    }

    bool
    invalidate(Addr addr)
    {
        Line *line = find(addr);
        if (line == nullptr)
            return false;
        const bool was_dirty = line->dirty;
        if (was_dirty)
            --dirtyLines_;
        line->valid = false;
        line->dirty = false;
        return was_dirty;
    }

    void
    invalidateAll()
    {
        for (auto &line : lines_) {
            line.valid = false;
            line.dirty = false;
        }
        dirtyLines_ = 0;
    }

    void
    forEachLine(const std::function<void(Addr, bool)> &visitor) const
    {
        for (const auto &line : lines_) {
            if (line.valid)
                visitor(line.tag, line.dirty);
        }
    }

    std::uint64_t
    cleanIf(const std::function<bool(Addr)> &pred)
    {
        std::uint64_t cleaned = 0;
        for (auto &line : lines_) {
            if (line.valid && line.dirty && pred(line.tag)) {
                line.dirty = false;
                --dirtyLines_;
                ++cleaned;
            }
        }
        return cleaned;
    }

    const StatGroup &stats() const { return stats_; }

  private:
    struct Line
    {
        Addr tag = 0; ///< block-aligned address
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0;
    };

    std::uint64_t
    setOf(Addr addr) const
    {
        return blockOf(addr) & (numSets_ - 1);
    }

    Line *
    find(Addr addr)
    {
        const Addr tag = blockAddr(blockOf(addr));
        Line *set = &lines_[setOf(addr) * config_.ways];
        for (unsigned w = 0; w < config_.ways; ++w) {
            if (set[w].valid && set[w].tag == tag)
                return &set[w];
        }
        return nullptr;
    }

    const Line *
    find(Addr addr) const
    {
        return const_cast<ReferenceCache *>(this)->find(addr);
    }

    cache::CacheConfig config_;
    std::uint64_t numSets_;
    std::vector<Line> lines_;
    std::uint64_t useClock_ = 0;
    std::uint64_t dirtyLines_ = 0;
    StatGroup stats_;

    std::uint64_t *hits_;
    std::uint64_t *misses_;
    std::uint64_t *fills_;
    std::uint64_t *evictions_;
    std::uint64_t *dirtyEvictions_;
};

} // namespace amnt::test

#endif // AMNT_TESTS_CACHE_REFERENCE_CACHE_HH
