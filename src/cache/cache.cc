#include "cache/cache.hh"

#include <bit>
#include <cstring>
#include <memory>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/bitops.hh"
#include "common/log.hh"

namespace amnt::cache
{

namespace
{

constexpr unsigned kMaxWays = 16;
constexpr std::uint64_t kNibbleOnes = 0x1111111111111111ull;
constexpr std::uint64_t kNibbleHighs = 0x8888888888888888ull;
constexpr std::size_t kHostLine = 64;

/** Bit mask of the tags equal to @p tag among the first W ways. */
template <unsigned W>
inline std::uint32_t
matchWays(const std::uint32_t *tags, std::uint32_t tag)
{
    std::uint32_t m = 0;
#if defined(__SSE2__)
    if constexpr (W % 4 == 0) {
        // Four tags per compare; memcpy is the portable 16 B load.
        const __m128i key = _mm_set1_epi32(static_cast<int>(tag));
        for (unsigned w = 0; w < W; w += 4) {
            __m128i v;
            std::memcpy(&v, tags + w, sizeof(v));
            const __m128 eq = _mm_castsi128_ps(_mm_cmpeq_epi32(v, key));
            m |= static_cast<std::uint32_t>(_mm_movemask_ps(eq)) << w;
        }
        return m;
    }
#endif
    for (unsigned w = 0; w < W; ++w)
        m |= static_cast<std::uint32_t>(tags[w] == tag) << w;
    return m;
}

/**
 * Move @p way to the most recent position of recency word @p order.
 * The way's nibble is found branch-free: XOR with the way broadcast
 * zeroes exactly that nibble, and the classic has-zero-nibble test
 * flags it as the lowest hit (higher flags may be borrow artefacts).
 * Nibbles at or above the way count stay zero, so shifting the upper
 * part down leaves the most recent position free for @p way.
 */
inline std::uint64_t
promote(std::uint64_t order, unsigned way, unsigned mru_shift)
{
    const std::uint64_t x = order ^ (kNibbleOnes * way);
    const std::uint64_t zero = (x - kNibbleOnes) & ~x & kNibbleHighs;
    const unsigned shift = static_cast<unsigned>(std::countr_zero(zero)) & ~3u;
    const std::uint64_t below = (std::uint64_t{1} << shift) - 1;
    return (order & below) | ((order >> 4) & ~below) |
           (std::uint64_t{way} << mru_shift);
}

} // namespace

Cache::Cache(const CacheConfig &config) : config_(config)
{
    if (config.sizeBytes == 0 || config.ways == 0)
        panic("cache %s: zero size or associativity",
              config.name.c_str());
    if (config.ways > kMaxWays)
        panic("cache %s: %u ways, more than %u", config.name.c_str(),
              config.ways, kMaxWays);
    const std::uint64_t total_lines = config.sizeBytes / kBlockSize;
    if (total_lines < config.ways)
        panic("cache %s: fewer lines than ways", config.name.c_str());
    numSets_ = total_lines / config.ways;
    if (!isPowerOfTwo(numSets_))
        panic("cache %s: set count %llu not a power of two",
              config.name.c_str(),
              static_cast<unsigned long long>(numSets_));

    strideShift_ = ceilLog2(kTags + config.ways);
    allWays_ = (1u << config.ways) - 1;
    identity_ = 0xfedcba9876543210ull;
    if (config.ways < kMaxWays)
        identity_ &= (std::uint64_t{1} << (4 * config.ways)) - 1;
    mruShift_ = 4 * (config.ways - 1);

    // One zero-filled allocation (all ways invalid), with the slack
    // to start every record of 64 B or more on a host line.
    const std::size_t words = numSets_ << strideShift_;
    storage_.resize(words + kHostLine / sizeof(std::uint32_t));
    void *base = storage_.data();
    std::size_t space = storage_.size() * sizeof(std::uint32_t);
    sets_ = static_cast<std::uint32_t *>(std::align(
        kHostLine, words * sizeof(std::uint32_t), base, space));

    hits_ = &stats_.counter("hits");
    misses_ = &stats_.counter("misses");
    fills_ = &stats_.counter("fills");
    evictions_ = &stats_.counter("evictions");
    dirtyEvictions_ = &stats_.counter("dirty_evictions");
}

std::uint32_t
Cache::tagOf(Addr addr) const
{
    const BlockId block = blockOf(addr);
    if (block >> 32 != 0)
        fatal("cache %s: block %llu beyond 32-bit block numbers",
              config_.name.c_str(), static_cast<unsigned long long>(block));
    return static_cast<std::uint32_t>(block);
}

std::uint32_t *
Cache::setOf(std::uint32_t tag) const
{
    return sets_ + ((tag & (numSets_ - 1)) << strideShift_);
}

std::uint32_t
Cache::match(const std::uint32_t *set, std::uint32_t tag) const
{
    const std::uint32_t *tags = set + kTags;
    std::uint32_t m;
    switch (config_.ways) {
      case 2:
        m = matchWays<2>(tags, tag);
        break;
      case 4:
        m = matchWays<4>(tags, tag);
        break;
      case 8:
        m = matchWays<8>(tags, tag);
        break;
      case 16:
        m = matchWays<16>(tags, tag);
        break;
      default:
        m = 0;
        for (unsigned w = 0; w < config_.ways; ++w)
            m |= static_cast<std::uint32_t>(tags[w] == tag) << w;
    }
    return m & set[kMasks]; // valid ways only
}

void
Cache::hitWay(std::uint32_t *set, unsigned way, bool set_dirty)
{
    ++*hits_;
    storeOrder(set, promote(loadOrder(set), way, mruShift_));
    const std::uint32_t dirty_bit = 1u << (way + 16);
    if (set_dirty && !(set[kMasks] & dirty_bit)) {
        set[kMasks] |= dirty_bit;
        ++dirtyLines_;
    }
}

bool
Cache::access(Addr addr, bool set_dirty)
{
    if (touch(addr, set_dirty))
        return true;
    ++*misses_;
    return false;
}

bool
Cache::touch(Addr addr, bool set_dirty)
{
    const std::uint32_t tag = tagOf(addr);
    std::uint32_t *set = setOf(tag);
    const std::uint32_t hit = match(set, tag);
    if (hit == 0)
        return false;
    hitWay(set, std::countr_zero(hit), set_dirty);
    return true;
}

bool
Cache::contains(Addr addr) const
{
    const std::uint32_t tag = tagOf(addr);
    return match(setOf(tag), tag) != 0;
}

bool
Cache::isDirty(Addr addr) const
{
    const std::uint32_t tag = tagOf(addr);
    const std::uint32_t *set = setOf(tag);
    return (match(set, tag) << 16 & set[kMasks]) != 0;
}

AccessResult
Cache::insert(Addr addr, bool dirty)
{
    const std::uint32_t tag = tagOf(addr);
    std::uint32_t *set = setOf(tag);
    if (match(set, tag) != 0)
        panic("cache %s: insert of resident block", config_.name.c_str());
    return fill(set, tag, dirty);
}

AccessResult
Cache::lookupOrFill(Addr addr, bool dirty)
{
    const std::uint32_t tag = tagOf(addr);
    std::uint32_t *set = setOf(tag);
    const std::uint32_t hit = match(set, tag);
    if (hit != 0) {
        hitWay(set, std::countr_zero(hit), dirty);
        AccessResult result;
        result.hit = true;
        return result;
    }
    ++*misses_;
    return fill(set, tag, dirty);
}

AccessResult
Cache::fill(std::uint32_t *set, std::uint32_t tag, bool dirty)
{
    // An empty set starts from the identity order; otherwise every way
    // filled since it was last empty sits above every way that was not.
    std::uint32_t masks = set[kMasks];
    const std::uint32_t valid = masks & allWays_;
    const std::uint64_t order = valid != 0 ? loadOrder(set) : identity_;
    const std::uint32_t invalid = ~valid & allWays_;
    const unsigned way = invalid != 0
                             ? static_cast<unsigned>(std::countr_zero(invalid))
                             : static_cast<unsigned>(order & 0xf);
    const std::uint32_t bit = 1u << way;

    AccessResult result;
    if (invalid == 0) {
        const bool victim_dirty = (masks & bit << 16) != 0;
        result.evictedValid = true;
        result.evictedDirty = victim_dirty;
        result.evictedAddr = blockAddr(set[kTags + way]);
        ++*evictions_;
        if (victim_dirty) {
            ++*dirtyEvictions_;
            --dirtyLines_;
        }
    }
    set[kTags + way] = tag;
    masks = (masks | bit) & ~(bit << 16);
    if (dirty) {
        masks |= bit << 16;
        ++dirtyLines_;
    }
    set[kMasks] = masks;
    storeOrder(set, promote(order, way, mruShift_));
    ++*fills_;
    return result;
}

void
Cache::clean(Addr addr)
{
    const std::uint32_t tag = tagOf(addr);
    std::uint32_t *set = setOf(tag);
    const std::uint32_t dirty_bit = match(set, tag) << 16 & set[kMasks];
    if (dirty_bit != 0) {
        set[kMasks] &= ~dirty_bit;
        --dirtyLines_;
    }
}

bool
Cache::invalidate(Addr addr)
{
    const std::uint32_t tag = tagOf(addr);
    std::uint32_t *set = setOf(tag);
    const std::uint32_t hit = match(set, tag);
    if (hit == 0)
        return false;
    const bool was_dirty = (set[kMasks] & hit << 16) != 0;
    if (was_dirty)
        --dirtyLines_;
    set[kMasks] &= ~(hit | hit << 16);
    return was_dirty;
}

void
Cache::invalidateAll()
{
    // Empty masks suffice: a fill into an empty set resets its order.
    for (std::uint64_t s = 0; s < numSets_; ++s)
        sets_[(s << strideShift_) + kMasks] = 0;
    dirtyLines_ = 0;
}

void
Cache::forEachLine(const std::function<void(Addr, bool)> &visitor) const
{
    for (std::uint64_t s = 0; s < numSets_; ++s) {
        const std::uint32_t *set = sets_ + (s << strideShift_);
        const std::uint32_t masks = set[kMasks];
        for (std::uint32_t v = masks & allWays_; v != 0; v &= v - 1) {
            const unsigned way = std::countr_zero(v);
            visitor(blockAddr(set[kTags + way]),
                    (masks >> 16 >> way & 1) != 0);
        }
    }
}

std::uint64_t
Cache::cleanIf(const std::function<bool(Addr)> &pred)
{
    std::uint64_t cleaned = 0;
    for (std::uint64_t s = 0; s < numSets_; ++s) {
        std::uint32_t *set = sets_ + (s << strideShift_);
        for (std::uint32_t d = set[kMasks] >> 16; d != 0; d &= d - 1) {
            const unsigned way = std::countr_zero(d);
            if (pred(blockAddr(set[kTags + way]))) {
                set[kMasks] &= ~(1u << (way + 16));
                --dirtyLines_;
                ++cleaned;
            }
        }
    }
    return cleaned;
}

} // namespace amnt::cache
