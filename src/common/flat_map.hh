/**
 * @file
 * Open-addressing hash map for the simulator's hot metadata tables.
 *
 * The secure-memory engine performs several map lookups per simulated
 * memory access (architectural counters, tree nodes, HMAC blocks,
 * persisted-MAC records, NVM backing store). std::unordered_map's
 * node-per-entry layout makes each of those a pointer chase plus an
 * allocation on insert; FlatMap probes a flat array instead.
 *
 * Design points:
 *  - power-of-two capacity, linear probing, max load factor 1/2;
 *  - two value layouts, chosen by the size of the mapped type:
 *     - values of at most 16 B live inline, in a value array parallel
 *       to the dense key array. Probes touch only the occupancy
 *       bitmap and the keys (8 keys per cache line); one value line
 *       is read on a hit;
 *     - larger values (64 B blocks, counter structs, tree nodes) live
 *       in a ValueArena, and each slot holds its key next to the
 *       value's 32-bit arena index. A hit reads the slot line and the
 *       value line. The slot array, which stays at most half full,
 *       costs 16 B per slot instead of a whole value, and growth
 *       moves slots, never values;
 *  - references and pointers to arena-held values stay valid until
 *    their entry is erased or the map is cleared, across any number
 *    of inserts and rehashes (inline values move on every rehash and
 *    on backward shifts, as in any open-addressing table);
 *  - backward-shift deletion (no tombstones, so probe chains never
 *    degrade);
 *  - a SplitMix64-style finalizer as the default hasher, because the
 *    keys are block-aligned addresses whose low bits are constant —
 *    identity hashing (libstdc++'s std::hash) would collide entire
 *    regions onto a few buckets;
 *  - iteration in slot order, which is a deterministic function of
 *    the insertion history and does not depend on the value layout
 *    — reruns of a deterministic simulation visit entries in the same
 *    order on every platform. Iterators dereference to a
 *    {first, second} reference proxy (there is no std::pair in memory
 *    to point at).
 *
 * Only the operations the simulator needs are provided (find, [],
 * try_emplace, erase, clear, iteration, size, deep copy, move); it is
 * not a drop-in std::unordered_map.
 */

#ifndef AMNT_COMMON_FLAT_MAP_HH
#define AMNT_COMMON_FLAT_MAP_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

namespace amnt
{

/** Mixes all key bits; good enough as a hash for 64-bit keys. */
struct U64Mix
{
    std::uint64_t
    operator()(std::uint64_t x) const
    {
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ULL;
        x ^= x >> 27;
        x *= 0x94d049bb133111ebULL;
        x ^= x >> 31;
        return x;
    }
};

/**
 * Grow-only chunked storage for FlatMap's large values. An index is
 * (chunk << kChunkShift) | offset. Chunk sizes ramp 16, 32, ... up to
 * kMaxChunk entries, so a small map pays for a small chunk. Chunks are
 * never reallocated, so a value never moves; erased indices are
 * recycled through a free list. Every index not handed out holds a
 * value-initialized V.
 */
template <typename V>
class ValueArena
{
  public:
    ValueArena() = default;

    ValueArena(const ValueArena &o) : free_(o.free_), fill_(o.fill_)
    {
        chunks_.reserve(o.chunks_.size());
        for (std::size_t c = 0; c < o.chunks_.size(); ++c) {
            const std::uint32_t n = chunkSize(c);
            chunks_.emplace_back(new V[n]);
            std::copy_n(o.chunks_[c].get(), n, chunks_.back().get());
        }
    }

    ValueArena(ValueArena &&o) noexcept { swap(o); }

    /** Copy- and move-assignment (the copy happens at the call). */
    ValueArena &
    operator=(ValueArena o) noexcept
    {
        swap(o);
        return *this;
    }

    void
    swap(ValueArena &o) noexcept
    {
        chunks_.swap(o.chunks_);
        free_.swap(o.free_);
        std::swap(fill_, o.fill_);
    }

    V &
    operator[](std::size_t i)
    {
        return chunks_[i >> kChunkShift][i & (kMaxChunk - 1)];
    }

    const V &
    operator[](std::size_t i) const
    {
        return chunks_[i >> kChunkShift][i & (kMaxChunk - 1)];
    }

    /** Index of a value-initialized entry. */
    std::uint32_t
    acquire()
    {
        if (!free_.empty()) {
            const std::uint32_t i = free_.back();
            free_.pop_back();
            return i;
        }
        if (chunks_.empty() || fill_ == chunkSize(chunks_.size() - 1)) {
            if (chunks_.size() == kMaxChunks)
                throw std::length_error("ValueArena: index space full");
            chunks_.emplace_back(new V[chunkSize(chunks_.size())]());
            fill_ = 0;
        }
        return static_cast<std::uint32_t>(
            ((chunks_.size() - 1) << kChunkShift) | fill_++);
    }

    /** Reset entry @p i to V() and recycle its index. */
    void
    release(std::uint32_t i)
    {
        (*this)[i] = V();
        free_.push_back(i);
    }

    /** Release every chunk. */
    void clear() { *this = ValueArena(); }

  private:
    static constexpr unsigned kChunkShift = 10;
    static constexpr unsigned kFirstChunkShift = 4;
    static constexpr std::uint32_t kMaxChunk = 1u << kChunkShift;
    static constexpr std::size_t kMaxChunks = std::size_t{1}
                                              << (32 - kChunkShift);

    /** Entries in chunk @p c: 16 << c, capped at kMaxChunk. */
    static std::uint32_t
    chunkSize(std::size_t c)
    {
        return c < kChunkShift - kFirstChunkShift
                   ? 1u << (kFirstChunkShift + c)
                   : kMaxChunk;
    }

    std::vector<std::unique_ptr<V[]>> chunks_;
    std::vector<std::uint32_t> free_;
    /** Entries of the last chunk handed out so far. */
    std::uint32_t fill_ = 0;
};

/**
 * Open-addressing map from an integer key to @p V.
 * @tparam K Key type (an unsigned integer type).
 * @tparam V Mapped type; value-initialized by operator[]/try_emplace.
 * @tparam Hash Hasher; must mix low bits (see U64Mix).
 */
template <typename K, typename V, typename Hash = U64Mix>
class FlatMap
{
  public:
    using value_type = std::pair<K, V>;

    /** True iff values live in a ValueArena rather than inline. */
    static constexpr bool kArenaValues = sizeof(V) > 16;

    FlatMap() = default;
    FlatMap(const FlatMap &) = default;

    /** Leaves @p o empty. */
    FlatMap(FlatMap &&o) noexcept { swap(o); }

    /** Copy- and move-assignment (the copy happens at the call). */
    FlatMap &
    operator=(FlatMap o) noexcept
    {
        swap(o);
        return *this;
    }

    void
    swap(FlatMap &o) noexcept
    {
        slots_.swap(o.slots_);
        values_.swap(o.values_);
        occupied_.swap(o.occupied_);
        std::swap(size_, o.size_);
    }

    /**
     * Reference view of one entry. Converts to pair<K, V> so ranges
     * of entries can be materialized (std::vector<value_type>(begin,
     * end)).
     */
    template <typename ValueT>
    struct Ref
    {
        const K &first;
        ValueT &second;

        operator value_type() const { return {first, second}; }
    };

    /** Iterator over occupied slots; dereferences to a Ref proxy. */
    template <typename MapT, typename ValueT>
    class Iter
    {
      public:
        // Dereferencing yields a proxy, not a true reference, so
        // this models an input iterator (enough for range-for and
        // range construction).
        using iterator_category = std::input_iterator_tag;
        using value_type = FlatMap::value_type;
        using difference_type = std::ptrdiff_t;
        using pointer = void;
        using reference = Ref<ValueT>;

        Iter(MapT *map, std::size_t slot) : map_(map), slot_(slot)
        {
            skipEmpty();
        }

        Ref<ValueT>
        operator*() const
        {
            return {map_->keyAt(slot_), map_->valueAt(slot_)};
        }

        /** Keeps the proxy alive for the full it->second expression. */
        struct Arrow
        {
            Ref<ValueT> ref;
            Ref<ValueT> *operator->() { return &ref; }
        };

        Arrow operator->() const { return Arrow{**this}; }

        Iter &
        operator++()
        {
            ++slot_;
            skipEmpty();
            return *this;
        }

        bool
        operator==(const Iter &o) const
        {
            return slot_ == o.slot_;
        }

      private:
        friend class FlatMap;

        void
        skipEmpty()
        {
            while (slot_ < map_->slots_.size() &&
                   !map_->occupied_[slot_])
                ++slot_;
        }

        MapT *map_;
        std::size_t slot_;
    };

    using iterator = Iter<FlatMap, V>;
    using const_iterator = Iter<const FlatMap, const V>;

    iterator begin() { return {this, 0}; }
    iterator end() { return {this, slots_.size()}; }
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, slots_.size()}; }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    void
    clear()
    {
        slots_.clear();
        values_.clear();
        occupied_.clear();
        size_ = 0;
    }

    iterator
    find(const K &key)
    {
        const std::size_t slot = findSlot(key);
        return {this, slot == kNone ? slots_.size() : slot};
    }

    const_iterator
    find(const K &key) const
    {
        const std::size_t slot = findSlot(key);
        return {this, slot == kNone ? slots_.size() : slot};
    }

    bool contains(const K &key) const { return findSlot(key) != kNone; }

    /**
     * Insert a value-initialized entry for @p key if absent.
     * @return {iterator to the entry, true iff it was inserted}.
     */
    std::pair<iterator, bool>
    try_emplace(const K &key)
    {
        reserveOne();
        std::size_t slot = probeFor(key);
        if (occupied_[slot])
            return {iterator{this, slot}, false};
        occupied_[slot] = true;
        // Unoccupied inline slots and unallocated arena entries always
        // hold value-initialized values (vector growth and new chunks
        // value-initialize, erase re-initializes), so only the key
        // (and the arena index) needs storing here.
        if constexpr (kArenaValues)
            slots_[slot] = {key, values_.acquire()};
        else
            slots_[slot] = key;
        ++size_;
        return {iterator{this, slot}, true};
    }

    V &
    operator[](const K &key)
    {
        return valueAt(try_emplace(key).first.slot_);
    }

    /** Remove @p key; returns the number of entries removed (0/1). */
    std::size_t
    erase(const K &key)
    {
        std::size_t slot = findSlot(key);
        if (slot == kNone)
            return 0;
        if constexpr (kArenaValues)
            values_.release(slots_[slot].index);
        // Backward-shift deletion: pull every displaced follower of
        // the probe chain one slot toward its home bucket.
        const std::size_t mask = slots_.size() - 1;
        std::size_t hole = slot;
        std::size_t next = (hole + 1) & mask;
        while (occupied_[next]) {
            const std::size_t home =
                static_cast<std::size_t>(Hash{}(keyAt(next))) & mask;
            // The entry may move iff the hole lies within its probe
            // path, i.e. between its home slot and its current slot.
            const std::size_t dist_home_next = (next - home) & mask;
            const std::size_t dist_home_hole = (hole - home) & mask;
            if (dist_home_hole <= dist_home_next) {
                slots_[hole] = slots_[next];
                if constexpr (!kArenaValues)
                    values_[hole] = std::move(values_[next]);
                hole = next;
            }
            next = (next + 1) & mask;
        }
        occupied_[hole] = false;
        slots_[hole] = Slot();
        if constexpr (!kArenaValues)
            values_[hole] = V();
        --size_;
        return 1;
    }

  private:
    static constexpr std::size_t kNone = ~std::size_t{0};
    static constexpr std::size_t kMinCapacity = 16;

    /** Arena layout: a key and its value's arena index. */
    struct ArenaSlot
    {
        K key{};
        std::uint32_t index = 0;
    };

    using Slot = std::conditional_t<kArenaValues, ArenaSlot, K>;
    using Values =
        std::conditional_t<kArenaValues, ValueArena<V>, std::vector<V>>;

    static const K &
    keyOf(const Slot &s)
    {
        if constexpr (kArenaValues)
            return s.key;
        else
            return s;
    }

    const K &keyAt(std::size_t slot) const { return keyOf(slots_[slot]); }

    /** Where the value of @p slot lives in values_. */
    std::size_t
    valueIndex(std::size_t slot) const
    {
        if constexpr (kArenaValues)
            return slots_[slot].index;
        else
            return slot;
    }

    V &valueAt(std::size_t slot) { return values_[valueIndex(slot)]; }

    const V &
    valueAt(std::size_t slot) const
    {
        return values_[valueIndex(slot)];
    }

    /** Slot of @p key, or kNone; capacity may be zero. */
    std::size_t
    findSlot(const K &key) const
    {
        if (slots_.empty())
            return kNone;
        const std::size_t mask = slots_.size() - 1;
        std::size_t slot = static_cast<std::size_t>(Hash{}(key)) & mask;
        while (occupied_[slot]) {
            if (keyAt(slot) == key)
                return slot;
            slot = (slot + 1) & mask;
        }
        return kNone;
    }

    /** First slot for @p key: its entry, or the empty slot to use. */
    std::size_t
    probeFor(const K &key) const
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t slot = static_cast<std::size_t>(Hash{}(key)) & mask;
        while (occupied_[slot] && keyAt(slot) != key)
            slot = (slot + 1) & mask;
        return slot;
    }

    /** Grow so one more entry keeps the load factor at most 1/2. */
    void
    reserveOne()
    {
        if (slots_.empty()) {
            slots_.resize(kMinCapacity);
            if constexpr (!kArenaValues)
                values_.resize(kMinCapacity);
            occupied_.assign(kMinCapacity, false);
            return;
        }
        if ((size_ + 1) * 2 <= slots_.size())
            return;
        std::vector<Slot> old_slots(slots_.size() * 2);
        std::vector<bool> old_occupied(old_slots.size(), false);
        old_slots.swap(slots_);
        old_occupied.swap(occupied_);
        std::vector<V> old_values;
        if constexpr (!kArenaValues) {
            old_values.resize(slots_.size());
            old_values.swap(values_);
        }
        for (std::size_t i = 0; i < old_slots.size(); ++i) {
            if (!old_occupied[i])
                continue;
            const std::size_t slot = probeFor(keyOf(old_slots[i]));
            occupied_[slot] = true;
            slots_[slot] = old_slots[i];
            if constexpr (!kArenaValues)
                values_[slot] = std::move(old_values[i]);
        }
    }

    /** Keys (inline layout) or keys with arena indices, per slot. */
    std::vector<Slot> slots_;
    /** Inline layout: values per slot. Arena layout: the arena. */
    Values values_;
    std::vector<bool> occupied_;
    std::size_t size_ = 0;
};

} // namespace amnt

#endif // AMNT_COMMON_FLAT_MAP_HH
