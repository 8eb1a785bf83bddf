/**
 * @file
 * Slow reference for FlatMap: the map as it was before large values
 * moved into a ValueArena. Keys and values live in parallel slot
 * arrays for every value size, so each rehash and backward shift
 * moves values. The hash, probe sequence, growth trigger and deletion
 * are FlatMap's, so both maps must agree entry for entry and in
 * iteration order after any sequence of operations
 * (test_flat_map.cc drives them side by side).
 */

#ifndef AMNT_TESTS_COMMON_REFERENCE_FLAT_MAP_HH
#define AMNT_TESTS_COMMON_REFERENCE_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "common/flat_map.hh"

namespace amnt::test
{

/**
 * Open-addressing map from an integer key to @p V, every value inline.
 * @tparam K Key type (an unsigned integer type).
 * @tparam V Mapped type; value-initialized by operator[]/try_emplace.
 * @tparam Hash Hasher; must mix low bits (see U64Mix).
 */
template <typename K, typename V, typename Hash = U64Mix>
class ReferenceFlatMap
{
  public:
    using value_type = std::pair<K, V>;

    ReferenceFlatMap() = default;

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
        using value_type = ReferenceFlatMap::value_type;
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
            return {map_->keys_[slot_], map_->values_[slot_]};
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
        friend class ReferenceFlatMap;

        void
        skipEmpty()
        {
            while (slot_ < map_->keys_.size() &&
                   !map_->occupied_[slot_])
                ++slot_;
        }

        MapT *map_;
        std::size_t slot_;
    };

    using iterator = Iter<ReferenceFlatMap, V>;
    using const_iterator = Iter<const ReferenceFlatMap, const V>;

    iterator begin() { return {this, 0}; }
    iterator end() { return {this, keys_.size()}; }
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, keys_.size()}; }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    void
    clear()
    {
        keys_.clear();
        values_.clear();
        occupied_.clear();
        size_ = 0;
    }

    iterator
    find(const K &key)
    {
        const std::size_t slot = findSlot(key);
        return {this, slot == kNone ? keys_.size() : slot};
    }

    const_iterator
    find(const K &key) const
    {
        const std::size_t slot = findSlot(key);
        return {this, slot == kNone ? keys_.size() : slot};
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
        // Unoccupied slots always hold value-initialized entries
        // (vector growth value-initializes, erase re-initializes the
        // vacated slot), so only the key needs storing here.
        keys_[slot] = key;
        ++size_;
        return {iterator{this, slot}, true};
    }

    V &
    operator[](const K &key)
    {
        return values_[try_emplace(key).first.slot_];
    }

    /** Remove @p key; returns the number of entries removed (0/1). */
    std::size_t
    erase(const K &key)
    {
        std::size_t slot = findSlot(key);
        if (slot == kNone)
            return 0;
        // Backward-shift deletion: pull every displaced follower of
        // the probe chain one slot toward its home bucket.
        const std::size_t mask = keys_.size() - 1;
        std::size_t hole = slot;
        std::size_t next = (hole + 1) & mask;
        while (occupied_[next]) {
            const std::size_t home =
                static_cast<std::size_t>(Hash{}(keys_[next])) & mask;
            // The entry may move iff the hole lies within its probe
            // path, i.e. between its home slot and its current slot.
            const std::size_t dist_home_next = (next - home) & mask;
            const std::size_t dist_home_hole = (hole - home) & mask;
            if (dist_home_hole <= dist_home_next) {
                keys_[hole] = keys_[next];
                values_[hole] = std::move(values_[next]);
                hole = next;
            }
            next = (next + 1) & mask;
        }
        occupied_[hole] = false;
        keys_[hole] = K();
        values_[hole] = V();
        --size_;
        return 1;
    }

  private:
    static constexpr std::size_t kNone = ~std::size_t{0};
    static constexpr std::size_t kMinCapacity = 16;

    /** Slot of @p key, or kNone; capacity may be zero. */
    std::size_t
    findSlot(const K &key) const
    {
        if (keys_.empty())
            return kNone;
        const std::size_t mask = keys_.size() - 1;
        std::size_t slot = static_cast<std::size_t>(Hash{}(key)) & mask;
        while (occupied_[slot]) {
            if (keys_[slot] == key)
                return slot;
            slot = (slot + 1) & mask;
        }
        return kNone;
    }

    /** First slot for @p key: its entry, or the empty slot to use. */
    std::size_t
    probeFor(const K &key) const
    {
        const std::size_t mask = keys_.size() - 1;
        std::size_t slot = static_cast<std::size_t>(Hash{}(key)) & mask;
        while (occupied_[slot] && keys_[slot] != key)
            slot = (slot + 1) & mask;
        return slot;
    }

    /** Grow so one more entry keeps the load factor at most 1/2. */
    void
    reserveOne()
    {
        if (keys_.empty()) {
            keys_.resize(kMinCapacity);
            values_.resize(kMinCapacity);
            occupied_.assign(kMinCapacity, false);
            return;
        }
        if ((size_ + 1) * 2 <= keys_.size())
            return;
        std::vector<K> old_keys(keys_.size() * 2);
        std::vector<V> old_values(old_keys.size());
        std::vector<bool> old_occupied(old_keys.size(), false);
        old_keys.swap(keys_);
        old_values.swap(values_);
        old_occupied.swap(occupied_);
        for (std::size_t i = 0; i < old_keys.size(); ++i) {
            if (!old_occupied[i])
                continue;
            const std::size_t slot = probeFor(old_keys[i]);
            occupied_[slot] = true;
            keys_[slot] = old_keys[i];
            values_[slot] = std::move(old_values[i]);
        }
    }

    std::vector<K> keys_;
    std::vector<V> values_;
    std::vector<bool> occupied_;
    std::size_t size_ = 0;
};

} // namespace amnt::test

#endif // AMNT_TESTS_COMMON_REFERENCE_FLAT_MAP_HH
