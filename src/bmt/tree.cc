#include "bmt/tree.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "common/bitops.hh"
#include "common/log.hh"

namespace amnt::bmt
{

namespace
{

const mem::Block kZeroBlock{};
const CounterBlock kZeroCounter{};

bool
isZeroBlock(const mem::Block &b)
{
    for (auto byte : b)
        if (byte != 0)
            return false;
    return true;
}

/**
 * Batched hash of @p n blocks with the zero-block -> 0 convention:
 * out[i] = mac64(blockOf(i), tweakOf(i)), zero blocks skipping the
 * MAC entirely, all real MACs in one mac64xN burst.
 */
template <typename BlockFn, typename TweakFn>
void
batchHash(const crypto::HashEngine &hash, std::size_t n,
          BlockFn &&blockOf, TweakFn &&tweakOf,
          std::vector<std::uint64_t> &out)
{
    out.assign(n, 0);
    std::vector<crypto::MacRequest> reqs;
    std::vector<std::size_t> pos;
    reqs.reserve(n);
    pos.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const mem::Block &b = blockOf(i);
        if (isZeroBlock(b))
            continue;
        reqs.push_back({b.data(), b.size(), tweakOf(i)});
        pos.push_back(i);
    }
    std::vector<std::uint64_t> macs(reqs.size());
    hash.mac64xN(reqs.data(), reqs.size(), macs.data());
    for (std::size_t j = 0; j < reqs.size(); ++j)
        out[pos[j]] = macs[j];
}

} // namespace

TreeState::TreeState(const mem::MemoryMap &map,
                     const crypto::HashEngine &hash)
    : map_(&map), hash_(&hash), geo_(&map.geometry()),
      counterBase_(map.counterBase()), treeBase_(map.treeBase())
{
}

const CounterBlock &
TreeState::counter(std::uint64_t idx) const
{
    auto it = counters_.find(idx);
    return it == counters_.end() ? kZeroCounter : it->second;
}

const mem::Block &
TreeState::node(NodeRef ref) const
{
    auto it = nodes_.find(geo_->linearId(ref));
    if (it == nodes_.end())
        return kZeroBlock;
    NodeValue &n = it->second;
    if (n.stale != 0)
        settle(ref, n);
    return n.bytes;
}

void
TreeState::settle(NodeRef ref, NodeValue &n) const
{
    // Gather every stale entry's input (children settled first), then
    // MAC the non-zero ones in one burst; zero blocks hash to 0.
    const bool deepest = ref.level == geo_->nodeLevels();
    mem::Block counter_bytes[kTreeArity]{};
    crypto::MacRequest reqs[kTreeArity]{};
    unsigned slots[kTreeArity]{};
    std::size_t nreq = 0;
    for (unsigned mask = n.stale; mask != 0; mask &= mask - 1) {
        const auto slot = static_cast<unsigned>(std::countr_zero(mask));
        const mem::Block *bytes = nullptr;
        Addr tweak = 0;
        if (deepest) {
            const std::uint64_t idx = ref.index * kTreeArity + slot;
            counter_bytes[slot] = counterBytes(idx);
            bytes = &counter_bytes[slot];
            tweak = counterBase_ + idx * kBlockSize;
        } else {
            const NodeRef child = geo_->childOf(ref, slot);
            bytes = &node(child);
            tweak = nodeAddr(child);
        }
        if (isZeroBlock(*bytes)) {
            store64le(n.bytes.data() + slot * kHashBytes, 0);
            continue;
        }
        reqs[nreq] = {bytes->data(), bytes->size(), tweak};
        slots[nreq++] = slot;
    }
    std::uint64_t macs[kTreeArity]{};
    hash_->mac64xN(reqs, nreq, macs);
    for (std::size_t i = 0; i < nreq; ++i)
        store64le(n.bytes.data() + slots[i] * kHashBytes, macs[i]);
    n.stale = 0;
}

std::uint64_t
TreeState::hashCounterBytes(std::uint64_t idx,
                            const mem::Block &bytes) const
{
    if (isZeroBlock(bytes))
        return 0;
    const Addr tweak = counterBase_ + idx * kBlockSize;
    return hash_->mac64(bytes.data(), bytes.size(), tweak);
}

std::uint64_t
TreeState::hashNodeBytes(NodeRef ref, const mem::Block &bytes) const
{
    if (isZeroBlock(bytes))
        return 0;
    return hash_->mac64(bytes.data(), bytes.size(), nodeAddr(ref));
}

mem::Block
TreeState::counterBytes(std::uint64_t idx) const
{
    auto it = counters_.find(idx);
    return it == counters_.end() ? kZeroBlock : it->second.serialize();
}

void
TreeState::setEntry(NodeRef ref, unsigned slot, std::uint64_t value)
{
    // try_emplace value-initializes fresh blocks to all-zero.
    auto it = nodes_.try_emplace(geo_->linearId(ref)).first;
    store64le(it->second.bytes.data() + slot * kHashBytes, value);
}

void
TreeState::setCounter(std::uint64_t idx, const CounterBlock &value)
{
    counters_[idx] = value;
    // Mark leaf to root. A node that was already stale has its own
    // entry marked in every ancestor, so the walk stops there. Fresh
    // nodes are inserted leaf first, as an eager path update would.
    NodeRef ref = geo_->leafNodeOf(idx);
    unsigned slot = static_cast<unsigned>(idx % kTreeArity);
    while (true) {
        NodeValue &n =
            nodes_.try_emplace(geo_->linearId(ref)).first->second;
        const bool was_stale = n.stale != 0;
        n.stale |= static_cast<std::uint8_t>(1u << slot);
        if (was_stale || ref.level == 1)
            return;
        slot = Geometry::slotOf(ref);
        ref = Geometry::parentOf(ref);
    }
}

std::uint64_t
TreeState::rootHash() const
{
    return hashNodeBytes({1, 0}, node({1, 0}));
}

bool
TreeState::verifyCounterBytes(std::uint64_t idx,
                              const mem::Block &bytes) const
{
    const NodeRef parent = map_->geometry().leafNodeOf(idx);
    const std::uint64_t stored = load64le(
        node(parent).data() + (idx % kTreeArity) * kHashBytes);
    return hashCounterBytes(idx, bytes) == stored;
}

bool
TreeState::verifyNodeBytes(NodeRef ref, const mem::Block &bytes) const
{
    if (ref.level == 1)
        return hashNodeBytes(ref, bytes) == rootHash();
    const NodeRef parent = Geometry::parentOf(ref);
    const std::uint64_t stored = load64le(
        node(parent).data() + Geometry::slotOf(ref) * kHashBytes);
    return hashNodeBytes(ref, bytes) == stored;
}

void
TreeState::forEachCounter(
    const std::function<void(std::uint64_t, const CounterBlock &)>
        &visitor) const
{
    for (const auto &kv : counters_)
        visitor(kv.first, kv.second);
}

void
TreeState::forEachNode(
    const std::function<void(NodeRef, const mem::Block &)> &visitor) const
{
    for (const auto &kv : nodes_) {
        const NodeRef ref = geo_->nodeOfLinearId(kv.first);
        if (kv.second.stale != 0)
            settle(ref, kv.second);
        visitor(ref, kv.second.bytes);
    }
}

std::uint64_t
TreeState::rebuildFromNvm(const mem::NvmDevice &nvm)
{
    counters_.clear();
    nodes_.clear();
    const Addr lo = map_->counterBase();
    const Addr hi = map_->hmacBase();
    std::vector<std::uint64_t> idxs;
    nvm.forEachBlockIn(lo, hi,
                       [this, lo, &idxs](Addr addr, const mem::Block &b) {
        const std::uint64_t idx = (addr - lo) / kBlockSize;
        counters_[idx] = CounterBlock::deserialize(b);
        idxs.push_back(idx);
    });
    std::sort(idxs.begin(), idxs.end());
    // Re-serialize rather than hashing the raw persisted bytes: the
    // hash chain must be computed over the canonical encoding, exactly
    // as settling the pre-crash tree did (tampered non-canonical bytes
    // must not leak into the rebuilt tree).
    std::vector<mem::Block> bytes;
    bytes.reserve(idxs.size());
    for (std::uint64_t idx : idxs)
        bytes.push_back(counters_.find(idx)->second.serialize());

    // Level-by-level rebuild: every entry of a level is final before
    // the level itself is hashed, so each touched node is MACed
    // exactly once, and each level's hashes go through one batched
    // mac64xN burst. The rebuilt tree has no stale entries.
    const unsigned deepest = geo_->nodeLevels();

    // Counter leaves -> deepest node level.
    {
        std::vector<std::uint64_t> macs;
        batchHash(
            *hash_, idxs.size(),
            [&bytes](std::size_t i) -> const mem::Block & {
                return bytes[i];
            },
            [this, &idxs](std::size_t i) {
                return counterBase_ + idxs[i] * kBlockSize;
            },
            macs);
        for (std::size_t i = 0; i < idxs.size(); ++i)
            setEntry(geo_->leafNodeOf(idxs[i]),
                     static_cast<unsigned>(idxs[i] % kTreeArity),
                     macs[i]);
    }

    // Touched node indices at the current level, sorted and unique.
    std::vector<std::uint64_t> level_idx;
    level_idx.reserve(idxs.size());
    for (std::uint64_t idx : idxs)
        level_idx.push_back(geo_->leafNodeOf(idx).index);
    level_idx.erase(std::unique(level_idx.begin(), level_idx.end()),
                    level_idx.end());

    for (unsigned level = deepest; level > 1; --level) {
        std::vector<std::uint64_t> macs;
        batchHash(
            *hash_, level_idx.size(),
            [this, level, &level_idx](std::size_t i)
                -> const mem::Block & {
                return node({level, level_idx[i]});
            },
            [this, level, &level_idx](std::size_t i) {
                return nodeAddr({level, level_idx[i]});
            },
            macs);
        for (std::size_t i = 0; i < level_idx.size(); ++i) {
            const NodeRef ref{level, level_idx[i]};
            setEntry(Geometry::parentOf(ref), Geometry::slotOf(ref),
                     macs[i]);
        }
        for (auto &idx : level_idx)
            idx /= kTreeArity;
        level_idx.erase(
            std::unique(level_idx.begin(), level_idx.end()),
            level_idx.end());
    }
    return rootHash();
}

} // namespace amnt::bmt
