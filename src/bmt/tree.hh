/**
 * @file
 * Architectural (up-to-date) Bonsai Merkle Tree state.
 *
 * TreeState holds the *latest logical values* of every touched counter
 * block and tree node — the values the on-chip hardware would see
 * through its root-of-trust chain. The NVM device separately holds the
 * possibly-stale *persisted* values; which of the two a protocol keeps
 * in sync is exactly the metadata-persistence policy under study.
 *
 * Node hashes are maintained lazily, the way a write-back metadata
 * cache moves them: setCounter() only marks the entries on the path
 * to the root stale (an 8-bit mask per node), and every reader of
 * node bytes settles the stale entries beneath the node it reads
 * first. Pending staleness is never observable through the interface.
 *
 * Sparse convention: untouched blocks are all-zero and their hash
 * entry is 0, so only touched paths are materialized even for
 * terabyte-scale trees.
 */

#ifndef AMNT_BMT_TREE_HH
#define AMNT_BMT_TREE_HH

#include <cstdint>

#include "bmt/counters.hh"
#include "bmt/geometry.hh"
#include "common/flat_map.hh"
#include "crypto/engines.hh"
#include "mem/memory_map.hh"
#include "mem/nvm_device.hh"

namespace amnt::bmt
{

/** Up-to-date metadata values plus hash maintenance. */
class TreeState
{
  public:
    /**
     * @param map  Address layout (provides the geometry and the
     *             address tweaks that bind hashes to locations).
     * @param hash Keyed MAC engine; not owned.
     */
    TreeState(const mem::MemoryMap &map, const crypto::HashEngine &hash);

    /** Latest counter block for page @p idx (zero when untouched). */
    const CounterBlock &counter(std::uint64_t idx) const;

    /**
     * Store the counter for page @p idx and mark its hash entry, and
     * each ancestor's entry up to the first node already stale, for
     * settling on the next read. No hashing happens here.
     */
    void setCounter(std::uint64_t idx, const CounterBlock &value);

    /**
     * Latest bytes of node @p ref (zero block when untouched). The
     * reference stays valid until the next setCounter() or
     * rebuildFromNvm().
     */
    const mem::Block &node(NodeRef ref) const;

    /** 64-bit hash of the latest root node; 0 for an empty tree. */
    std::uint64_t rootHash() const;

    /** Hash entry value for counter @p idx (0 when zero block). */
    std::uint64_t hashCounterBytes(std::uint64_t idx,
                                   const mem::Block &bytes) const;

    /** Hash entry value for node bytes at @p ref (0 when zero). */
    std::uint64_t hashNodeBytes(NodeRef ref,
                                const mem::Block &bytes) const;

    /** Serialized latest counter block (zero block when untouched). */
    mem::Block counterBytes(std::uint64_t idx) const;

    /**
     * Verify bytes fetched from NVM for counter @p idx against the
     * hash entry stored in its (trusted) parent node.
     */
    bool verifyCounterBytes(std::uint64_t idx,
                            const mem::Block &bytes) const;

    /**
     * Verify node bytes fetched from NVM against the parent entry
     * (or the root register value for the root node).
     */
    bool verifyNodeBytes(NodeRef ref, const mem::Block &bytes) const;

    /** Number of materialized counter blocks. */
    std::size_t touchedCounters() const { return counters_.size(); }

    /** Number of materialized (non-zero) tree nodes. */
    std::size_t touchedNodes() const { return nodes_.size(); }

    /** Iterate all materialized nodes: visitor(ref, bytes). */
    void forEachNode(
        const std::function<void(NodeRef, const mem::Block &)> &visitor)
        const;

    /** Iterate all touched counters: visitor(idx, block). */
    void forEachCounter(
        const std::function<void(std::uint64_t, const CounterBlock &)>
            &visitor) const;

    /**
     * Rebuild the full architectural state from persisted counter
     * blocks in @p nvm (the leaf-persistence recovery computation).
     * Returns the recomputed root hash; the instance now reflects the
     * persisted counters.
     */
    std::uint64_t rebuildFromNvm(const mem::NvmDevice &nvm);

    /** Geometry shortcut. */
    const Geometry &geometry() const { return *geo_; }

  private:
    /** Node bytes plus the mask of entries not yet re-hashed. */
    struct NodeValue
    {
        mem::Block bytes{};
        std::uint8_t stale = 0;
    };

    /**
     * Re-hash the stale entries of @p n (node @p ref), settling each
     * stale child first. Never inserts, so slot order stays a
     * function of the write history.
     */
    void settle(NodeRef ref, NodeValue &n) const;

    /** Set entry @p slot of node @p ref to @p value. */
    void setEntry(NodeRef ref, unsigned slot, std::uint64_t value);

    /** Device address of node @p ref (cached-layout fast path). */
    Addr
    nodeAddr(NodeRef ref) const
    {
        return treeBase_ + (geo_->linearId(ref) << kBlockShift);
    }

    const mem::MemoryMap *map_;
    const crypto::HashEngine *hash_;

    // Layout values resolved once: every write walks the ancestor
    // path, so the per-access address math must be adds and shifts,
    // not virtual-free but pointer-hopping calls into MemoryMap.
    const Geometry *geo_;
    Addr counterBase_;
    Addr treeBase_;

    // Counters are serialized on demand (counterBytes()): with lazy
    // hashing a write neither hashes nor persists through this class,
    // so packing the 7-bit minors at every mutation would be waste.
    FlatMap<std::uint64_t, CounterBlock> counters_;
    // Keyed by linear node id. Settling rewrites entries through
    // const readers, hence mutable; insertion happens only in
    // setCounter() and rebuildFromNvm(), so slot order (and with it
    // forEachNode's order) is a function of the write history alone.
    mutable FlatMap<std::uint64_t, NodeValue> nodes_;
};

} // namespace amnt::bmt

#endif // AMNT_BMT_TREE_HH
