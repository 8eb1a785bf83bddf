#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "bmt/tree.hh"
#include "common/bitops.hh"
#include "common/flat_map.hh"
#include "common/rng.hh"
#include "crypto/engines.hh"
#include "mem/memory_map.hh"
#include "mem/nvm_device.hh"

namespace amnt::bmt
{
namespace
{

class TreeTest : public ::testing::Test
{
  protected:
    TreeTest()
        : map_(4ull << 20), // 4 MB data -> 1024 counters, 4 levels
          suite_(crypto::CryptoSuite::make(crypto::CryptoPlane::Fast,
                                           7)),
          tree_(map_, *suite_.hash)
    {
    }

    mem::MemoryMap map_;
    crypto::CryptoSuite suite_;
    TreeState tree_;
};

TEST_F(TreeTest, EmptyTreeHasZeroRoot)
{
    EXPECT_EQ(tree_.rootHash(), 0ull);
    EXPECT_TRUE(tree_.counter(5).isZero());
}

TEST_F(TreeTest, CounterUpdatePropagatesToRoot)
{
    CounterBlock cb;
    cb.increment(0);
    tree_.setCounter(17, cb);
    const std::uint64_t r1 = tree_.rootHash();
    EXPECT_NE(r1, 0ull);

    cb.increment(0);
    tree_.setCounter(17, cb);
    EXPECT_NE(tree_.rootHash(), r1);
}

TEST_F(TreeTest, IndependentCountersBothInfluenceRoot)
{
    CounterBlock a;
    a.increment(1);
    tree_.setCounter(0, a);
    const std::uint64_t r1 = tree_.rootHash();
    tree_.setCounter(1023, a);
    const std::uint64_t r2 = tree_.rootHash();
    EXPECT_NE(r1, r2);
}

TEST_F(TreeTest, VerifyCounterBytes)
{
    CounterBlock cb;
    cb.increment(9);
    tree_.setCounter(42, cb);
    EXPECT_TRUE(tree_.verifyCounterBytes(42, tree_.counterBytes(42)));

    mem::Block forged = tree_.counterBytes(42);
    forged[10] ^= 0x01;
    EXPECT_FALSE(tree_.verifyCounterBytes(42, forged));
}

TEST_F(TreeTest, VerifyNodeBytes)
{
    CounterBlock cb;
    cb.increment(0);
    tree_.setCounter(100, cb);
    const NodeRef leaf = map_.geometry().leafNodeOf(100);
    EXPECT_TRUE(tree_.verifyNodeBytes(leaf, tree_.node(leaf)));

    mem::Block forged = tree_.node(leaf);
    forged[0] ^= 0x80;
    EXPECT_FALSE(tree_.verifyNodeBytes(leaf, forged));

    // Root verifies against its own hash.
    EXPECT_TRUE(tree_.verifyNodeBytes({1, 0}, tree_.node({1, 0})));
}

TEST_F(TreeTest, OnlyPathNodesMaterialize)
{
    CounterBlock cb;
    cb.increment(0);
    tree_.setCounter(0, cb);
    EXPECT_EQ(tree_.touchedCounters(), 1ull);
    // One node per level on the path.
    EXPECT_EQ(tree_.touchedNodes(), map_.geometry().nodeLevels());
}

TEST_F(TreeTest, RebuildFromNvmReproducesRoot)
{
    CounterBlock cb;
    for (std::uint64_t idx : {0ull, 5ull, 63ull, 64ull, 1000ull}) {
        cb.increment(static_cast<unsigned>(idx % 64));
        tree_.setCounter(idx, cb);
    }
    const std::uint64_t live_root = tree_.rootHash();

    // Persist every counter, then rebuild a fresh tree from NVM.
    mem::NvmDevice nvm(map_.deviceBytes());
    tree_.forEachCounter(
        [&](std::uint64_t idx, const CounterBlock &c) {
            nvm.writeBlock(map_.counterBase() + idx * kBlockSize,
                           c.serialize());
        });
    TreeState rebuilt(map_, *suite_.hash);
    EXPECT_EQ(rebuilt.rebuildFromNvm(nvm), live_root);
    EXPECT_EQ(rebuilt.touchedCounters(), 5ull);
}

TEST_F(TreeTest, RebuildDetectsTamperedCounter)
{
    CounterBlock cb;
    cb.increment(0);
    tree_.setCounter(7, cb);
    const std::uint64_t live_root = tree_.rootHash();

    mem::NvmDevice nvm(map_.deviceBytes());
    nvm.writeBlock(map_.counterBase() + 7 * kBlockSize,
                   tree_.counterBytes(7));
    nvm.tamper(map_.counterBase() + 7 * kBlockSize, 3, 0xff);

    TreeState rebuilt(map_, *suite_.hash);
    EXPECT_NE(rebuilt.rebuildFromNvm(nvm), live_root);
}

TEST_F(TreeTest, DifferentKeysDifferentRoots)
{
    crypto::CryptoSuite other =
        crypto::CryptoSuite::make(crypto::CryptoPlane::Fast, 8);
    TreeState t2(map_, *other.hash);
    CounterBlock cb;
    cb.increment(0);
    tree_.setCounter(0, cb);
    t2.setCounter(0, cb);
    EXPECT_NE(tree_.rootHash(), t2.rootHash());
}

/**
 * Slow reference for TreeState: every setCounter re-hashes the whole
 * path from the counter to the root, eagerly, with one try_emplace per
 * path node. Its node map therefore has the slot layout the lazy tree
 * must reproduce.
 */
class EagerTree
{
  public:
    EagerTree(const mem::MemoryMap &map, const crypto::HashEngine &hash)
        : map_(map), hash_(hash)
    {
    }

    void
    setCounter(std::uint64_t idx, const CounterBlock &value)
    {
        counters_[idx] = value;
        updatePath(idx, true);
    }

    /**
     * The persisted-counter rebuild: same try_emplace sequence as
     * TreeState::rebuildFromNvm (deepest level in index order, then
     * each parent level), values recomputed afterwards in place.
     */
    void
    rebuildFromNvm(const mem::NvmDevice &nvm)
    {
        counters_.clear();
        nodes_.clear();
        std::vector<std::uint64_t> idxs;
        nvm.forEachBlockIn(map_.counterBase(), map_.hmacBase(),
                           [&](Addr a, const mem::Block &b) {
            const std::uint64_t idx =
                (a - map_.counterBase()) / kBlockSize;
            counters_[idx] = CounterBlock::deserialize(b);
            idxs.push_back(idx);
        });
        std::sort(idxs.begin(), idxs.end());
        const Geometry &geo = map_.geometry();
        std::vector<NodeRef> level;
        for (std::uint64_t idx : idxs) {
            const NodeRef leaf = geo.leafNodeOf(idx);
            nodes_.try_emplace(geo.linearId(leaf));
            if (level.empty() || level.back() != leaf)
                level.push_back(leaf);
        }
        while (!level.empty() && level.front().level > 1) {
            std::vector<NodeRef> up;
            for (const NodeRef &ref : level) {
                const NodeRef parent = Geometry::parentOf(ref);
                nodes_.try_emplace(geo.linearId(parent));
                if (up.empty() || up.back() != parent)
                    up.push_back(parent);
            }
            level = std::move(up);
        }
        for (std::uint64_t idx : idxs)
            updatePath(idx, false);
    }

    mem::Block
    counterBytes(std::uint64_t idx) const
    {
        auto it = counters_.find(idx);
        return it == counters_.end() ? mem::Block{}
                                     : it->second.serialize();
    }

    mem::Block
    node(NodeRef ref) const
    {
        auto it = nodes_.find(map_.geometry().linearId(ref));
        return it == nodes_.end() ? mem::Block{} : it->second;
    }

    std::uint64_t
    rootHash() const
    {
        return mac(node({1, 0}), map_.nodeAddrOf({1, 0}));
    }

    bool
    verifyCounterBytes(std::uint64_t idx, const mem::Block &bytes) const
    {
        const NodeRef parent = map_.geometry().leafNodeOf(idx);
        return mac(bytes, counterAddr(idx)) ==
               load64le(node(parent).data() +
                        (idx % kTreeArity) * kHashBytes);
    }

    bool
    verifyNodeBytes(NodeRef ref, const mem::Block &bytes) const
    {
        const std::uint64_t h = mac(bytes, map_.nodeAddrOf(ref));
        if (ref.level == 1)
            return h == rootHash();
        return h == load64le(node(Geometry::parentOf(ref)).data() +
                             Geometry::slotOf(ref) * kHashBytes);
    }

    /** Every node in visit order, with its bytes. */
    std::vector<std::pair<std::uint64_t, mem::Block>>
    nodes() const
    {
        std::vector<std::pair<std::uint64_t, mem::Block>> out;
        for (const auto &kv : nodes_)
            out.emplace_back(kv.first, kv.second);
        return out;
    }

    std::size_t touchedNodes() const { return nodes_.size(); }

  private:
    /**
     * Re-hash counter @p idx's entry and every ancestor's, deepest
     * first; @p insert creates missing nodes (one try_emplace each).
     */
    void
    updatePath(std::uint64_t idx, bool insert)
    {
        NodeRef ref = map_.geometry().leafNodeOf(idx);
        setEntry(ref, static_cast<unsigned>(idx % kTreeArity),
                 mac(counterBytes(idx), counterAddr(idx)), insert);
        while (ref.level > 1) {
            const NodeRef parent = Geometry::parentOf(ref);
            setEntry(parent, Geometry::slotOf(ref),
                     mac(node(ref), map_.nodeAddrOf(ref)), insert);
            ref = parent;
        }
    }

    Addr
    counterAddr(std::uint64_t idx) const
    {
        return map_.counterBase() + idx * kBlockSize;
    }

    std::uint64_t
    mac(const mem::Block &bytes, Addr tweak) const
    {
        for (auto byte : bytes)
            if (byte != 0)
                return hash_.mac64(bytes.data(), bytes.size(), tweak);
        return 0;
    }

    void
    setEntry(NodeRef ref, unsigned slot, std::uint64_t value, bool insert)
    {
        const std::uint64_t id = map_.geometry().linearId(ref);
        mem::Block &b = insert ? nodes_.try_emplace(id).first->second
                               : nodes_.find(id)->second;
        store64le(b.data() + slot * kHashBytes, value);
    }

    const mem::MemoryMap &map_;
    const crypto::HashEngine &hash_;
    FlatMap<std::uint64_t, CounterBlock> counters_;
    FlatMap<std::uint64_t, mem::Block> nodes_;
};

/** Every node of @p tree in forEachNode order, with its bytes. */
std::vector<std::pair<std::uint64_t, mem::Block>>
visitOrder(const TreeState &tree)
{
    std::vector<std::pair<std::uint64_t, mem::Block>> out;
    tree.forEachNode([&](NodeRef ref, const mem::Block &b) {
        out.emplace_back(tree.geometry().linearId(ref), b);
    });
    return out;
}

/**
 * Drive seeded random interleavings of writes, reads, full walks,
 * persists and rebuilds through the lazy tree and the eager
 * reference. After every observation the full state is compared on a
 * copy of the lazy tree, so the original keeps whatever partially
 * settled state the observation left behind.
 */
void
runAgainstReference(std::uint64_t data_bytes, std::uint64_t seed,
                    int ops)
{
    const mem::MemoryMap map(data_bytes);
    const crypto::CryptoSuite suite =
        crypto::CryptoSuite::make(crypto::CryptoPlane::Fast, seed);
    const Geometry &geo = map.geometry();
    const std::uint64_t counters = data_bytes / kPageSize;
    TreeState lazy(map, *suite.hash);
    EagerTree ref(map, *suite.hash);
    mem::NvmDevice nvm(map.deviceBytes());
    Rng rng(seed);

    std::vector<std::uint64_t> written;
    auto pickCounter = [&]() -> std::uint64_t {
        const std::uint64_t kind = rng.below(4);
        if (written.empty() || kind == 0)
            return rng.below(counters); // fresh (or repeated by chance)
        const std::uint64_t near =
            written[rng.below(written.size())];
        if (kind == 1)
            return near; // repeated
        // Shares the leaf node (kind 2) or a level-2 ancestor (kind 3).
        const std::uint64_t span = kind == 2 ? kTreeArity
                                             : kTreeArity * kTreeArity;
        const std::uint64_t base = near - near % span;
        return std::min(counters - 1, base + rng.below(span));
    };
    auto pickNode = [&]() -> NodeRef {
        const std::uint64_t idx = written.empty()
                                      ? rng.below(counters)
                                      : written[rng.below(written.size())];
        const unsigned level =
            1 + static_cast<unsigned>(rng.below(geo.nodeLevels()));
        return geo.ancestorOf(idx, level);
    };
    auto checkAll = [&](int op) {
        TreeState probe = lazy;
        ASSERT_EQ(probe.touchedNodes(), ref.touchedNodes()) << "op " << op;
        ASSERT_EQ(probe.rootHash(), ref.rootHash()) << "op " << op;
        ASSERT_EQ(visitOrder(probe), ref.nodes()) << "op " << op;
    };

    for (int op = 0; op < ops; ++op) {
        const std::uint64_t what = rng.below(16);
        if (what < 8) {
            const std::uint64_t idx = pickCounter();
            CounterBlock cb = lazy.counter(idx);
            if (rng.below(32) == 0) {
                cb = CounterBlock{}; // hashes to a zero entry
            } else if (cb.increment(
                           static_cast<unsigned>(rng.below(64)))) {
                cb.overflowReset();
            }
            lazy.setCounter(idx, cb);
            ref.setCounter(idx, cb);
            written.push_back(idx);
            continue; // a write observes nothing
        }
        switch (what) {
          case 8:
          case 9: {
              const NodeRef n = pickNode();
              ASSERT_EQ(lazy.node(n), ref.node(n)) << "op " << op;
              break;
          }
          case 10:
              ASSERT_EQ(lazy.rootHash(), ref.rootHash()) << "op " << op;
              break;
          case 11: {
              const std::uint64_t idx = pickCounter();
              mem::Block bytes = ref.counterBytes(idx);
              if (rng.below(2) == 0)
                  bytes[rng.below(kBlockSize)] ^= 0x01;
              ASSERT_EQ(lazy.verifyCounterBytes(idx, bytes),
                        ref.verifyCounterBytes(idx, bytes))
                  << "op " << op;
              break;
          }
          case 12: {
              const NodeRef n = pickNode();
              mem::Block bytes = ref.node(n);
              if (rng.below(2) == 0)
                  bytes[rng.below(kBlockSize)] ^= 0x01;
              ASSERT_EQ(lazy.verifyNodeBytes(n, bytes),
                        ref.verifyNodeBytes(n, bytes))
                  << "op " << op;
              break;
          }
          case 13:
              ASSERT_EQ(visitOrder(lazy), ref.nodes()) << "op " << op;
              break;
          case 14: {
              // Persist a written counter (what rebuilds will see).
              if (written.empty())
                  continue;
              const std::uint64_t idx =
                  written[rng.below(written.size())];
              nvm.writeBlock(map.counterBase() + idx * kBlockSize,
                             lazy.counterBytes(idx));
              continue;
          }
          default: {
              if (rng.below(4) != 0)
                  continue; // keep rebuilds rarer than the rest
              const std::uint64_t root = lazy.rebuildFromNvm(nvm);
              ref.rebuildFromNvm(nvm);
              ASSERT_EQ(root, ref.rootHash()) << "op " << op;
              written.clear();
              lazy.forEachCounter(
                  [&](std::uint64_t idx, const CounterBlock &) {
                      written.push_back(idx);
                  });
              break;
          }
        }
        ASSERT_EQ(lazy.touchedNodes(), ref.touchedNodes()) << "op " << op;
        checkAll(op);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    checkAll(ops);
}

TEST(TreeReference, LazyTreeMatchesEagerReference)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE(seed);
        runAgainstReference(4ull << 20, seed, 3000); // 4 node levels
        runAgainstReference(2ull << 20, seed, 1500); // 3 node levels
    }
}

} // namespace
} // namespace amnt::bmt
