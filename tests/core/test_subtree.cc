#include <gtest/gtest.h>

#include "core/amnt.hh"
#include "mee/mee_test_util.hh"

namespace amnt
{
namespace
{

using test::Rig;

core::AmntStrategy &
amnt(Rig &rig)
{
    return static_cast<core::AmntStrategy &>(rig.engine->strategy());
}

mee::MeeConfig
amntConfig(unsigned level = 2, unsigned interval = 64)
{
    mee::MeeConfig cfg = test::smallConfig();
    cfg.dataBytes = 2ull << 20; // 512 counters = 8^3, 3 node levels
    cfg.amntSubtreeLevel = level; // level 2: 8 regions x 64 counters
    cfg.amntInterval = interval;
    return cfg;
}

TEST(Subtree, MembershipFollowsRegionArithmetic)
{
    Rig rig(mee::Protocol::Amnt, amntConfig());
    auto &e = amnt(rig);
    EXPECT_EQ(e.currentRegion(), 0ull);
    EXPECT_TRUE(e.inFastSubtree(0));
    EXPECT_TRUE(e.inFastSubtree(63));
    EXPECT_FALSE(e.inFastSubtree(64));
}

TEST(Subtree, WritesInsideAreHitsOutsideAreMisses)
{
    Rig rig(mee::Protocol::Amnt, amntConfig(2, 1 << 30));
    for (int i = 0; i < 10; ++i)
        test::writePattern(*rig.engine, i * 4096, i); // region 0
    for (int i = 0; i < 4; ++i)
        test::writePattern(*rig.engine, (200 + i) * 4096, i); // region 1
    EXPECT_EQ(rig.engine->stats().get("subtree_hits"), 10ull);
    EXPECT_EQ(rig.engine->stats().get("subtree_misses"), 4ull);
    EXPECT_NEAR(amnt(rig).subtreeHitRate(), 10.0 / 14.0, 1e-9);
}

TEST(Subtree, BootstrapAdoptsFirstWrittenRegionForFree)
{
    Rig rig(mee::Protocol::Amnt, amntConfig(2, 64));
    auto &e = amnt(rig);
    // The register initializes on first use: no flush, no movement.
    test::writePattern(*rig.engine, 200 * 4096, 1); // region 3
    EXPECT_EQ(e.currentRegion(), 3ull);
    EXPECT_EQ(e.movements(), 0ull);
    EXPECT_EQ(rig.engine->stats().get("subtree_hits"), 1ull);
}

TEST(Subtree, MovesToHotRegionAfterInterval)
{
    Rig rig(mee::Protocol::Amnt, amntConfig(2, 64));
    auto &e = amnt(rig);
    // Bootstrap into region 0, then hammer region 3: after the next
    // full interval the head of the history buffer wins.
    test::writePattern(*rig.engine, 0, 0);
    for (int i = 0; i < 128; ++i)
        test::writePattern(*rig.engine, (192 + i % 16) * 4096, i);
    EXPECT_EQ(e.currentRegion(), 3ull);
    EXPECT_EQ(e.movements(), 1ull);
}

TEST(Subtree, StaysWhenIncumbentIsHottest)
{
    Rig rig(mee::Protocol::Amnt, amntConfig(2, 64));
    auto &e = amnt(rig);
    for (int i = 0; i < 256; ++i)
        test::writePattern(*rig.engine, (i % 32) * 4096, i); // region 0
    EXPECT_EQ(e.currentRegion(), 0ull);
    EXPECT_EQ(e.movements(), 0ull);
}

TEST(Subtree, MovementFlushesOldSubtree)
{
    Rig rig(mee::Protocol::Amnt, amntConfig(2, 64));
    // Dirty up region 0, then shift the workload to region 5.
    for (int i = 0; i < 32; ++i)
        test::writePattern(*rig.engine, (i % 16) * 4096, i);
    for (int i = 0; i < 96; ++i)
        test::writePattern(*rig.engine, (320 + i % 16) * 4096, i);
    ASSERT_EQ(amnt(rig).currentRegion(), 5ull);
    EXPECT_GT(rig.engine->stats().get("movement_flush_writes"), 0ull);

    // Keep writing in the new region so fresh dirty state exists.
    for (int i = 0; i < 16; ++i)
        test::writePattern(*rig.engine, (328 + i % 8) * 4096, 500 + i);

    // After the move, everything stale must be inside region 5's
    // subtree or on its (register-anchored) ancestor path.
    const auto root = amnt(rig).subtreeRoot();
    for (Addr a : rig.engine->staleMetadataBlocks()) {
        ASSERT_EQ(rig.engine->map().classify(a), mem::Region::Tree);
        const bmt::NodeRef ref = rig.engine->map().nodeOfAddr(a);
        EXPECT_TRUE(bmt::Geometry::inSubtree(ref, root) ||
                    bmt::Geometry::inSubtree(root, ref));
    }
}

TEST(Subtree, RegisterTracksSubtreeRootNode)
{
    Rig rig(mee::Protocol::Amnt, amntConfig(2, 64));
    auto &e = amnt(rig);
    const bmt::TreeState &tree = rig.engine->treeState();
    for (int i = 0; i < 8; ++i)
        test::writePattern(*rig.engine, i * 4096, i); // region 0
    const auto root = e.subtreeRoot();
    EXPECT_EQ(root.level, 2u);
    EXPECT_EQ(root.index, 0ull);
    const mem::Block inside = e.subtreeRegister();
    EXPECT_NE(inside, mem::Block{});
    EXPECT_EQ(inside, tree.node(root));

    // An outside write leaves the register alone.
    test::writePattern(*rig.engine, 200 * 4096, 8); // region 3
    EXPECT_EQ(e.subtreeRegister(), inside);

    // Movement retargets it to the new subtree root.
    for (int i = 0; i < 64; ++i)
        test::writePattern(*rig.engine, (192 + i % 16) * 4096, 9 + i);
    ASSERT_EQ(e.currentRegion(), 3ull);
    EXPECT_EQ(e.subtreeRegister(), tree.node(e.subtreeRoot()));
    EXPECT_NE(e.subtreeRegister(), inside);

    // Crash and recovery keep the pre-crash value.
    const mem::Block before_crash = e.subtreeRegister();
    rig.engine->crash();
    EXPECT_EQ(e.subtreeRegister(), before_crash);
    ASSERT_TRUE(rig.engine->recover().success);
    EXPECT_EQ(e.subtreeRegister(), before_crash);
    EXPECT_EQ(rig.engine->treeState().node(e.subtreeRoot()),
              before_crash);

    // The next inside write makes the register live again.
    test::writePattern(*rig.engine, 193 * 4096, 100);
    EXPECT_NE(e.subtreeRegister(), before_crash);
    EXPECT_EQ(e.subtreeRegister(),
              rig.engine->treeState().node(e.subtreeRoot()));
}

TEST(Subtree, RegisterKeepsPreCrashValueThroughFailedRecovery)
{
    Rig rig(mee::Protocol::Amnt, amntConfig(2, 1 << 30));
    auto &e = amnt(rig);
    for (int i = 0; i < 4; ++i)
        test::writePattern(*rig.engine, i * 4096, i); // region 0
    const mem::Block before_crash = e.subtreeRegister();
    rig.engine->crash();
    // A tampered in-subtree counter changes the rebuilt subtree root;
    // the register must still hold the value it had at the crash.
    const Addr counter2 =
        rig.engine->map().counterBase() + 2 * kBlockSize;
    ASSERT_TRUE(rig.nvm->tamper(counter2, 3, 0x10));
    EXPECT_FALSE(rig.engine->recover().success);
    EXPECT_EQ(e.subtreeRegister(), before_crash);
    EXPECT_NE(rig.engine->treeState().node(e.subtreeRoot()),
              before_crash);
}

TEST(Subtree, LevelValidation)
{
    mee::MeeConfig cfg = test::smallConfig();
    cfg.amntSubtreeLevel = 3; // valid for 4 node levels
    mem::NvmDevice nvm(mem::MemoryMap(cfg.dataBytes).deviceBytes());
    EXPECT_NO_THROW(core::makeEngine(mee::Protocol::Amnt, cfg, nvm));
}

} // namespace
} // namespace amnt
