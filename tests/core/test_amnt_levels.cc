/**
 * Parameterized sweep of the AMNT subtree level (the BIOS knob):
 * every level must preserve crash consistency, confine staleness, and
 * trade recovery work monotonically — the mechanism behind Figures
 * 6/7 and Table 4.
 */

#include <gtest/gtest.h>

#include "core/amnt.hh"
#include "mee/mee_test_util.hh"

namespace amnt
{
namespace
{

using test::Rig;

class AmntLevelSweep : public ::testing::TestWithParam<unsigned>
{
  protected:
    static mee::MeeConfig
    config(unsigned level)
    {
        mee::MeeConfig cfg = test::smallConfig();
        cfg.dataBytes = 2ull << 20; // 512 counters, 3 node levels
        cfg.amntSubtreeLevel = level;
        cfg.amntInterval = 32;
        return cfg;
    }
};

TEST_P(AmntLevelSweep, CrashRecoveryHoldsAtEveryLevel)
{
    Rig rig(mee::Protocol::Amnt, config(GetParam()));
    Rng rng(GetParam() * 101);
    std::unordered_map<Addr, std::uint64_t> last;
    for (int i = 0; i < 400; ++i) {
        const Addr a = (rng.chance(0.8) ? rng.below(32)
                                        : rng.below(512)) *
                           kPageSize +
                       rng.below(8) * kBlockSize;
        test::writePattern(*rig.engine, a, i);
        last[a] = static_cast<std::uint64_t>(i);
    }
    rig.engine->crash();
    ASSERT_TRUE(rig.engine->recover().success);
    for (const auto &kv : last)
        EXPECT_TRUE(
            test::checkPattern(*rig.engine, kv.first, kv.second));
    EXPECT_EQ(rig.engine->violations(), 0ull);
}

TEST_P(AmntLevelSweep, StalenessConfinedAtEveryLevel)
{
    Rig rig(mee::Protocol::Amnt, config(GetParam()));
    auto &e = static_cast<core::AmntStrategy &>(rig.engine->strategy());
    Rng rng(GetParam() * 313);
    for (int i = 0; i < 300; ++i)
        test::writePattern(
            *rig.engine,
            (rng.chance(0.8) ? rng.below(16) : rng.below(512)) *
                kPageSize,
            i);
    const auto root = e.subtreeRoot();
    for (Addr a : rig.engine->staleMetadataBlocks()) {
        ASSERT_EQ(rig.engine->map().classify(a), mem::Region::Tree);
        const bmt::NodeRef ref = rig.engine->map().nodeOfAddr(a);
        EXPECT_TRUE(bmt::Geometry::inSubtree(ref, root) ||
                    bmt::Geometry::inSubtree(root, ref))
            << "level " << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(Levels, AmntLevelSweep,
                         ::testing::Values(2u, 3u),
                         [](const auto &info) {
                             std::string name = "L";
                             name += std::to_string(info.param);
                             return name;
                         });

TEST(AmntLevels, RecoveryWorkShrinksWithDeeperLevels)
{
    std::uint64_t prev_reads = ~0ull;
    for (unsigned level = 2; level <= 3; ++level) {
        mee::MeeConfig cfg = test::smallConfig();
        cfg.dataBytes = 2ull << 20;
        cfg.amntSubtreeLevel = level;
        cfg.amntInterval = 1 << 30; // pin the subtree at region 0
        Rig rig(mee::Protocol::Amnt, cfg);
        // Touch every page so every region is populated.
        for (std::uint64_t p = 0; p < 512; ++p)
            test::writePattern(*rig.engine, p * kPageSize, p);
        rig.engine->crash();
        const auto report = rig.engine->recover();
        ASSERT_TRUE(report.success);
        EXPECT_LT(report.blocksRead, prev_reads)
            << "deeper level must recover less";
        prev_reads = report.blocksRead;
    }
}

} // namespace
} // namespace amnt
