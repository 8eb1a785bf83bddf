/**
 * Property test: the two crypto planes are behaviourally equivalent.
 *
 * Protocol control flow (cache behaviour, persist decisions, NVM
 * traffic) depends only on addresses and counter state, never on hash
 * values — so a fast-plane engine and a functional-plane engine fed
 * the same operation stream must generate identical device traffic
 * and identical modeled latencies. This is what licenses running the
 * figure sweeps on the fast plane.
 */

#include <gtest/gtest.h>

#include "mee/mee_test_util.hh"

namespace amnt
{
namespace
{

using test::Rig;

class PlaneEquivalence : public ::testing::TestWithParam<mee::Protocol>
{
};

TEST_P(PlaneEquivalence, IdenticalTrafficAndLatency)
{
    mee::MeeConfig fast_cfg =
        test::smallConfig(crypto::CryptoPlane::Fast);
    mee::MeeConfig func_cfg =
        test::smallConfig(crypto::CryptoPlane::Functional);
    fast_cfg.dataBytes = func_cfg.dataBytes = 2ull << 20;
    fast_cfg.amntSubtreeLevel = func_cfg.amntSubtreeLevel = 2;

    Rig fast(GetParam(), fast_cfg);
    Rig func(GetParam(), func_cfg);

    Rng rng(99);
    std::uint8_t buf[kBlockSize];
    for (int i = 0; i < 800; ++i) {
        const Addr a =
            rng.below(512) * kPageSize + rng.below(16) * kBlockSize;
        test::fillBlock(buf, static_cast<std::uint64_t>(i));
        Cycle lat_fast, lat_func;
        if (rng.chance(0.5)) {
            lat_fast = fast.engine->write(a, buf);
            lat_func = func.engine->write(a, buf);
        } else {
            lat_fast = fast.engine->read(a);
            lat_func = func.engine->read(a);
        }
        ASSERT_EQ(lat_fast, lat_func) << "op " << i;
        ASSERT_EQ(fast.nvm->reads(), func.nvm->reads()) << "op " << i;
        ASSERT_EQ(fast.nvm->writes(), func.nvm->writes())
            << "op " << i;
    }

    EXPECT_EQ(fast.engine->stats().all(), func.engine->stats().all());
    EXPECT_EQ(fast.engine->metaCache().hitRate(),
              func.engine->metaCache().hitRate());
    EXPECT_EQ(fast.engine->violations(), 0ull);
    EXPECT_EQ(func.engine->violations(), 0ull);
}

TEST_P(PlaneEquivalence, IdenticalRecoveryWork)
{
    mee::MeeConfig fast_cfg =
        test::smallConfig(crypto::CryptoPlane::Fast);
    mee::MeeConfig func_cfg =
        test::smallConfig(crypto::CryptoPlane::Functional);
    fast_cfg.dataBytes = func_cfg.dataBytes = 2ull << 20;
    fast_cfg.amntSubtreeLevel = func_cfg.amntSubtreeLevel = 2;

    Rig fast(GetParam(), fast_cfg);
    Rig func(GetParam(), func_cfg);
    for (std::uint64_t i = 0; i < 200; ++i) {
        test::writePattern(*fast.engine, (i % 128) * kPageSize, i);
        test::writePattern(*func.engine, (i % 128) * kPageSize, i);
    }
    fast.engine->crash();
    func.engine->crash();
    const auto rf = fast.engine->recover();
    const auto rg = func.engine->recover();
    // The volatile baseline fails recovery (no NV root register) —
    // identically on both planes.
    EXPECT_EQ(rf.success, rg.success);
    if (GetParam() != mee::Protocol::Volatile) {
        ASSERT_TRUE(rf.success);
        ASSERT_TRUE(rg.success);
    }
    EXPECT_EQ(rf.blocksRead, rg.blocksRead);
    EXPECT_EQ(rf.blocksWritten, rg.blocksWritten);
    EXPECT_EQ(rf.countersRecovered, rg.countersRecovered);
    EXPECT_DOUBLE_EQ(rf.estimatedMs, rg.estimatedMs);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, PlaneEquivalence,
    ::testing::Values(mee::Protocol::Volatile, mee::Protocol::Strict,
                      mee::Protocol::Leaf, mee::Protocol::Osiris,
                      mee::Protocol::Anubis, mee::Protocol::Bmf,
                      mee::Protocol::Amnt),
    [](const auto &info) {
        return std::string(mee::protocolName(info.param));
    });

} // namespace
} // namespace amnt
