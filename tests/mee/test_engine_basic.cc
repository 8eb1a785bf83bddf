#include <gtest/gtest.h>

#include "common/log.hh"
#include "mee/mee_test_util.hh"

namespace amnt
{
namespace
{

using test::Rig;

class EngineBasic
    : public ::testing::TestWithParam<crypto::CryptoPlane>
{
  protected:
    EngineBasic()
        : rig_(mee::Protocol::Leaf, test::smallConfig(GetParam()))
    {
        setQuiet(true);
    }
    ~EngineBasic() override { setQuiet(false); }

    Rig rig_;
};

TEST_P(EngineBasic, WriteReadRoundTrip)
{
    test::writePattern(*rig_.engine, 0x1000, 1);
    EXPECT_TRUE(test::checkPattern(*rig_.engine, 0x1000, 1));
    EXPECT_EQ(rig_.engine->violations(), 0ull);
}

TEST_P(EngineBasic, UnwrittenBlocksReadZero)
{
    std::uint8_t buf[kBlockSize];
    std::memset(buf, 0xaa, sizeof(buf));
    rig_.engine->read(0x2000, buf);
    for (auto b : buf)
        EXPECT_EQ(b, 0);
    EXPECT_EQ(rig_.engine->violations(), 0ull);
}

TEST_P(EngineBasic, OverwriteBumpsCounter)
{
    test::writePattern(*rig_.engine, 0x3000, 1);
    test::writePattern(*rig_.engine, 0x3000, 2);
    const auto &cb = rig_.engine->treeState().counter(
        rig_.engine->map().counterIndexOf(0x3000));
    EXPECT_EQ(cb.minors[(0x3000 / kBlockSize) % kBlocksPerPage], 2);
    EXPECT_TRUE(test::checkPattern(*rig_.engine, 0x3000, 2));
}

TEST_P(EngineBasic, ManyBlocksManyPages)
{
    for (std::uint64_t i = 0; i < 300; ++i)
        test::writePattern(*rig_.engine, i * 4096 + (i % 64) * 64,
                           1000 + i);
    for (std::uint64_t i = 0; i < 300; ++i)
        EXPECT_TRUE(test::checkPattern(
            *rig_.engine, i * 4096 + (i % 64) * 64, 1000 + i));
    EXPECT_EQ(rig_.engine->violations(), 0ull);
}

TEST_P(EngineBasic, MinorOverflowReencryptsPage)
{
    // Write one block 128 times: the 7-bit minor overflows once.
    test::writePattern(*rig_.engine, 0x5040, 7); // sibling block
    for (int i = 0; i < 128; ++i)
        test::writePattern(*rig_.engine, 0x5000, 100 + i);

    EXPECT_EQ(rig_.engine->stats().get("overflow_reencrypts"), 1ull);
    const auto &cb = rig_.engine->treeState().counter(
        rig_.engine->map().counterIndexOf(0x5000));
    EXPECT_EQ(cb.major, 1ull);

    // Both the hammered block and its sibling must still decrypt and
    // verify under the new major counter.
    EXPECT_TRUE(test::checkPattern(*rig_.engine, 0x5000, 227));
    EXPECT_TRUE(test::checkPattern(*rig_.engine, 0x5040, 7));
    EXPECT_EQ(rig_.engine->violations(), 0ull);
}

TEST_P(EngineBasic, RootRegisterTracksWrites)
{
    EXPECT_EQ(rig_.engine->rootRegister(), 0ull);
    test::writePattern(*rig_.engine, 0, 1);
    const std::uint64_t r1 = rig_.engine->rootRegister();
    EXPECT_NE(r1, 0ull);
    test::writePattern(*rig_.engine, 0, 2);
    EXPECT_NE(rig_.engine->rootRegister(), r1);
}

TEST_P(EngineBasic, StatsCountAccesses)
{
    test::writePattern(*rig_.engine, 0, 1);
    test::checkPattern(*rig_.engine, 0, 1);
    EXPECT_EQ(rig_.engine->stats().get("data_writes"), 1ull);
    EXPECT_EQ(rig_.engine->stats().get("data_reads"), 1ull);
}

TEST_P(EngineBasic, MetadataCacheEvictionsWriteBack)
{
    // Touch enough pages to overflow the 8 kB metadata cache; dirty
    // tree nodes must be written back, not lost.
    for (std::uint64_t i = 0; i < 1024; ++i)
        test::writePattern(*rig_.engine, i * 4096, i);
    EXPECT_GT(rig_.engine->stats().get("meta_writebacks"), 0ull);
    for (std::uint64_t i = 0; i < 1024; i += 37)
        EXPECT_TRUE(test::checkPattern(*rig_.engine, i * 4096, i));
    EXPECT_EQ(rig_.engine->violations(), 0ull);
}

TEST_P(EngineBasic, EngineOnWrittenDeviceVerifiesFirstFetch)
{
    // A device that already holds a metadata block the engine never
    // persisted: its first fetch must take the full check and flag.
    const mee::MeeConfig cfg = test::smallConfig(GetParam());
    const mem::MemoryMap map(cfg.dataBytes);
    mem::NvmDevice nvm(map.deviceBytes());
    mem::Block planted{};
    planted[9] = 0x42;
    nvm.writeBlock(map.counterBase(), planted);
    auto engine = core::makeEngine(mee::Protocol::Leaf, cfg, nvm);
    engine->setFetchCrossCheck(true);
    engine->read(0);
    EXPECT_EQ(engine->violations(), 1ull);
}

TEST_P(EngineBasic, PersistMacsDeferredUntilAForeignChange)
{
    ASSERT_TRUE(rig_.engine->persistMacsDeferred());
    EXPECT_NE(rig_.nvm->deferringWriter(), nullptr);
    for (std::uint64_t i = 0; i < 300; ++i)
        test::writePattern(*rig_.engine, i * 4096, i);
    EXPECT_TRUE(rig_.engine->persistMacsDeferred());
    EXPECT_EQ(rig_.engine->persistedMacs().size(), 0u);

    // Reads and the engine's own writes keep it deferred; the first
    // outside write ends the deferral and builds the table.
    rig_.nvm->writeBlock(rig_.config.dataBytes - kBlockSize,
                         mem::Block{});
    EXPECT_FALSE(rig_.engine->persistMacsDeferred());
    EXPECT_EQ(rig_.nvm->deferringWriter(), nullptr);
    EXPECT_GT(rig_.engine->persistedMacs().size(), 0u);
    for (std::uint64_t i = 0; i < 300; i += 7)
        EXPECT_TRUE(test::checkPattern(*rig_.engine, i * 4096, i));
    EXPECT_EQ(rig_.engine->violations(), 0ull);
}

TEST_P(EngineBasic, EngineOnWrittenDeviceStaysEager)
{
    const mee::MeeConfig cfg = test::smallConfig(GetParam());
    const mem::MemoryMap map(cfg.dataBytes);
    mem::NvmDevice nvm(map.deviceBytes());
    nvm.writeBlock(cfg.dataBytes - kBlockSize, mem::Block{});
    auto engine = core::makeEngine(mee::Protocol::Leaf, cfg, nvm);
    EXPECT_FALSE(engine->persistMacsDeferred());
    EXPECT_EQ(nvm.deferringWriter(), nullptr);
    test::writePattern(*engine, 0, 1);
    EXPECT_GT(engine->persistedMacs().size(), 0u);
}

TEST_P(EngineBasic, EngineDetachesWhenItDiesBeforeItsDevice)
{
    const mee::MeeConfig cfg = test::smallConfig(GetParam());
    mem::NvmDevice nvm(mem::MemoryMap(cfg.dataBytes).deviceBytes());
    {
        auto engine = core::makeEngine(mee::Protocol::Amnt, cfg, nvm);
        test::writePattern(*engine, 0, 1);
        ASSERT_TRUE(engine->persistMacsDeferred());
    }
    EXPECT_EQ(nvm.deferringWriter(), nullptr);
    // Nothing is left to call back into.
    EXPECT_TRUE(nvm.tamper(mem::MemoryMap(cfg.dataBytes).counterBase(),
                           0, 0x01));
}

TEST_P(EngineBasic, SecondEngineEndsTheFirstOnesDeferral)
{
    test::writePattern(*rig_.engine, 0, 1);
    auto second =
        core::makeEngine(mee::Protocol::Leaf, rig_.config, *rig_.nvm);
    second->setFetchCrossCheck(true);
    EXPECT_FALSE(second->persistMacsDeferred());
    EXPECT_TRUE(rig_.engine->persistMacsDeferred());
    // The second engine's writes are foreign to the first: its
    // deferral ends (and the cross-check compares the table built
    // then with its shadow) before the first of them lands.
    test::writePattern(*second, 4096, 2);
    EXPECT_FALSE(rig_.engine->persistMacsDeferred());
    EXPECT_EQ(rig_.nvm->deferringWriter(), nullptr);
    EXPECT_GT(rig_.engine->persistedMacs().size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    BothPlanes, EngineBasic,
    ::testing::Values(crypto::CryptoPlane::Fast,
                      crypto::CryptoPlane::Functional),
    [](const auto &info) {
        return info.param == crypto::CryptoPlane::Fast ? "Fast"
                                                       : "Functional";
    });

} // namespace
} // namespace amnt
