#include <gtest/gtest.h>

#include <cstring>

#include "common/log.hh"
#include "core/hybrid.hh"
#include "mee/mee_test_util.hh"
#include "obs/registry.hh"

namespace amnt::core
{
namespace
{

HybridConfig
smallHybrid()
{
    HybridConfig cfg;
    cfg.scmBytes = 4ull << 20;
    cfg.dramBytes = 4ull << 20;
    cfg.mee = test::smallConfig();
    return cfg;
}

TEST(Hybrid, PartitionDispatch)
{
    HybridEngine h(smallHybrid());
    EXPECT_TRUE(h.isScm(0));
    EXPECT_TRUE(h.isScm((4ull << 20) - 1));
    EXPECT_FALSE(h.isScm(4ull << 20));
}

TEST(Hybrid, BothPartitionsRoundTrip)
{
    HybridEngine h(smallHybrid());
    std::uint8_t scm_data[kBlockSize], dram_data[kBlockSize];
    test::fillBlock(scm_data, 1);
    test::fillBlock(dram_data, 2);
    h.write(0x1000, scm_data);
    h.write((4ull << 20) + 0x1000, dram_data);

    std::uint8_t out[kBlockSize];
    h.read(0x1000, out);
    EXPECT_EQ(std::memcmp(out, scm_data, kBlockSize), 0);
    h.read((4ull << 20) + 0x1000, out);
    EXPECT_EQ(std::memcmp(out, dram_data, kBlockSize), 0);
    EXPECT_EQ(h.violations(), 0ull);
}

TEST(Hybrid, DramIsCheaperThanScm)
{
    HybridEngine h(smallHybrid());
    std::uint8_t buf[kBlockSize] = {1};
    Cycle scm = 0, dram = 0;
    for (std::uint64_t i = 0; i < 32; ++i) {
        scm += h.write(i * kPageSize, buf);
        dram += h.write((4ull << 20) + i * kPageSize, buf);
    }
    EXPECT_LT(dram, scm);
}

TEST(Hybrid, CrashLosesDramKeepsScm)
{
    HybridEngine h(smallHybrid());
    std::uint8_t buf[kBlockSize];
    for (std::uint64_t i = 0; i < 64; ++i) {
        test::fillBlock(buf, i);
        h.write(i * kPageSize, buf);
        test::fillBlock(buf, 1000 + i);
        h.write((4ull << 20) + i * kPageSize, buf);
    }

    h.crash();
    const mee::RecoveryReport report = h.recover();
    ASSERT_TRUE(report.success);

    // SCM contents recovered and verified.
    std::uint8_t out[kBlockSize], want[kBlockSize];
    for (std::uint64_t i = 0; i < 64; ++i) {
        h.read(i * kPageSize, out);
        test::fillBlock(want, i);
        EXPECT_EQ(std::memcmp(out, want, kBlockSize), 0) << i;
    }
    EXPECT_EQ(h.violations(), 0ull);

    // DRAM restarts empty, like any boot.
    h.read((4ull << 20) + 0x0, out);
    for (std::size_t i = 0; i < kBlockSize; ++i)
        EXPECT_EQ(out[i], 0);
}

TEST(Hybrid, ScmTamperStillDetected)
{
    setQuiet(true);
    HybridEngine h(smallHybrid());
    std::uint8_t buf[kBlockSize] = {5};
    h.write(0x2000, buf);
    h.sliceDevice(0).tamper(0x2000, 3, 0x04);
    h.read(0x2000);
    EXPECT_GT(h.violations(), 0ull);
    setQuiet(false);
}

TEST(Hybrid, ScmRecoveryBoundedBySubtree)
{
    HybridConfig cfg = smallHybrid();
    cfg.mee.amntSubtreeLevel = 3;
    HybridEngine h(cfg);
    std::uint8_t buf[kBlockSize] = {7};
    for (std::uint64_t i = 0; i < 512; i += 2)
        h.write(i * kPageSize, buf);
    h.crash();
    const auto report = h.recover();
    ASSERT_TRUE(report.success);
    // Only the fast subtree's share was recomputed.
    EXPECT_LT(report.countersRecovered, 200ull);
}

TEST(Hybrid, StatsFollowTheRebootedDramSide)
{
    HybridEngine h(smallHybrid());
    obs::StatRegistry reg;
    h.registerStats(reg);
    std::uint8_t buf[kBlockSize] = {3};
    h.write(0x1000, buf);
    h.write((4ull << 20) + 0x1000, buf);
    const std::string before = reg.dumpJson();
    EXPECT_NE(before.find("\"mee.scm.amnt.l3.data_writes\": 1"),
              std::string::npos);
    EXPECT_NE(before.find("\"mee.dram.volatile.data_writes\": 1"),
              std::string::npos);
    EXPECT_NE(before.find("\"nvm.dram.writes\""), std::string::npos);

    // The reboot replaces the DRAM side; the registry must follow it
    // to the fresh instance instead of the freed one.
    h.crash();
    ASSERT_TRUE(h.recover().success);
    const std::string after = reg.dumpJson();
    EXPECT_NE(after.find("\"mee.scm.amnt.l3.data_writes\": 1"),
              std::string::npos);
    EXPECT_NE(after.find("\"mee.dram.volatile.data_writes\": 0"),
              std::string::npos);
    EXPECT_NE(after.find("\"nvm.dram.writes\": 0"), std::string::npos);
}

} // namespace
} // namespace amnt::core
