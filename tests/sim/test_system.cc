#include <gtest/gtest.h>

#include "sim/system.hh"

namespace amnt::sim
{
namespace
{

WorkloadConfig
tinyWorkload(std::uint64_t seed = 1)
{
    WorkloadConfig w;
    w.name = "tiny";
    w.footprintPages = 512;
    w.memIntensity = 0.3;
    w.writeFraction = 0.3;
    w.hotPagesFraction = 0.1;
    w.seed = seed;
    return w;
}

SystemConfig
tinySystem(mee::Protocol p)
{
    SystemConfig cfg = SystemConfig::singleProgram(p);
    cfg.mee.dataBytes = 64ull << 20; // 64 MB
    cfg.mee.metaCache = {"mcache", 16 * 1024, 8, 2};
    // Small on-chip caches so write-backs reach the MEE even in
    // short test runs (the paper deliberately under-sizes caches to
    // stress the memory system, section 6).
    cfg.privateLevels = {
        {"l1d", 16 * 1024, 8, 2},
        {"l2", 64 * 1024, 8, 12},
    };
    return cfg;
}

TEST(System, RunsAndCountsInstructions)
{
    System sys(tinySystem(mee::Protocol::Volatile));
    sys.addProcess(tinyWorkload());
    const RunResult r = sys.run(20000);
    EXPECT_EQ(r.appInstructions, 20000ull);
    EXPECT_GT(r.cycles, 20000ull);
    EXPECT_GT(r.dataAccesses, 0ull);
    EXPECT_GT(r.pageFaults, 0ull);
}

TEST(System, DeterministicRuns)
{
    System a(tinySystem(mee::Protocol::Leaf));
    System b(tinySystem(mee::Protocol::Leaf));
    a.addProcess(tinyWorkload());
    b.addProcess(tinyWorkload());
    EXPECT_EQ(a.run(20000).cycles, b.run(20000).cycles);
}

TEST(System, ProtocolOrderingHolds)
{
    Cycle cycles[3];
    const mee::Protocol protos[3] = {mee::Protocol::Volatile,
                                     mee::Protocol::Leaf,
                                     mee::Protocol::Strict};
    for (int i = 0; i < 3; ++i) {
        System sys(tinySystem(protos[i]));
        WorkloadConfig w = tinyWorkload();
        w.memIntensity = 0.5;
        w.writeFraction = 0.4;
        sys.addProcess(w);
        cycles[i] = sys.run(30000).cycles;
    }
    EXPECT_LT(cycles[0], cycles[1]); // volatile < leaf
    EXPECT_LT(cycles[1], cycles[2]); // leaf < strict
}

TEST(System, MultiprogramRunsTwoCores)
{
    SystemConfig cfg = SystemConfig::multiProgram(mee::Protocol::Leaf);
    cfg.mee.dataBytes = 64ull << 20;
    System sys(cfg);
    sys.addProcess(tinyWorkload(1));
    sys.addProcess(tinyWorkload(2));
    const RunResult r = sys.run(10000);
    EXPECT_EQ(r.appInstructions, 20000ull);
}

TEST(System, AmntReportsSubtreeStats)
{
    SystemConfig cfg = tinySystem(mee::Protocol::Amnt);
    cfg.mee.amntSubtreeLevel = 2;
    System sys(cfg);
    ASSERT_NE(sys.amnt(), nullptr);
    WorkloadConfig w = tinyWorkload();
    w.writeFraction = 0.5;
    sys.addProcess(w);
    const RunResult r = sys.run(30000);
    EXPECT_GT(r.subtreeHitRate, 0.0);
    EXPECT_LE(r.subtreeHitRate, 1.0);
}

TEST(System, AmntPpUsesBiasedAllocatorAndChargesOs)
{
    SystemConfig cfg = tinySystem(mee::Protocol::Amnt);
    cfg.mee.amntSubtreeLevel = 2;
    cfg.amntpp = true;
    cfg.daemonEvery = 5000;
    System sys(cfg);
    WorkloadConfig w = tinyWorkload();
    w.churnEvery = 200;
    sys.addProcess(w);
    const RunResult r = sys.run(30000);
    EXPECT_GT(r.osInstructions, 0ull);
    auto *pp = dynamic_cast<os::AmntPpAllocator *>(&sys.allocator());
    ASSERT_NE(pp, nullptr);
    EXPECT_GT(pp->restructures(), 0ull);
}

TEST(System, AccessHistogramRecordsFrames)
{
    SystemConfig cfg = tinySystem(mee::Protocol::Volatile);
    cfg.recordAccessHistogram = true;
    System sys(cfg);
    sys.addProcess(tinyWorkload());
    sys.run(10000);
    EXPECT_FALSE(sys.accessHistogram().empty());
}

TEST(System, NoIntegrityViolationsDuringNormalRuns)
{
    System sys(tinySystem(mee::Protocol::Amnt));
    sys.addProcess(tinyWorkload());
    sys.run(30000);
    EXPECT_EQ(sys.engine().violations(), 0ull);
}

TEST(SystemDeathTest, RejectsNonZeroShards)
{
    // SystemConfig::shards is kept only for a reader of the field; a
    // System always runs one flat secure memory.
    SystemConfig cfg = tinySystem(mee::Protocol::Amnt);
    cfg.shards = 2;
    EXPECT_EXIT({ System sys(cfg); }, ::testing::ExitedWithCode(1),
                "shards must be 0");
}

} // namespace
} // namespace amnt::sim
