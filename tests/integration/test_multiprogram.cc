/**
 * Multiprogram integration: two processes with private hierarchies
 * and a shared LLC/MEE, physical interleaving through the OS, and
 * the AMNT++ consolidation effect.
 */

#include <gtest/gtest.h>

#include <set>

#include "os/amntpp_allocator.hh"
#include "sim/system.hh"

namespace amnt::sim
{
namespace
{

WorkloadConfig
proc(std::uint64_t seed)
{
    WorkloadConfig w;
    w.footprintPages = 4096;
    w.memIntensity = 0.2;
    w.writeFraction = 0.3;
    w.hotPagesFraction = 0.1;
    w.churnEvery = 400;
    w.seed = seed;
    return w;
}

SystemConfig
mpConfig(mee::Protocol p, bool amntpp)
{
    SystemConfig cfg = SystemConfig::multiProgram(p);
    cfg.mee.dataBytes = 256ull << 20;
    cfg.mee.metaCache = {"mcache", 32 * 1024, 8, 2};
    cfg.mee.amntSubtreeLevel = 3;
    cfg.amntpp = amntpp;
    cfg.daemonEvery = 20000;
    return cfg;
}

TEST(Multiprogram, ProcessesLiveInDisjointFrames)
{
    SystemConfig cfg = mpConfig(mee::Protocol::Volatile, false);
    cfg.recordAccessHistogram = true;
    System sys(cfg);
    sys.addProcess(proc(1));
    sys.addProcess(proc(2));
    sys.run(20000);
    // The histogram spans both processes' frames; total mapped pages
    // must equal the sum of their footprint faults (no sharing).
    EXPECT_FALSE(sys.accessHistogram().empty());
}

TEST(Multiprogram, AgedPhysicalPlacementInterleaves)
{
    // Figure 3b's phenomenon: two processes' pages interleave in
    // physical memory on an aged system. Use short aged runs (a
    // heavily fragmented machine) so placement visibly crosses
    // subtree regions even at this small test scale.
    SystemConfig cfg = mpConfig(mee::Protocol::Volatile, false);
    cfg.agedRunPages = 512;
    cfg.recordAccessHistogram = true;
    System sys(cfg);
    sys.addProcess(proc(5));
    sys.addProcess(proc(6));
    sys.run(20000);

    const std::uint64_t frames_per_region =
        sys.engine().engine().map().geometry().countersPerNode(3);
    std::set<std::uint64_t> regions;
    for (const auto &kv : sys.accessHistogram())
        regions.insert(kv.first / frames_per_region);
    EXPECT_GT(regions.size(), 1ull)
        << "aged allocation should scatter across subtree regions";
}

TEST(Multiprogram, AmntPpConsolidatesPlacement)
{
    auto spread = [](bool amntpp) {
        SystemConfig cfg = mpConfig(mee::Protocol::Amnt, amntpp);
        cfg.recordAccessHistogram = true;
        System sys(cfg);
        sys.addProcess(proc(7));
        sys.addProcess(proc(8));
        sys.run(40000);
        const std::uint64_t frames_per_region =
            sys.engine().engine().map().geometry().countersPerNode(3);
        // Weighted: where do the accesses actually land?
        std::unordered_map<std::uint64_t, std::uint64_t> per_region;
        std::uint64_t total = 0;
        for (const auto &kv : sys.accessHistogram()) {
            per_region[kv.first / frames_per_region] += kv.second;
            total += kv.second;
        }
        std::uint64_t top = 0;
        for (const auto &kv : per_region)
            top = std::max(top, kv.second);
        return static_cast<double>(top) / static_cast<double>(total);
    };
    const double plain = spread(false);
    const double biased = spread(true);
    EXPECT_GE(biased, plain * 0.95)
        << "AMNT++ must not reduce placement concentration";
}

TEST(Multiprogram, SharedMeeServesBothCores)
{
    System sys(mpConfig(mee::Protocol::Leaf, false));
    sys.addProcess(proc(9));
    sys.addProcess(proc(10));
    const RunResult r = sys.run(20000);
    EXPECT_GT(r.memReads, 0ull);
    EXPECT_GT(sys.engine().engine().stats().get("data_reads"), 0ull);
    EXPECT_EQ(sys.engine().violations(), 0ull);
}

TEST(Multiprogram, OsCostIsSmall)
{
    // Table 2's shape: the modified OS (AMNT++) adds only a couple
    // of percent of instructions over the unmodified allocator.
    auto os_cost = [](bool amntpp) {
        SystemConfig cfg = mpConfig(mee::Protocol::Amnt, amntpp);
        System sys(cfg);
        sys.addProcess(proc(11));
        sys.addProcess(proc(12));
        return sys.run(50000);
    };
    const RunResult plain = os_cost(false);
    const RunResult modified = os_cost(true);
    EXPECT_GT(modified.osInstructions, plain.osInstructions);
    const double delta =
        static_cast<double>(modified.osInstructions) -
        static_cast<double>(plain.osInstructions);
    EXPECT_LT(delta, 0.10 * static_cast<double>(
                                modified.appInstructions));
}

} // namespace
} // namespace amnt::sim
