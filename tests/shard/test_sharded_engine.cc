/**
 * @file
 * Sharded-engine unit behaviour: cross-slice write/read round trips,
 * epoch-batched commit semantics (buffered-but-uncommitted writes die
 * at a crash; committed epochs survive), lane-count byte-identity of
 * every registered statistic, and the enrollment pin — every registry
 * protocol must construct and run under the sharded engine, so a
 * protocol skipping shard enrollment is a test failure, not a silent
 * gap.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hh"
#include "core/protocol_registry.hh"
#include "mee/protocol.hh"
#include "obs/registry.hh"
#include "shard/sharded_engine.hh"

using namespace amnt;

namespace
{

mem::Block
patternBlock(std::uint64_t seed)
{
    Rng rng(seed);
    mem::Block b;
    for (auto &byte : b)
        byte = static_cast<std::uint8_t>(rng.next());
    return b;
}

mee::MeeConfig
smallConfig()
{
    mee::MeeConfig m;
    m.dataBytes = 4ull << 20;
    m.trackContents = true;
    m.keySeed = 7;
    m.metaCache = {"mcache", 4 * 1024, 4, 2};
    return m;
}

shard::ShardOptions
options(unsigned slices, unsigned lanes,
        std::uint64_t epoch_writes = 8)
{
    shard::ShardOptions so;
    so.slices = slices;
    so.lanes = lanes;
    so.epochWrites = epoch_writes;
    so.cores = 2;
    return so;
}

/** One address in every slice, plus both sides of a slice boundary. */
std::vector<Addr>
crossSliceAddrs(const shard::Partition &part)
{
    std::vector<Addr> addrs;
    for (unsigned s = 0; s < part.slices; ++s)
        addrs.push_back(part.globalAddr(s, (s + 1) * kPageSize));
    addrs.push_back(part.sliceBytes - kBlockSize);
    addrs.push_back(part.sliceBytes);
    return addrs;
}

} // namespace

TEST(ShardedEngine, CrossSliceWriteReadRoundTrip)
{
    shard::ShardedEngine eng(mee::Protocol::Leaf, smallConfig(),
                             options(4, 1));
    ASSERT_EQ(eng.sliceCount(), 4u);
    const std::vector<Addr> addrs =
        crossSliceAddrs(eng.partition());
    for (std::size_t i = 0; i < addrs.size(); ++i)
        eng.write(addrs[i], patternBlock(100 + i).data());
    // Functional reads see buffered writes (sync drain) even before
    // any epoch closed or flushed.
    for (std::size_t i = 0; i < addrs.size(); ++i) {
        mem::Block got{};
        eng.read(addrs[i], got.data());
        EXPECT_EQ(got, patternBlock(100 + i)) << "addr " << addrs[i];
    }
    EXPECT_EQ(eng.violations(), 0u);
}

TEST(ShardedEngine, FlushCommitsAndSurvivesCrash)
{
    shard::ShardedEngine eng(mee::Protocol::Leaf, smallConfig(),
                             options(2, 1));
    const std::vector<Addr> addrs =
        crossSliceAddrs(eng.partition());
    for (std::size_t i = 0; i < addrs.size(); ++i)
        eng.write(addrs[i], patternBlock(200 + i).data());
    eng.flush();
    const std::uint64_t committed = eng.committedEpoch();
    EXPECT_GT(committed, 0u);

    // A buffered-but-uncommitted overwrite dies at the crash...
    eng.write(addrs[0], patternBlock(999).data());
    eng.crash();
    const mee::RecoveryReport rec = eng.recover();
    EXPECT_TRUE(rec.success) << rec.detail;
    EXPECT_EQ(eng.committedEpoch(), committed);

    // ...while every committed payload reads back bit-exactly.
    for (std::size_t i = 0; i < addrs.size(); ++i) {
        mem::Block got{};
        eng.read(addrs[i], got.data());
        EXPECT_EQ(got, patternBlock(200 + i)) << "addr " << addrs[i];
    }
    EXPECT_EQ(eng.violations(), 0u);
}

TEST(ShardedEngine, EpochClosesAtConfiguredWriteCount)
{
    shard::ShardedEngine eng(mee::Protocol::Leaf, smallConfig(),
                             options(2, 1, 4));
    EXPECT_EQ(eng.epochWrites(), 4u);
    EXPECT_EQ(eng.currentEpoch(), 1u);
    for (unsigned i = 0; i < 4; ++i)
        eng.write(i * kPageSize, patternBlock(i).data());
    // The fourth write closed (and, serially, committed) epoch 1.
    EXPECT_EQ(eng.currentEpoch(), 2u);
    EXPECT_EQ(eng.committedEpoch(), 1u);
}

TEST(ShardedEngine, RejectsZeroSlicesOrEpochWrites)
{
    EXPECT_DEATH(shard::ShardedEngine(mee::Protocol::Leaf,
                                      smallConfig(), options(0, 1)),
                 "at least one slice");
    EXPECT_DEATH(shard::ShardedEngine(mee::Protocol::Leaf,
                                      smallConfig(), options(2, 1, 0)),
                 "one write per epoch");
}

TEST(ShardedEngine, LaneCountNeverChangesRegisteredStats)
{
    // `--shards=N` is execution policy: every simulated statistic —
    // per-slice engine counters, device write counts, journal
    // activity, epoch bookkeeping — must be byte-identical at any
    // lane count. This is the engine-level half of the shard
    // invariance contract (DESIGN.md §15).
    auto runAt = [](unsigned lanes) {
        shard::ShardedEngine eng(mee::Protocol::Amnt, smallConfig(),
                                 options(4, lanes, 8));
        Rng rng(3);
        for (unsigned i = 0; i < 200; ++i) {
            const Addr a = rng.below(1024) * kPageSize +
                           rng.below(8) * kBlockSize;
            if (rng.chance(0.7))
                eng.write(a, patternBlock(rng.next()).data(),
                          i % 2);
            else
                eng.read(a, nullptr, i % 2);
        }
        eng.flush();
        std::vector<Cycle> lat(2, 0);
        eng.harvestLatencies(lat);
        obs::StatRegistry reg;
        eng.registerStats(reg);
        return std::make_pair(reg.dumpJson(), lat);
    };
    const auto baseline = runAt(1);
    for (unsigned lanes : {2u, 4u}) {
        const auto got = runAt(lanes);
        EXPECT_EQ(got.first, baseline.first) << "lanes " << lanes;
        EXPECT_EQ(got.second, baseline.second) << "lanes " << lanes;
    }
}

/**
 * Enrollment pin: the sharded engine must cover the registry, whole.
 * Constructing and exercising every protocol here means a protocol
 * added to the registry cannot silently opt out of sharding — if a
 * strategy cannot run sliced, this test fails on it by name.
 */
TEST(ShardedEngineEnrollment, EveryRegistryProtocolRunsSharded)
{
    const std::vector<mee::Protocol> all = core::allProtocols();
    ASSERT_EQ(all.size(), mee::kProtocolCount);
    unsigned enrolled = 0;
    for (mee::Protocol p : all) {
        SCOPED_TRACE(mee::protocolName(p));
        shard::ShardedEngine eng(p, smallConfig(), options(2, 2, 8));
        const std::vector<Addr> addrs =
            crossSliceAddrs(eng.partition());
        for (std::size_t i = 0; i < addrs.size(); ++i)
            eng.write(addrs[i], patternBlock(300 + i).data());
        eng.flush();
        for (std::size_t i = 0; i < addrs.size(); ++i) {
            mem::Block got{};
            eng.read(addrs[i], got.data());
            EXPECT_EQ(got, patternBlock(300 + i));
        }
        EXPECT_EQ(eng.violations(), 0u);
        ++enrolled;
    }
    EXPECT_EQ(enrolled, mee::kProtocolCount);
}
