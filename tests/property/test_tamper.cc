/**
 * Property test: physical tampering with ANY persisted byte — data,
 * counters, HMACs, tree nodes — must be detected, either at the next
 * fetch of the tampered block or at crash recovery.
 */

#include <gtest/gtest.h>

#include <map>

#include "common/log.hh"
#include "core/protocol_registry.hh"
#include "mee/mee_test_util.hh"

namespace amnt
{
namespace
{

using test::Rig;

class TamperTest : public ::testing::TestWithParam<mee::Protocol>
{
  protected:
    TamperTest()
    {
        setQuiet(true);
        rig_ = std::make_unique<Rig>(GetParam(), config());
        populate(*rig_);
    }
    ~TamperTest() override { setQuiet(false); }

    static mee::MeeConfig
    config()
    {
        mee::MeeConfig cfg = test::smallConfig();
        cfg.dataBytes = 2ull << 20;
        cfg.amntSubtreeLevel = 2;
        return cfg;
    }

    /**
     * Populate a working set and push metadata out of the cache so
     * later fetches really come from (attackable) NVM.
     */
    static void
    populate(Rig &rig)
    {
        for (std::uint64_t i = 0; i < 400; ++i)
            test::writePattern(*rig.engine, (i % 256) * kPageSize, i);
    }

    /** Evict everything cached so fetches hit NVM. */
    static void
    flushMetadataCache(Rig &rig)
    {
        for (std::uint64_t i = 0; i < 512; ++i)
            rig.engine->read((256 + (i % 128)) * kPageSize);
    }

    void flushMetadataCache() { flushMetadataCache(*rig_); }

    std::unique_ptr<Rig> rig_;
};

TEST_P(TamperTest, DataTamperDetectedOnRead)
{
    rig_->nvm->tamper(0, 13, 0x04);
    rig_->engine->read(0);
    EXPECT_GT(rig_->engine->violations(), 0ull);
}

TEST_P(TamperTest, CounterTamperDetectedOnFetch)
{
    flushMetadataCache();
    const Addr caddr = rig_->engine->map().counterBase();
    rig_->nvm->tamper(caddr, 9, 0x80);
    // Touching page 0 forces the counter fetch.
    for (int i = 0; i < 4 && rig_->engine->violations() == 0; ++i)
        rig_->engine->read(0);
    EXPECT_GT(rig_->engine->violations(), 0ull);
}

TEST_P(TamperTest, HmacTamperDetected)
{
    flushMetadataCache();
    const Addr haddr = rig_->engine->map().hmacAddrOf(0);
    rig_->nvm->tamper(haddr, 2, 0x01);
    rig_->engine->read(0);
    EXPECT_GT(rig_->engine->violations(), 0ull);
}

TEST_P(TamperTest, TreeNodeTamperDetectedOnFetch)
{
    flushMetadataCache();
    // Tamper the deepest tree level node covering counter 0.
    const auto &map = rig_->engine->map();
    const Addr naddr =
        map.nodeAddrOf(map.geometry().leafNodeOf(0));
    rig_->nvm->tamper(naddr, 0, 0xff);
    for (int i = 0; i < 4 && rig_->engine->violations() == 0; ++i)
        rig_->engine->read(0);
    EXPECT_GT(rig_->engine->violations(), 0ull);
}

TEST_P(TamperTest, ReplayOfOldCounterDetected)
{
    // Capture the persisted counter block, advance it, then restore
    // the stale copy: a classic replay/rollback attack.
    const Addr caddr = rig_->engine->map().counterBase();
    flushMetadataCache();
    mem::Block old_bytes;
    rig_->nvm->peek(caddr, old_bytes);

    for (int i = 0; i < 8; ++i)
        test::writePattern(*rig_->engine, 0, 900 + i);
    flushMetadataCache();

    mem::Block now_bytes;
    rig_->nvm->peek(caddr, now_bytes);
    ASSERT_NE(old_bytes, now_bytes)
        << "test needs the persisted counter to have advanced";
    rig_->nvm->writeBlock(caddr, old_bytes); // attacker's restore

    for (int i = 0; i < 4 && rig_->engine->violations() == 0; ++i)
        rig_->engine->read(0);
    EXPECT_GT(rig_->engine->violations(), 0ull);
}

TEST_P(TamperTest, DeferredMacTableMatchesEagerEngineAtTamper)
{
    // The twin's deferral ends before its first write (an all-zero
    // write to a data block nothing else touches), so it records
    // every persist MAC eagerly from the start.
    Rig eager(GetParam(), config());
    eager.nvm->writeBlock(config().dataBytes - kBlockSize, mem::Block{});
    ASSERT_FALSE(eager.engine->persistMacsDeferred());
    populate(eager);

    // Recovery and the writes after it persist through the same
    // deferred paths.
    for (Rig *r : {rig_.get(), &eager}) {
        flushMetadataCache(*r);
        r->engine->crash();
        ASSERT_TRUE(r->engine->recover().success);
        for (std::uint64_t i = 0; i < 40; ++i)
            test::writePattern(*r->engine, (i % 8) * kPageSize, 500 + i);
        flushMetadataCache(*r);
    }
    ASSERT_TRUE(rig_->engine->persistMacsDeferred());
    EXPECT_EQ(rig_->engine->persistedMacs().size(), 0u);
    ASSERT_GT(eager.engine->persistedMacs().size(), 0u);

    const Addr caddr = rig_->engine->map().counterBase();
    rig_->nvm->tamper(caddr, 9, 0x80);
    eager.nvm->tamper(caddr, 9, 0x80);
    EXPECT_FALSE(rig_->engine->persistMacsDeferred());

    const auto &built = rig_->engine->persistedMacs();
    const auto &want = eager.engine->persistedMacs();
    ASSERT_EQ(built.size(), want.size());
    for (const auto &kv : want) {
        auto it = built.find(kv.first);
        ASSERT_NE(it, built.end()) << std::hex << kv.first;
        EXPECT_EQ(it->second, kv.second) << std::hex << kv.first;
    }

    for (int i = 0; i < 4; ++i) {
        rig_->engine->read(0);
        eager.engine->read(0);
    }
    EXPECT_GT(rig_->engine->violations(), 0ull);
    EXPECT_EQ(rig_->engine->violations(), eager.engine->violations());
}

// Every persistent protocol in the registry is enrolled; registering
// a new protocol adds its legs here automatically.
INSTANTIATE_TEST_SUITE_P(
    Registry, TamperTest,
    ::testing::ValuesIn(core::persistentProtocols()),
    [](const auto &info) {
        return std::string(mee::protocolName(info.param));
    });

class TamperAtRest : public ::testing::TestWithParam<mee::Protocol>
{
};

TEST_P(TamperAtRest, CounterCorruptionWhilePoweredOffFailsRecovery)
{
    setQuiet(true);
    mee::MeeConfig cfg = test::smallConfig();
    cfg.dataBytes = 2ull << 20;
    cfg.amntSubtreeLevel = 2;
    Rig rig(GetParam(), cfg);
    for (std::uint64_t i = 0; i < 100; ++i)
        test::writePattern(*rig.engine, i * kPageSize, i);
    rig.engine->crash();
    rig.nvm->tamper(rig.engine->map().counterBase() + 5 * kBlockSize,
                    1, 0x10);
    const auto report = rig.engine->recover();
    EXPECT_FALSE(report.success);
    setQuiet(false);
}

// Enrollment follows each protocol's declared CrashProfile: only
// protocols whose recovery re-derives state from the persisted
// counters (tamperAtRestDetects) can promise a powered-off counter
// flip FAILS recovery. Osiris/Anubis/Bmf legitimately repair or
// shadow-restore instead, so they opt out via their profile — not via
// an edit to this file.
INSTANTIATE_TEST_SUITE_P(
    Registry, TamperAtRest,
    ::testing::ValuesIn(core::tamperAtRestProtocols()),
    [](const auto &info) {
        return std::string(mee::protocolName(info.param));
    });

// ---------------------------------------------------------------------
// Post-crash tamper-anywhere sweep: with the machine powered off, flip
// one bit in a representative of every persisted metadata region class
// and demand that nothing is silently corrupted — either recovery
// fails, or the first touch of the affected block flags a violation,
// or the flipped bytes are provably neutralized (recomputed during
// recovery) and every committed block still reads back bit-exactly.

/** A crashed engine plus the last committed pattern per address. */
struct SweepRig
{
    std::unique_ptr<Rig> rig;
    std::map<Addr, std::uint64_t> last;
};

SweepRig
makeCrashedRig(mee::Protocol p)
{
    mee::MeeConfig cfg = test::smallConfig();
    cfg.dataBytes = 2ull << 20; // 512 pages, node levels 1..3
    cfg.amntSubtreeLevel = 2;
    SweepRig s;
    s.rig = std::make_unique<Rig>(p, cfg);
    for (std::uint64_t i = 0; i < 120; ++i) {
        const Addr addr =
            (i % 40) * kPageSize + (i % 8) * kBlockSize;
        test::writePattern(*s.rig->engine, addr, i);
        s.last[addr] = i;
    }
    s.rig->engine->crash();
    return s;
}

/** The no-silent-corruption disjunction after a powered-off flip. */
void
expectNoSilentCorruption(SweepRig &s, Addr touch)
{
    const auto report = s.rig->engine->recover();
    if (!report.success)
        return; // detected at recovery: nothing silent
    s.rig->engine->read(touch);
    if (s.rig->engine->violations() > 0)
        return; // detected at the first touch of the region
    // Neither tripped: the flip must have been neutralized by the
    // recovery recompute, leaving every committed block intact.
    for (const auto &kv : s.last)
        EXPECT_TRUE(test::checkPattern(*s.rig->engine, kv.first,
                                       kv.second))
            << "silent corruption at address " << kv.first;
    EXPECT_EQ(s.rig->engine->violations(), 0u);
}

class PostCrashTamperSweep
    : public ::testing::TestWithParam<mee::Protocol>
{
  protected:
    PostCrashTamperSweep() { setQuiet(true); }
    ~PostCrashTamperSweep() override { setQuiet(false); }
};

TEST_P(PostCrashTamperSweep, WrittenDataBlock)
{
    SweepRig s = makeCrashedRig(GetParam());
    s.rig->nvm->tamper(0, 13, 0x04);
    expectNoSilentCorruption(s, 0);
}

TEST_P(PostCrashTamperSweep, CounterBlockOfWrittenPage)
{
    SweepRig s = makeCrashedRig(GetParam());
    s.rig->nvm->tamper(s.rig->engine->map().counterBase() +
                           5 * kBlockSize,
                       9, 0x80);
    expectNoSilentCorruption(s, 5 * kPageSize);
}

TEST_P(PostCrashTamperSweep, HmacBlockOfWrittenBlock)
{
    SweepRig s = makeCrashedRig(GetParam());
    s.rig->nvm->tamper(s.rig->engine->map().hmacAddrOf(0), 2, 0x01);
    expectNoSilentCorruption(s, 0);
}

TEST_P(PostCrashTamperSweep, TreeNodeAtEveryLevel)
{
    // One fresh crashed rig per level: recovery neutralizes tree-node
    // flips (nodes are recomputed from counters), so each level needs
    // its own powered-off flip — including level 1, the persisted
    // image of the root itself.
    const unsigned levels = [&] {
        SweepRig probe = makeCrashedRig(GetParam());
        return probe.rig->engine->map().geometry().nodeLevels();
    }();
    for (unsigned level = 1; level <= levels; ++level) {
        SweepRig s = makeCrashedRig(GetParam());
        const auto &map = s.rig->engine->map();
        bmt::NodeRef ref = map.geometry().leafNodeOf(0);
        while (ref.level > level)
            ref = bmt::Geometry::parentOf(ref);
        s.rig->nvm->tamper(map.nodeAddrOf(ref), 4, 0x20);
        expectNoSilentCorruption(s, 0);
    }
}

TEST_P(PostCrashTamperSweep, NeverWrittenDataBlockIsFlaggedOnRead)
{
    // Regression for the never-written tamper path: the attack
    // registers the all-zero block in the device store, recovery
    // succeeds (the data region is outside the rebuild), and the
    // first read must flag the nonzero ciphertext of a block whose
    // counter and HMAC entries are still zero.
    SweepRig s = makeCrashedRig(GetParam());
    const Addr untouched = 100 * kPageSize; // page never written
    EXPECT_FALSE(s.rig->nvm->tamper(untouched, 0, 0xff));
    const auto report = s.rig->engine->recover();
    ASSERT_TRUE(report.success) << report.detail;
    s.rig->engine->read(untouched);
    EXPECT_GT(s.rig->engine->violations(), 0ull)
        << "tamper of a never-written data block went undetected";
}

TEST_P(PostCrashTamperSweep, NeverWrittenCounterBlockFailsRecovery)
{
    // A flip inside the counter region of a never-written page plants
    // a phantom counter: the rebuild sweeps every persisted counter
    // block, so the recomputed root diverges from the NV register.
    SweepRig s = makeCrashedRig(GetParam());
    EXPECT_FALSE(s.rig->nvm->tamper(
        s.rig->engine->map().counterBase() + 200 * kBlockSize, 0,
        0x01));
    const auto report = s.rig->engine->recover();
    EXPECT_FALSE(report.success)
        << "phantom counter accepted by recovery";
}

INSTANTIATE_TEST_SUITE_P(
    Registry, PostCrashTamperSweep,
    ::testing::ValuesIn(core::persistentProtocols()),
    [](const auto &info) {
        return std::string(mee::protocolName(info.param));
    });

} // namespace
} // namespace amnt
