/**
 * @file
 * The memory-side thread (sim/memory_pipe.hh) changes who applies the
 * secure-memory ops, never what they compute. Pinned here:
 *
 *  - System parity: every registry protocol on 1-, 2- and 4-core
 *    systems gives a byte-identical RunResult and statsJson with the
 *    helper thread forced on and forced off, where neither run's op
 *    count is a multiple of the batch size and the warm-up ends in
 *    the middle of a batch.
 *  - Pipe parity: seeded op streams through the pipe (helper on and
 *    off, drains mid-batch and on a batch edge) match direct calls on
 *    a twin flat and hybrid memory, latency for latency.
 *  - An exception on the helper resurfaces at the next drain.
 *  - The helper budget: grants never take the total past the hardware
 *    threads, and a full-width sweep grants none.
 */

#include <gtest/gtest.h>

#include <barrier>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "core/amnt.hh"
#include "core/hybrid.hh"
#include "core/protocol_registry.hh"
#include "obs/registry.hh"
#include "sim/presets.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"

using namespace amnt;
using Helper = sim::MemoryPipe::Helper;

namespace
{

constexpr std::uint64_t kBatch = sim::MemoryPipe::kBatchOps;

/** A system small enough that most references reach the memory. */
sim::SystemConfig
missHeavyConfig(mee::Protocol p, unsigned cores)
{
    sim::SystemConfig cfg = sim::SystemConfig::singleProgram(p);
    cfg.cores = cores;
    cfg.mee.dataBytes = 1ull << 30;
    cfg.privateLevels = {{"l1d", 4 * 1024, 4, 2},
                         {"l2", 16 * 1024, 4, 12}};
    if (cores > 1)
        cfg.sharedLlc = cache::CacheConfig{"l3", 64 * 1024, 8, 30};
    return cfg;
}

sim::WorkloadConfig
process(unsigned core)
{
    sim::WorkloadConfig w = sim::parsecPreset(core % 2 ? "fluidanimate"
                                                        : "canneal");
    w.footprintPages = 512;
    w.seed = 11 + core;
    return w;
}

struct Outcome
{
    sim::RunResult result;
    std::string stats;
    std::uint64_t offloaded = 0;
};

constexpr std::uint64_t kInstr = 24000;
constexpr std::uint64_t kWarmup = 20000;

Outcome
runSystem(const sim::SystemConfig &cfg, Helper mode,
          std::uint64_t instr = kInstr, std::uint64_t warmup = kWarmup)
{
    sim::System sys(cfg);
    sys.memoryPipe().setHelper(mode);
    for (unsigned c = 0; c < cfg.cores; ++c)
        sys.addProcess(process(c));
    Outcome o;
    o.result = sys.run(instr, warmup);
    o.stats = sys.statsJson();
    o.offloaded = sys.memoryPipe().offloadedBatches();
    return o;
}

void
expectSameResult(const sim::RunResult &a, const sim::RunResult &b,
                 const std::string &what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.appInstructions, b.appInstructions) << what;
    EXPECT_EQ(a.osInstructions, b.osInstructions) << what;
    EXPECT_EQ(a.dataAccesses, b.dataAccesses) << what;
    EXPECT_EQ(a.memReads, b.memReads) << what;
    EXPECT_EQ(a.memWrites, b.memWrites) << what;
    EXPECT_EQ(a.mcacheHitRate, b.mcacheHitRate) << what;
    EXPECT_EQ(a.subtreeHitRate, b.subtreeHitRate) << what;
    EXPECT_EQ(a.subtreeMovements, b.subtreeMovements) << what;
    EXPECT_EQ(a.pageFaults, b.pageFaults) << what;
}

TEST(MemoryPipe, MiniatureStreamsEndMidBatch)
{
    // The front end's op stream does not depend on the protocol or the
    // memory, so one volatile flat run per core count shows where the
    // parity runs below cut their batches: the warm-up boundary and
    // the end of the run both fall inside a batch, after at least one
    // full batch each.
    for (unsigned cores : {1u, 2u, 4u}) {
        sim::System sys(missHeavyConfig(mee::Protocol::Volatile, cores));
        for (unsigned c = 0; c < cores; ++c)
            sys.addProcess(process(c));
        sys.run(kWarmup, 0); // the parity runs' warm-up, measured
        const std::uint64_t boundary = sys.memoryPipe().opsPushed();
        sys.run(kInstr, 0); // continue to their end
        const std::uint64_t total = sys.memoryPipe().opsPushed();
        const std::string what = std::to_string(cores) + " cores";
        EXPECT_GT(boundary, kBatch) << what;
        EXPECT_NE(boundary % kBatch, 0u) << what;
        EXPECT_GT(total - boundary, kBatch) << what;
        EXPECT_NE(total % kBatch, 0u) << what;
    }
}

class MemoryPipeParity : public ::testing::TestWithParam<mee::Protocol>
{
};

TEST_P(MemoryPipeParity, SystemRunsMatchHelperOnAndOff)
{
    const mee::Protocol p = GetParam();
    for (unsigned cores : {1u, 2u, 4u}) {
        const sim::SystemConfig cfg = missHeavyConfig(p, cores);
        const std::string what = "cores " + std::to_string(cores);
        const Outcome off = runSystem(cfg, Helper::Never);
        const Outcome on = runSystem(cfg, Helper::Always);
        EXPECT_EQ(off.offloaded, 0u) << what;
        EXPECT_GE(on.offloaded, 2u) << what;
        expectSameResult(on.result, off.result, what);
        EXPECT_EQ(on.stats, off.stats) << what;
    }
}

// Every registry protocol, so a new one is enrolled automatically.
INSTANTIATE_TEST_SUITE_P(
    EveryProtocol, MemoryPipeParity,
    ::testing::ValuesIn(core::allProtocols()),
    [](const ::testing::TestParamInfo<mee::Protocol> &info) {
        return std::string(mee::protocolName(info.param));
    });

TEST(MemoryPipe, AmntPlusPlusParity)
{
    // The AMNT++ daemon restructures the allocator on an instruction
    // clock mid-run; its frames, and so the op stream, must not move.
    sim::SystemConfig cfg = missHeavyConfig(mee::Protocol::Amnt, 2);
    cfg.amntpp = true;
    cfg.daemonEvery = 3000;
    const Outcome off = runSystem(cfg, Helper::Never);
    const Outcome on = runSystem(cfg, Helper::Always);
    EXPECT_GE(on.offloaded, 2u);
    expectSameResult(on.result, off.result, "amnt++");
    EXPECT_EQ(on.stats, off.stats);
}

// ---------------------------------------------------------- pipe level

mee::MeeConfig
smallMee()
{
    mee::MeeConfig cfg;
    cfg.dataBytes = 64ull << 20;
    cfg.metaCache = {"mcache", 8 * 1024, 8, 2};
    return cfg;
}

using MemoryFactory = std::function<std::unique_ptr<mee::SecureMemory>()>;

struct Kind
{
    const char *name;
    std::uint64_t bytes; ///< addressable data bytes
    MemoryFactory make;
};

std::vector<Kind>
memoryKinds()
{
    std::vector<Kind> kinds;
    kinds.push_back({"flat", smallMee().dataBytes, [] {
                         return std::make_unique<core::FlatMemory>(
                             mee::Protocol::Amnt, smallMee());
                     }});
    core::HybridConfig hc;
    hc.scmBytes = 32ull << 20;
    hc.dramBytes = 32ull << 20;
    hc.mee = smallMee();
    kinds.push_back({"hybrid", hc.scmBytes + hc.dramBytes, [hc] {
                         return std::make_unique<core::HybridEngine>(hc);
                     }});
    return kinds;
}

constexpr unsigned kCores = 4;

/** Op i of the seeded stream: address, core, write. */
struct Op
{
    Addr addr;
    unsigned core;
    bool write;
};

std::vector<Op>
opStream(std::uint64_t n, std::uint64_t bytes)
{
    Rng rng(0x9e11);
    std::vector<Op> ops;
    ops.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        // A hot 256-block window plus uniform traffic, so the metadata
        // cache both hits and evicts.
        const std::uint64_t blocks = bytes / kBlockSize;
        const std::uint64_t b =
            rng.chance(0.5) ? rng.below(256) : rng.below(blocks);
        ops.push_back({b * kBlockSize,
                       static_cast<unsigned>(rng.below(kCores)),
                       rng.chance(0.4)});
    }
    return ops;
}

std::string
statsOf(mee::SecureMemory &m)
{
    obs::StatRegistry reg;
    m.registerStats(reg);
    return reg.dumpJson();
}

TEST(MemoryPipe, PipeMatchesDirectCallsOnEveryMemoryKind)
{
    // Drains after a partial batch, exactly on a batch edge, and at a
    // ragged end.
    // Batches restart at every drain, so the second cut, two whole
    // batches after the first, drains on a batch edge.
    const std::vector<std::uint64_t> cuts = {
        5000, 5000 + 2 * kBatch, 5000 + 5 * kBatch + 123};
    for (const Kind &kind : memoryKinds()) {
        const std::vector<Op> ops = opStream(cuts.back(), kind.bytes);

        auto direct = kind.make();
        std::vector<std::vector<Cycle>> want;
        std::vector<Cycle> acc(kCores, 0);
        std::uint64_t i = 0;
        for (std::uint64_t cut : cuts) {
            for (; i < cut; ++i) {
                const Op &op = ops[i];
                acc[op.core] += op.write ? direct->write(op.addr)
                                         : direct->read(op.addr);
            }
            want.push_back(acc);
        }
        const std::string want_stats = statsOf(*direct);

        for (Helper mode : {Helper::Never, Helper::Always, Helper::Budget}) {
            const std::string what =
                std::string(kind.name) + " mode " +
                std::to_string(static_cast<int>(mode));
            auto memory = kind.make();
            sim::MemoryPipe pipe(*memory, kCores, kind.bytes);
            pipe.setHelper(mode);
            std::vector<Cycle> got(kCores, 0);
            std::uint64_t j = 0;
            for (std::size_t c = 0; c < cuts.size(); ++c) {
                for (; j < cuts[c]; ++j) {
                    const Op &op = ops[j];
                    op.write ? pipe.write(op.addr, op.core)
                             : pipe.read(op.addr, op.core);
                }
                pipe.drain(got);
                EXPECT_EQ(got, want[c]) << what << " cut " << c;
                EXPECT_EQ(pipe.opsPushed(), cuts[c]) << what;
            }
            EXPECT_EQ(statsOf(*memory), want_stats) << what;
            if (mode == Helper::Never) {
                EXPECT_EQ(pipe.offloadedBatches(), 0u) << what;
            }
            if (mode == Helper::Always) {
                EXPECT_EQ(pipe.offloadedBatches(), 2u + 2u + 4u) << what;
            }
        }
    }
}

/** Flat memory that throws on its @p failAt-th read. */
class FailingMemory final : public mee::SecureMemory
{
  public:
    explicit FailingMemory(std::uint64_t fail_at)
        : inner_(mee::Protocol::Volatile, smallMee()), failAt_(fail_at)
    {
    }

    Cycle
    read(Addr a, std::uint8_t *out) override
    {
        if (++reads_ == failAt_)
            throw std::runtime_error("injected read failure");
        return inner_.read(a, out);
    }
    Cycle
    write(Addr a, const std::uint8_t *d) override
    {
        return inner_.write(a, d);
    }
    void crash() override { inner_.crash(); }
    mee::RecoveryReport recover() override { return inner_.recover(); }
    std::uint64_t violations() const override
    {
        return inner_.violations();
    }
    void setFaultDomain(fault::FaultDomain *d) override
    {
        inner_.setFaultDomain(d);
    }
    void registerStats(obs::StatRegistry &r) override
    {
        inner_.registerStats(r);
    }
    mee::MemoryEngine &engine() override { return inner_.engine(); }
    mem::NvmDevice &device() override { return inner_.device(); }

    std::uint64_t reads() const { return reads_; }

  private:
    core::FlatMemory inner_;
    std::uint64_t failAt_;
    std::uint64_t reads_ = 0;
};

TEST(MemoryPipe, HelperExceptionResurfacesAtDrain)
{
    FailingMemory memory(kBatch + 10);
    std::uint64_t reads = 0;
    {
        sim::MemoryPipe pipe(memory, 1, smallMee().dataBytes);
        pipe.setHelper(Helper::Always);
        // Six batches: the failure hits the second, and the producer
        // never blocks on the ring the failed helper still drains.
        for (std::uint64_t i = 0; i < 6 * kBatch; ++i)
            pipe.read((i % 1024) * kBlockSize, 0);
        std::vector<Cycle> lat(1, 0);
        EXPECT_THROW(pipe.drain(lat), std::runtime_error);
        reads = memory.reads();
        // The pipe is usable again after the failure surfaced.
        pipe.read(0, 0);
        EXPECT_NO_THROW(pipe.drain(lat));
    }
    // Batches after the failing one were skipped, not applied.
    EXPECT_EQ(reads, kBatch + 10);
}

TEST(MemoryPipe, InlineExceptionPropagatesFromTheFillingPush)
{
    FailingMemory memory(5);
    sim::MemoryPipe pipe(memory, 1, smallMee().dataBytes);
    pipe.setHelper(Helper::Never);
    for (std::uint64_t i = 0; i + 1 < kBatch; ++i)
        pipe.read(i * kBlockSize, 0);
    EXPECT_THROW(pipe.read(0, 0), std::runtime_error);
}

// --------------------------------------------------------- the budget

TEST(HostBudgetTest, GrantsNeverExceedHardwareThreads)
{
    const unsigned hw = ThreadPool::hardwareThreads();
    ASSERT_EQ(HostBudget::inUse(), 0u);
    std::vector<unsigned> grants;
    // Outside any sweep the caller is counted with its helper.
    while (const unsigned slots = HostBudget::grantHelper()) {
        EXPECT_EQ(slots, 2u);
        grants.push_back(slots);
        EXPECT_LE(HostBudget::inUse(), hw);
    }
    EXPECT_EQ(grants.size(), hw / 2);
    for (unsigned s : grants)
        HostBudget::releaseHelper(s);
    EXPECT_EQ(HostBudget::inUse(), 0u);
}

TEST(HostBudgetTest, FullWidthSweepGrantsNoHelper)
{
    const unsigned hw = ThreadPool::hardwareThreads();
    std::barrier sync(hw);
    std::vector<unsigned> granted(hw, 99);
    sweep::parallelFor(
        hw,
        [&](std::size_t i) {
            sync.arrive_and_wait(); // every worker is running a task
            granted[i] = HostBudget::grantHelper();
            EXPECT_EQ(HostBudget::inUse(), hw);
            sync.arrive_and_wait();
        },
        hw);
    for (unsigned g : granted)
        EXPECT_EQ(g, 0u);
    EXPECT_EQ(HostBudget::inUse(), 0u);
}

TEST(HostBudgetTest, NarrowSweepsLendIdleCores)
{
    const unsigned hw = ThreadPool::hardwareThreads();
    // An inline sweep counts its calling thread as its one worker.
    sweep::parallelFor(
        1,
        [&](std::size_t) {
            EXPECT_EQ(HostBudget::inUse(), 1u);
            const unsigned slots = HostBudget::grantHelper();
            EXPECT_EQ(slots, hw >= 2 ? 1u : 0u);
            EXPECT_LE(HostBudget::inUse(), hw);
            HostBudget::releaseHelper(slots);
        },
        1);
    if (hw < 4)
        return;
    // Two workers on a wider host: each may take one helper.
    std::barrier sync(2);
    std::vector<unsigned> granted(2, 0);
    sweep::parallelFor(
        2,
        [&](std::size_t i) {
            sync.arrive_and_wait();
            granted[i] = HostBudget::grantHelper();
            sync.arrive_and_wait();
            EXPECT_EQ(HostBudget::inUse(), 4u);
            sync.arrive_and_wait();
            HostBudget::releaseHelper(granted[i]);
        },
        2);
    EXPECT_EQ(granted[0], 1u);
    EXPECT_EQ(granted[1], 1u);
    EXPECT_EQ(HostBudget::inUse(), 0u);
}

TEST(HostBudgetTest, SweepTailReturnsWorkerSlots)
{
    const unsigned hw = ThreadPool::hardwareThreads();
    if (hw < 2)
        GTEST_SKIP() << "needs two hardware threads";
    // Two workers, three tasks: the last task runs alone, and by then
    // the idle worker's slot is back in the budget.
    std::barrier sync(2);
    unsigned seen_last = 0;
    sweep::parallelFor(
        3,
        [&](std::size_t i) {
            if (i < 2) {
                sync.arrive_and_wait();
                return;
            }
            // Task 2 starts once one of the first two finished; wait
            // for the other one to finish too.
            while (HostBudget::inUse() > 1)
                std::this_thread::yield();
            seen_last = HostBudget::inUse();
        },
        2);
    EXPECT_EQ(seen_last, 1u);
    EXPECT_EQ(HostBudget::inUse(), 0u);
}

} // namespace
