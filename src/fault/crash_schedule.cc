#include "fault/crash_schedule.hh"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <unordered_map>
#include <utility>

#include "common/env.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "core/amnt.hh"
#include "core/hybrid.hh"
#include "fault/fault.hh"
#include "shard/sharded_engine.hh"

namespace amnt::fault
{

namespace
{

/** One replayable access of the seeded workload. */
struct Op
{
    bool isWrite = false;
    Addr addr = 0;
    std::uint64_t pattern = 0; ///< seed of the 64 B payload
    bool scm = true;           ///< false: hybrid DRAM partition
};

/** Expand a pattern seed into a 64 B payload. */
mem::Block
patternBlock(std::uint64_t seed)
{
    Rng rng(seed);
    mem::Block b;
    for (auto &byte : b)
        byte = static_cast<std::uint8_t>(rng.next());
    return b;
}

/**
 * The fixed workload: identical for the count pass and every replay.
 * Sharded runs spread the footprint pages evenly across the WHOLE
 * data range so every slice sees traffic — a contiguous low footprint
 * would leave all but slice 0 idle and the torn cases untested.
 */
std::vector<Op>
makeWorkload(const ScheduleConfig &cfg)
{
    if (cfg.hybrid && cfg.slices != 0)
        panic("crash-schedule hybrid and sharded targets are exclusive");
    if (cfg.pages * kPageSize > cfg.mee.dataBytes)
        panic("crash-schedule footprint exceeds dataBytes");
    if (cfg.blocksPerPage == 0 || cfg.blocksPerPage > kBlocksPerPage)
        panic("crash-schedule blocksPerPage outside [1, %u]",
              static_cast<unsigned>(kBlocksPerPage));
    const std::uint64_t spread =
        cfg.slices == 0 ? 1
                        : std::max<std::uint64_t>(
                              1, cfg.mee.dataBytes / kPageSize /
                                     cfg.pages);
    Rng rng(cfg.workloadSeed);
    std::vector<Op> ops(cfg.workloadOps);
    for (unsigned i = 0; i < cfg.workloadOps; ++i) {
        Op &op = ops[i];
        op.isWrite = rng.chance(cfg.writeFraction);
        op.addr = rng.below(cfg.pages) * spread * kPageSize +
                  rng.below(cfg.blocksPerPage) * kBlockSize;
        op.pattern = rng.next();
        // Hybrid machines interleave DRAM traffic: every fourth access
        // targets the volatile partition. Those are excluded from the
        // oracle — DRAM contents are lost at a crash by definition.
        if (cfg.hybrid && i % 4 == 3) {
            op.scm = false;
            op.addr += cfg.mee.dataBytes;
        }
    }
    return ops;
}

/**
 * The target under test. The oracle sees every target as slices
 * behind a partition: a flat or hybrid target is one slice with the
 * identity partition over its persistent data range. Only a sharded
 * target's epoch bookkeeping needs its concrete type.
 */
struct Harness
{
    explicit Harness(const ScheduleConfig &cfg)
        : part(cfg.mee.dataBytes, std::max(1u, cfg.slices))
    {
        mee::MeeConfig m = cfg.mee;
        m.trackContents = true; // the oracle needs functional contents
        if (cfg.slices != 0) {
            shard::ShardOptions so;
            so.slices = cfg.slices;
            so.lanes = 1; // injection forces serial drains anyway
            so.epochWrites = cfg.epochWrites;
            so.cores = 1;
            auto s = std::make_unique<shard::ShardedEngine>(
                cfg.protocol, m, so);
            sharded = s.get();
            memory = std::move(s);
        } else if (cfg.hybrid) {
            core::HybridConfig hc;
            hc.scmBytes = m.dataBytes;
            hc.dramBytes = m.dataBytes;
            hc.mee = m;
            memory = std::make_unique<core::HybridEngine>(hc);
        } else {
            memory = std::make_unique<core::FlatMemory>(cfg.protocol, m);
        }
        // Fetches skip their MAC check until a tamper or a torn-epoch
        // rollback; compare each skip with the check it skips.
        for (unsigned s = 0; s < memory->sliceCount(); ++s)
            memory->slice(s).setFetchCrossCheck(true);
    }

    shard::Partition part;
    std::unique_ptr<mee::SecureMemory> memory;
    const shard::ShardedEngine *sharded = nullptr;
};

/** How far one replay got. */
struct Progress
{
    bool fired = false; ///< the armed crash point fired

    /** Epoch each op was issued in; ~0 for ops never issued. */
    std::vector<std::uint64_t> epochOf;

    /**
     * Last committed epoch. Replay sets it for flat and hybrid
     * targets; a sharded target's commit record decides instead, read
     * back after recovery.
     */
    std::uint64_t committedEpoch = 0;
};

/**
 * Replay @p ops, then flush, until the armed boundary fires (or the
 * workload ends, which is also how the counting pass runs to
 * completion).
 */
Progress
replay(Harness &h, const FaultDomain &domain,
       const std::vector<Op> &ops)
{
    Progress p;
    p.epochOf.assign(ops.size(), ~0ull);
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const Op &op = ops[i];
        // A sharded engine buffers ops into its open epoch, queried
        // BEFORE the call: the issuing write itself may close it. A
        // flat or hybrid engine commits op by op, so op i is its own
        // epoch i + 1 and nothing coalesces.
        p.epochOf[i] =
            h.sharded != nullptr ? h.sharded->currentEpoch() : i + 1;
        const std::uint64_t closed_before = domain.commitsClosed();
        try {
            if (op.isWrite)
                h.memory->write(op.addr, patternBlock(op.pattern).data());
            else
                h.memory->read(op.addr);
        } catch (const CrashInjected &) {
            // A flat or hybrid in-flight op committed iff its commit
            // group closed before the boundary fired — the crash then
            // landed in the op's deferred postCommit work (stop-loss
            // persists, path write-throughs, adaptation, movement).
            p.committedEpoch =
                domain.commitsClosed() > closed_before ? i + 1 : i;
            p.fired = true;
            return p;
        }
    }
    p.committedEpoch = ops.size();
    try {
        h.memory->flush();
    } catch (const CrashInjected &) {
        p.fired = true;
    }
    return p;
}

/** Inject a crash at @p point, recover, and run the full oracle. */
BoundaryOutcome
runOne(const ScheduleConfig &cfg, const std::vector<Op> &ops,
       std::uint64_t point)
{
    BoundaryOutcome out;
    out.point = point;

    Harness h(cfg);
    mee::SecureMemory &target = *h.memory;
    FaultDomain domain;
    target.setFaultDomain(&domain);
    domain.arm(point);

    // Injection lifecycle on the engine's trace track: the armed
    // boundary id (a1=1 distinguishes it from the organic Crash
    // instant the engine emits when the boundary actually fires).
    target.slice(0).tracer().instant(obs::EventClass::Crash, point, 1);

    Progress p = replay(h, domain, ops);
    out.fired = p.fired;
    if (!out.fired) {
        out.detail = "armed boundary never fired: replay diverged "
                     "from the count pass";
        return out;
    }

    // Crash and recover. The domain disarmed itself when it fired, so
    // recovery and the oracle's own persists run freely.
    target.crash();
    const mee::RecoveryReport rec = target.recover();
    if (h.sharded != nullptr) {
        out.tornSlices =
            h.sharded->stats().get("torn_epochs_rolled_back");
        p.committedEpoch = h.sharded->committedEpoch();
    }
    out.recovered = rec.success;
    if (!out.recovered) {
        out.detail = "recovery failed (" + rec.detail + ")";
        return out;
    }

    // Committed set: the SCM writes whose epoch committed. A sharded
    // write is committed iff its epoch's cross-shard commit record
    // persisted; a torn epoch's writes — even on slices that finished
    // draining — are not, and the oracle below fails if any survived
    // rollback.
    std::vector<std::size_t> committed;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        if (ops[i].isWrite && ops[i].scm &&
            p.epochOf[i] <= p.committedEpoch)
            committed.push_back(i);
    }

    // Epoch coalescing: a sharded engine applies only the LAST write
    // per (epoch, block). The reference replay below mirrors that, or
    // its counters would over-count coalesced writes.
    std::map<std::pair<std::uint64_t, Addr>, std::size_t> last_in_epoch;
    for (std::size_t i : committed)
        last_in_epoch[{p.epochOf[i], ops[i].addr}] = i;

    // Contents oracle: the last committed payload of every durably
    // committed block must decrypt bit-exactly, with zero violations.
    std::unordered_map<Addr, std::uint64_t> last;
    for (std::size_t i : committed)
        last[ops[i].addr] = ops[i].pattern;
    out.contentsOk = true;
    for (std::size_t i : committed) {
        const Op &op = ops[i];
        if (last.at(op.addr) != op.pattern)
            continue; // superseded by a later committed write
        const mem::Block expect = patternBlock(op.pattern);
        mem::Block got{};
        target.read(op.addr, got.data());
        if (got != expect) {
            out.contentsOk = false;
            out.detail = "committed block at address " +
                         std::to_string(op.addr) +
                         " lost or corrupted after recovery";
            break;
        }
    }
    if (out.contentsOk && target.violations() != 0) {
        out.contentsOk = false;
        out.detail = "integrity violations while reading committed "
                     "blocks back";
    }
    if (!out.contentsOk)
        return out;

    // Counter differential, per slice: a Volatile reference engine at
    // slice geometry replaying that slice's committed writes (after
    // coalescing) must agree with the recovered slice on every counter
    // block (both directions, so neither lost nor phantom counters
    // pass).
    const shard::Partition &part = h.part;
    out.countersMatch = true;
    for (unsigned s = 0; s < part.slices && out.countersMatch; ++s) {
        mee::MeeConfig ref_cfg = cfg.mee;
        ref_cfg.trackContents = true;
        ref_cfg.dataBytes = part.sliceBytes;
        core::FlatMemory ref(mee::Protocol::Volatile, ref_cfg);
        for (std::size_t i : committed) {
            const Op &op = ops[i];
            if (part.shardFor(op.addr) != s)
                continue;
            if (last_in_epoch.at({p.epochOf[i], op.addr}) != i)
                continue; // coalesced into a later same-epoch write
            ref.write(part.localAddr(op.addr),
                       patternBlock(op.pattern).data());
        }
        const bmt::TreeState &want = ref.engine().treeState();
        const bmt::TreeState &have = target.slice(s).treeState();
        want.forEachCounter(
            [&](std::uint64_t idx, const bmt::CounterBlock &cb) {
                if (have.counter(idx) != cb)
                    out.countersMatch = false;
            });
        have.forEachCounter(
            [&](std::uint64_t idx, const bmt::CounterBlock &cb) {
                if (want.counter(idx) != cb)
                    out.countersMatch = false;
            });
    }
    if (!out.countersMatch) {
        out.detail = "recovered counters diverge from the committed-"
                     "write reference replay";
        return out;
    }

    // Liveness: the recovered engine must accept and serve new writes
    // (a sharded engine's functional read drains them synchronously).
    const Addr live_addr = 0;
    const mem::Block live = patternBlock(0x11fe ^ point);
    target.write(live_addr, live.data());
    mem::Block live_back{};
    target.read(live_addr, live_back.data());
    out.liveness = live_back == live && target.violations() == 0;
    if (!out.liveness) {
        out.detail = "post-recovery write/read round trip failed";
        return out;
    }

    // Tamper probe: integrity detection must still be armed on the
    // probed slice after recovery. Target the most recent committed
    // block (or the liveness block when the crash preceded every
    // commit); the functional read forces the check.
    const Addr probe =
        committed.empty() ? live_addr : ops[committed.back()].addr;
    const std::uint64_t viol_before = target.violations();
    target.sliceDevice(part.shardFor(probe))
        .tamper(part.localAddr(probe), 13, 0x40);
    mem::Block sink{};
    target.read(probe, sink.data());
    out.tamperDetected = target.violations() > viol_before;
    if (!out.tamperDetected)
        out.detail = "post-recovery tamper of a committed block went "
                     "undetected";
    return out;
}

} // namespace

std::string
ScheduleReport::describeFailures() const
{
    std::string s;
    for (const auto &f : failures) {
        s += "boundary " + std::to_string(f.point) + ": " + f.detail;
        s += " [fired=" + std::to_string(f.fired) +
             " recovered=" + std::to_string(f.recovered) +
             " contents=" + std::to_string(f.contentsOk) +
             " counters=" + std::to_string(f.countersMatch) +
             " tamper=" + std::to_string(f.tamperDetected) +
             " live=" + std::to_string(f.liveness) + "]";
        s += " (reproduce: AMNT_FAULT_POINT=" +
             std::to_string(f.point) + ")\n";
    }
    return s;
}

ScheduleConfig
applyEnv(ScheduleConfig cfg)
{
    cfg.stride = envU64("AMNT_FAULT_STRIDE", cfg.stride);
    if (cfg.stride == 0)
        cfg.stride = 1;
    cfg.sampleSeed = envU64("AMNT_FAULT_SEED", cfg.sampleSeed);
    if (std::getenv("AMNT_FAULT_POINT") != nullptr)
        cfg.onlyPoint = envU64("AMNT_FAULT_POINT", 0);
    return cfg;
}

ScheduleReport
runCrashSchedule(const ScheduleConfig &cfg)
{
    const std::vector<Op> ops = makeWorkload(cfg);
    ScheduleReport report;

    // Count pass: enumerate every boundary once — engine persist ops
    // and, for a sharded target, the per-slice drain fences and each
    // epoch's commit record.
    {
        Harness h(cfg);
        FaultDomain domain;
        h.memory->setFaultDomain(&domain);
        domain.startCounting();
        replay(h, domain, ops);
        report.totalBoundaries = domain.events();
    }

    const std::uint64_t stride = cfg.stride == 0 ? 1 : cfg.stride;
    std::uint64_t first = 0;
    if (cfg.sampleSeed != 0 && stride > 1)
        first = Rng(cfg.sampleSeed).below(stride);

    for (std::uint64_t k = cfg.onlyPoint ? *cfg.onlyPoint : first;
         k < report.totalBoundaries; k += stride) {
        BoundaryOutcome out = runOne(cfg, ops, k);
        ++report.tested;
        if (!out.ok())
            report.failures.push_back(std::move(out));
        if (cfg.onlyPoint)
            break;
    }
    if (cfg.onlyPoint && report.tested == 0) {
        BoundaryOutcome out;
        out.point = *cfg.onlyPoint;
        out.detail = "AMNT_FAULT_POINT beyond the boundary count (" +
                     std::to_string(report.totalBoundaries) + ")";
        report.failures.push_back(std::move(out));
    }
    return report;
}

BoundaryOutcome
runBoundary(const ScheduleConfig &cfg, std::uint64_t point)
{
    const std::vector<Op> ops = makeWorkload(cfg);
    return runOne(cfg, ops, point);
}

} // namespace amnt::fault
