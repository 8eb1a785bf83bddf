#include "fault/crash_schedule.hh"

#include <cstdlib>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/env.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "core/amnt.hh"
#include "core/hybrid.hh"
#include "fault/fault.hh"

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

/** The fixed workload: identical for the count pass and every replay. */
std::vector<Op>
makeWorkload(const ScheduleConfig &cfg)
{
    if (cfg.pages * kPageSize > cfg.mee.dataBytes)
        panic("crash-schedule footprint exceeds dataBytes");
    if (cfg.blocksPerPage == 0 || cfg.blocksPerPage > kBlocksPerPage)
        panic("crash-schedule blocksPerPage outside [1, %u]",
              static_cast<unsigned>(kBlocksPerPage));
    Rng rng(cfg.workloadSeed);
    std::vector<Op> ops(cfg.workloadOps);
    for (unsigned i = 0; i < cfg.workloadOps; ++i) {
        Op &op = ops[i];
        op.isWrite = rng.chance(cfg.writeFraction);
        op.addr = rng.below(cfg.pages) * kPageSize +
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

/** The target under test: a flat or a hybrid secure memory. */
std::unique_ptr<mee::SecureMemory>
makeTarget(const ScheduleConfig &cfg)
{
    mee::MeeConfig m = cfg.mee;
    m.trackContents = true; // the oracle needs functional contents
    std::unique_ptr<mee::SecureMemory> memory;
    if (cfg.hybrid) {
        core::HybridConfig hc;
        hc.scmBytes = m.dataBytes;
        hc.dramBytes = m.dataBytes;
        hc.mee = m;
        memory = std::make_unique<core::HybridEngine>(hc);
    } else {
        memory = std::make_unique<core::FlatMemory>(cfg.protocol, m);
    }
    // Fetches skip their MAC check until a tamper; compare each skip
    // with the check it skips.
    memory->engine().setFetchCrossCheck(true);
    return memory;
}

/** How far one replay got. */
struct Progress
{
    bool fired = false; ///< the armed crash point fired

    /** Ops committed: op i committed iff i < committedOps. */
    std::size_t committedOps = 0;
};

/**
 * Replay @p ops until the armed boundary fires (or the workload ends,
 * which is also how the counting pass runs to completion).
 */
Progress
replay(mee::SecureMemory &memory, const FaultDomain &domain,
       const std::vector<Op> &ops)
{
    Progress p;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const Op &op = ops[i];
        const std::uint64_t closed_before = domain.commitsClosed();
        try {
            if (op.isWrite)
                memory.write(op.addr, patternBlock(op.pattern).data());
            else
                memory.read(op.addr);
        } catch (const CrashInjected &) {
            // The in-flight op committed iff its commit group closed
            // before the boundary fired — the crash then landed in the
            // op's deferred postCommit work (stop-loss persists, path
            // write-throughs, adaptation, movement).
            p.committedOps =
                domain.commitsClosed() > closed_before ? i + 1 : i;
            p.fired = true;
            return p;
        }
    }
    p.committedOps = ops.size();
    return p;
}

/** Inject a crash at @p point, recover, and run the full oracle. */
BoundaryOutcome
runOne(const ScheduleConfig &cfg, const std::vector<Op> &ops,
       std::uint64_t point)
{
    BoundaryOutcome out;
    out.point = point;

    const std::unique_ptr<mee::SecureMemory> memory = makeTarget(cfg);
    mee::SecureMemory &target = *memory;
    FaultDomain domain;
    target.setFaultDomain(&domain);
    domain.arm(point);

    // Injection lifecycle on the engine's trace track: the armed
    // boundary id (a1=1 distinguishes it from the organic Crash
    // instant the engine emits when the boundary actually fires).
    target.engine().tracer().instant(obs::EventClass::Crash, point, 1);

    const Progress p = replay(target, domain, ops);
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
    out.recovered = rec.success;
    if (!out.recovered) {
        out.detail = "recovery failed (" + rec.detail + ")";
        return out;
    }

    // Committed set: the SCM writes whose commit point persisted.
    std::vector<std::size_t> committed;
    for (std::size_t i = 0; i < p.committedOps; ++i) {
        if (ops[i].isWrite && ops[i].scm)
            committed.push_back(i);
    }

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

    // Counter differential: a Volatile reference engine replaying the
    // committed writes must agree with the recovered engine on every
    // counter block (both directions, so neither lost nor phantom
    // counters pass).
    mee::MeeConfig ref_cfg = cfg.mee;
    ref_cfg.trackContents = true;
    core::FlatMemory ref(mee::Protocol::Volatile, ref_cfg);
    for (std::size_t i : committed)
        ref.write(ops[i].addr, patternBlock(ops[i].pattern).data());
    const bmt::TreeState &want = ref.engine().treeState();
    const bmt::TreeState &have = target.engine().treeState();
    out.countersMatch = true;
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
    if (!out.countersMatch) {
        out.detail = "recovered counters diverge from the committed-"
                     "write reference replay";
        return out;
    }

    // Liveness: the recovered engine must accept and serve new writes.
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

    // Tamper probe: integrity detection must still be armed after
    // recovery. Target the most recent committed block (or the
    // liveness block when the crash preceded every commit); the
    // functional read forces the check.
    const Addr probe =
        committed.empty() ? live_addr : ops[committed.back()].addr;
    const std::uint64_t viol_before = target.violations();
    target.device().tamper(probe, 13, 0x40);
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

    // Count pass: enumerate every engine persist op once.
    {
        const std::unique_ptr<mee::SecureMemory> memory = makeTarget(cfg);
        FaultDomain domain;
        memory->setFaultDomain(&domain);
        domain.startCounting();
        replay(*memory, domain, ops);
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
