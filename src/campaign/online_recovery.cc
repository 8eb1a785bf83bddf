/**
 * @file
 * Online-recovery campaign: crash a protocol mid-workload, then keep
 * serving traffic while the recovery backlog drains, recording the
 * degraded-mode latency distribution.
 *
 * Phases (per protocol):
 *  1. steady   — cfg.ops zipfian-style references: the healthy
 *                latency distribution (p50/p90/p99).
 *  2. crash    — arm the fault domain cfg.crashAfter persist points
 *                ahead and run until the injected crash fires.
 *  3. recover  — run the protocol's recovery planner. Its NVM block
 *                traffic becomes a cycle backlog (read/write cycles
 *                from MeeConfig's bandwidth model). A protocol whose
 *                recovery fails (the volatile baseline) takes a cold
 *                restart instead: fresh device, fresh engine, no
 *                backlog — but all warmed state is gone.
 *  4. degraded — serve cfg.ops references while the backlog drains;
 *                each op is taxed one extra NVM read while recovery
 *                replay still owns the channel. The histogram is
 *                snapshotAndReset between phases, so degraded
 *                percentiles cannot be polluted by steady samples.
 *  5. post     — cfg.ops/2 references after the backlog is gone.
 */

#include "campaign/harness.hh"
#include "common/log.hh"
#include "core/protocol_registry.hh"
#include "fault/fault.hh"

namespace amnt::campaign
{

namespace
{

sim::WorkloadConfig
serveWorkload(const CampaignConfig &cfg, std::uint64_t seed)
{
    sim::WorkloadConfig w;
    w.name = "serve";
    w.kind = sim::WorkloadKind::Zipfian;
    w.footprintPages = cfg.dataBytes / kPageSize;
    w.writeFraction = cfg.writeFraction;
    w.zipfAlpha = 0.99;
    w.spatialRun = 0.2;
    w.seed = seed;
    return w;
}

void
fillOnlineRecovery(mee::Protocol p, const CampaignConfig &cfg,
                   ProtocolRow &row)
{
    const mee::CrashProfile profile = core::crashProfileOf(p);
    const std::uint64_t salt = protoSalt(cfg, p);
    Harness h(p, baseMee(cfg));
    Histogram lat = latencyHistogram();

    // Phase 1: steady state.
    {
        sim::Workload gen(serveWorkload(cfg, salt));
        for (unsigned i = 0; i < cfg.ops; ++i)
            lat.add(static_cast<double>(
                h.access(gen.next(), 0, cfg.dataBytes, salt)));
        const HistogramSummary s = lat.snapshotAndReset();
        row.u64("steady_ops", s.count);
        row.f64("steady_p50", s.p50);
        row.f64("steady_p90", s.p90);
        row.f64("steady_p99", s.p99);
    }

    // Phase 2: crash mid-workload. The serve stream writes often
    // enough that persist boundaries keep coming; the cap is a
    // safety net, not an expected exit.
    bool fired = false;
    std::uint64_t point = 0;
    {
        h.domain.armAfter(cfg.crashAfter);
        sim::Workload gen(serveWorkload(cfg, salt ^ 0x51ed));
        for (unsigned i = 0; i < 64 * cfg.crashAfter + cfg.ops; ++i) {
            try {
                h.access(gen.next(), 0, cfg.dataBytes, salt);
            } catch (const fault::CrashInjected &c) {
                fired = true;
                point = c.point();
                break;
            }
        }
        h.domain.disarm();
    }
    row.boolean("crash_fired", fired);
    row.u64("crash_point", point);

    // Phase 3: recovery. The planner's block traffic is the replay
    // backlog the degraded phase must absorb.
    Cycle backlog = 0;
    bool cold_restart = false;
    {
        h.engine().crash();
        const mee::RecoveryReport rep = h.engine().recover();
        row.boolean("recovered", rep.success);
        row.boolean("recover_expected", profile.persistent);
        row.u64("recovery_blocks_read", rep.blocksRead);
        row.u64("recovery_blocks_written", rep.blocksWritten);
        row.f64("recovery_est_ms", rep.estimatedMs);
        if (rep.success) {
            backlog = rep.blocksRead * h.mee.nvmReadCycles +
                      rep.blocksWritten * h.mee.nvmWriteCycles;
        } else {
            cold_restart = true;
            h.rebuildFresh();
        }
    }
    row.boolean("cold_restart", cold_restart);
    row.u64("recovery_backlog_cycles", backlog);

    // Phase 4: degraded service while replay owns part of the NVM
    // channel. Foreground ops pay one extra device read until the
    // backlog (drained at foreground speed) is gone.
    {
        sim::Workload gen(serveWorkload(cfg, salt ^ 0xdeaf));
        std::uint64_t window = 0;
        for (unsigned i = 0; i < cfg.ops; ++i) {
            Cycle c = h.access(gen.next(), 0, cfg.dataBytes, salt);
            if (backlog > 0) {
                c += h.mee.nvmReadCycles;
                backlog = backlog > c ? backlog - c : 0;
                ++window;
            }
            lat.add(static_cast<double>(c));
        }
        const HistogramSummary s = lat.snapshotAndReset();
        row.u64("degraded_window_ops", window);
        row.f64("degraded_p50", s.p50);
        row.f64("degraded_p90", s.p90);
        row.f64("degraded_p99", s.p99);
    }

    // Phase 5: post-recovery steady state.
    {
        sim::Workload gen(serveWorkload(cfg, salt ^ 0xf00d));
        for (unsigned i = 0; i < cfg.ops / 2; ++i)
            lat.add(static_cast<double>(
                h.access(gen.next(), 0, cfg.dataBytes, salt)));
        const HistogramSummary s = lat.snapshotAndReset();
        row.f64("post_p50", s.p50);
        row.f64("post_p99", s.p99);
    }
}

} // namespace

CampaignReport
runOnlineRecovery(const CampaignConfig &cfg)
{
    return runPerProtocol("online_recovery", cfg, fillOnlineRecovery);
}

} // namespace amnt::campaign
