/**
 * @file
 * Adversarial campaign: each protocol faces the access patterns and
 * attacks its CrashProfile claims to survive.
 *
 * Phases (per protocol, one Harness unless noted):
 *  1. thrash    — uniform GUPS read-modify-write over the whole
 *                 footprint with no spatial runs: every access lands
 *                 in a different counter/HMAC neighborhood, defeating
 *                 the (deliberately small) metadata cache.
 *  2. overflow  — hammer one block until its 7-bit minor counter
 *                 wraps repeatedly, forcing page re-encryptions.
 *  3. live tamper — flip persisted data bytes and a persisted counter
 *                 block under a running engine; the read path must
 *                 flag every attempt (all protocols: the data-MAC and
 *                 persisted-metadata-MAC checks are engine machinery).
 *  4. crash     — arm the fault domain mid-workload and crash at an
 *                 adversarially deferred boundary; recovery outcome
 *                 is judged against CrashProfile::persistent.
 *  5. at rest   — fresh harness: crash, flip a persisted counter
 *                 byte while powered off, recover. Detection is
 *                 judged against CrashProfile::tamperAtRestDetects.
 */

#include <algorithm>

#include "campaign/harness.hh"
#include "common/log.hh"
#include "core/protocol_registry.hh"
#include "fault/fault.hh"

namespace amnt::campaign
{

namespace
{

sim::WorkloadConfig
thrashWorkload(const CampaignConfig &cfg, std::uint64_t salt)
{
    sim::WorkloadConfig w;
    w.name = "thrash";
    w.kind = sim::WorkloadKind::Gups;
    w.footprintPages = cfg.dataBytes / kPageSize;
    w.writeFraction = cfg.writeFraction;
    w.spatialRun = 0.0;
    w.seed = salt;
    return w;
}

void
fillAdversarial(mee::Protocol p, const CampaignConfig &cfg,
                ProtocolRow &row)
{
    const mee::CrashProfile profile = core::crashProfileOf(p);
    const std::uint64_t salt = protoSalt(cfg, p);
    Harness h(p, baseMee(cfg));
    Histogram lat = latencyHistogram();

    // Phase 1: metadata-cache thrash.
    {
        sim::Workload gen(thrashWorkload(cfg, salt));
        for (unsigned i = 0; i < cfg.ops; ++i)
            lat.add(static_cast<double>(
                h.access(gen.next(), 0, cfg.dataBytes, salt)));
        const HistogramSummary s = lat.snapshotAndReset();
        row.u64("thrash_ops", s.count);
        row.f64("thrash_p50", s.p50);
        row.f64("thrash_p99", s.p99);
        row.f64("thrash_mcache_hit_rate",
                h.engine().metaCache().hitRate());
    }

    // Phase 2: counter-overflow forcing. kMinorCounterMax + 1 writes
    // wrap one slot once; drive several wraps.
    {
        const std::uint64_t before =
            h.engine().stats().get("overflow_reencrypts");
        const unsigned writes = std::max(
            cfg.ops, 3u * (static_cast<unsigned>(kMinorCounterMax) + 1));
        const Addr hot = 0;
        for (unsigned i = 0; i < writes; ++i) {
            const mem::Block data = patternBlock(hot, salt + i);
            lat.add(static_cast<double>(
                h.engine().write(hot, data.data())));
        }
        const HistogramSummary s = lat.snapshotAndReset();
        row.u64("overflow_writes", writes);
        row.u64("overflow_reencrypts",
                h.engine().stats().get("overflow_reencrypts") - before);
        row.f64("overflow_p99", s.p99);
    }

    // Phase 3: tamper while running. Data-block flips are caught by
    // the per-block data MAC on the very next read; a persisted
    // counter-block flip is caught by the persisted-metadata MAC when
    // the line is refetched (the thrash stream below evicts it first).
    {
        const unsigned victims = 6;
        std::uint64_t attempts = 0;
        std::uint64_t detected = 0;
        for (unsigned v = 0; v < victims; ++v) {
            const Addr addr =
                ((salt / 3 + v * 97) % (cfg.dataBytes / kBlockSize)) *
                kBlockSize;
            const mem::Block data = patternBlock(addr, salt + v);
            h.engine().write(addr, data.data());
            const std::uint64_t before = h.engine().violations();
            if (!h.device().tamper(addr, (v * 7) % kBlockSize,
                               static_cast<std::uint8_t>(0x11 + v)))
                continue;
            ++attempts;
            h.engine().read(addr);
            if (h.engine().violations() > before)
                ++detected;
            // XOR the flip back out (tamper is involutive): protocols
            // like osiris trial-MAC persisted data during recovery,
            // so leaving the corruption in NVM would fail the phase-4
            // crash oracle for reasons unrelated to the crash.
            h.device().tamper(addr, (v * 7) % kBlockSize,
                          static_cast<std::uint8_t>(0x11 + v));
        }
        row.u64("live_tamper_attempts", attempts);
        row.u64("live_tamper_detected", detected);

        // Metadata (counter-block) tamper: pick a written page, evict
        // its counter line with a read sweep, flip a persisted byte,
        // then touch the page again to force the verified refetch.
        const Addr victim = 0; // phase 2 hammered page 0
        const Addr caddr = h.engine().map().counterAddrOf(victim);
        sim::Workload evictor(thrashWorkload(cfg, salt ^ 0xe41c));
        unsigned spins = 0;
        while (h.engine().metaCache().contains(caddr) &&
               spins < 8 * cfg.ops) {
            const sim::MemRef ref = evictor.next();
            if (ref.type == AccessType::Read) {
                h.access(ref, 0, cfg.dataBytes, salt);
                ++spins;
            }
        }
        bool meta_detected = false;
        if (!h.engine().metaCache().contains(caddr) &&
            h.device().tamper(caddr, 1, 0x20)) {
            const std::uint64_t before = h.engine().violations();
            h.engine().read(victim);
            meta_detected = h.engine().violations() > before;
            // XOR the flip back out: the live detection is what this
            // phase measures; leaving NVM corrupted would make the
            // phase-4 crash oracle fail for reasons the protocol is
            // not accountable for.
            h.device().tamper(caddr, 1, 0x20);
        }
        row.boolean("meta_tamper_detected", meta_detected);
    }

    // Phase 4: crash at an adversarially deferred boundary. The
    // tampered metadata block above was refetched (and on write-back
    // protocols re-persisted) already; the crash exercises recovery
    // from a mid-thrash persist boundary.
    {
        h.domain.armAfter(cfg.crashAfter);
        sim::Workload gen(thrashWorkload(cfg, salt ^ 0x9d2c));
        bool fired = false;
        std::uint64_t point = 0;
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
        row.boolean("crash_fired", fired);
        row.u64("crash_point", point);
        bool recovered = false;
        double est_ms = 0.0;
        if (fired) {
            h.engine().crash();
            const mee::RecoveryReport rep = h.engine().recover();
            recovered = rep.success;
            est_ms = rep.estimatedMs;
        }
        row.boolean("crash_recovered", recovered);
        row.boolean("crash_expected_recover", profile.persistent);
        row.f64("crash_recovery_est_ms", est_ms);
    }

    // Phase 5: tamper at rest, on a fresh harness (phase 4 may have
    // left a non-persistent engine unrecovered).
    {
        Harness h2(p, baseMee(cfg));
        for (std::uint64_t i = 0; i < 64; ++i) {
            const Addr addr = i * kPageSize + (i % 8) * kBlockSize;
            const mem::Block data = patternBlock(addr, salt ^ i);
            h2.engine().write(addr, data.data());
        }
        h2.engine().crash();
        h2.device().tamper(h2.engine().map().counterBase() + 5 * kBlockSize,
                       1, 0x10);
        const mee::RecoveryReport rep = h2.engine().recover();
        row.boolean("at_rest_tamper_detected", !rep.success);
        row.boolean("at_rest_detect_expected",
                    profile.tamperAtRestDetects);
    }
}

} // namespace

CampaignReport
runAdversarial(const CampaignConfig &cfg)
{
    return runPerProtocol("adversarial", cfg, fillAdversarial);
}

} // namespace amnt::campaign
