/**
 * Golden regression pins for the paper harnesses.
 *
 * Seeded, scaled-down figure and table configurations run through the
 * same bench_util plumbing the real harnesses use, and their canonical
 * JSON serialization is compared byte-for-byte against checked-in
 * results/golden_*.json. The pins prove that infrastructure changes —
 * in particular the fault-injection hooks threaded through the persist
 * paths — change no simulated numbers while disarmed.
 *
 * Every value here is pinned explicitly (instruction counts, footprint
 * scaling, seeds); the AMNT_BENCH_* environment knobs are deliberately
 * not consulted, so the goldens hold under any environment.
 *
 * Regenerate after an intentional model change with:
 *   AMNT_GOLDEN_REGEN=1 ./build/tests/test_integration \
 *       --gtest_filter='GoldenFigures.*'
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/rng.hh"
#include "core/amnt.hh"
#include "core/hw_overhead.hh"
#include "core/protocol_registry.hh"
#include "core/recovery_planner.hh"

namespace amnt
{
namespace
{

std::string
goldenPath(const char *name)
{
    return std::string(AMNT_SOURCE_ROOT) + "/results/" + name;
}

/** Compare @p text with the golden file, or rewrite it under regen. */
void
checkGolden(const char *name, const std::string &text)
{
    const std::string path = goldenPath(name);
    if (std::getenv("AMNT_GOLDEN_REGEN") != nullptr) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << text;
        GTEST_SKIP() << "regenerated " << path;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << path << " missing; regenerate with AMNT_GOLDEN_REGEN=1";
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), text)
        << "simulated numbers drifted from " << path
        << " (intentional model changes must regenerate the golden "
           "with AMNT_GOLDEN_REGEN=1)";
}

/** One canonical line per swept configuration. */
std::string
outcomeRow(const std::string &label, const sweep::Job &job,
           const sweep::Outcome &o)
{
    const sim::RunResult &r = o.result;
    bench::JsonRow row;
    row.field("label", label)
        .field("protocol",
               std::string(mee::protocolName(job.config.protocol)))
        .field("amntpp", job.config.amntpp)
        .field("cycles", r.cycles)
        .field("app_instructions", r.appInstructions)
        .field("os_instructions", r.osInstructions)
        .field("data_accesses", r.dataAccesses)
        .field("mem_reads", r.memReads)
        .field("mem_writes", r.memWrites)
        .field("mcache_hit_rate", r.mcacheHitRate)
        .field("subtree_hit_rate", r.subtreeHitRate)
        .field("subtree_movements", r.subtreeMovements)
        .field("page_faults", r.pageFaults);
    return row.str();
}

TEST(GoldenFigures, Fig04PinnedConfigsMatchGolden)
{
    // Pinned miniature of the fig04 matrix: two benchmarks (one
    // metadata-cache-hostile, one write-heavy), the volatile baseline,
    // the five figure protocols, and amnt++.
    const std::uint64_t instr = 48000;
    const std::uint64_t warmup = 16000;
    const std::vector<std::string> benchmarks = {"canneal",
                                                 "fluidanimate"};

    std::vector<std::string> labels;
    std::vector<sweep::Job> jobs;
    for (const std::string &name : benchmarks) {
        sim::WorkloadConfig w = sim::parsecPreset(name);
        w.footprintPages =
            std::max<std::uint64_t>(256, w.footprintPages / 16);
        auto push = [&](sim::SystemConfig cfg, const char *suffix) {
            labels.push_back(name + "/" + suffix);
            jobs.push_back(bench::makeJob(cfg, {w}, instr, warmup));
        };
        push(bench::paperSystem(mee::Protocol::Volatile, 1), "volatile");
        for (mee::Protocol p : bench::figureProtocols())
            push(bench::paperSystem(p, 1), mee::protocolName(p));
        sim::SystemConfig pp =
            bench::paperSystem(mee::Protocol::Amnt, 1);
        pp.amntpp = true;
        push(pp, "amnt++");
        // Post-paper baselines ride after the paper's columns so the
        // original pinned rows stay byte-identical.
        for (mee::Protocol p : core::fig04ExtraProtocols())
            push(bench::paperSystem(p, 1), mee::protocolName(p));
    }

    const std::vector<sweep::Outcome> outcomes = sweep::run(jobs);
    std::string text;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        text += outcomeRow(labels[i], jobs[i], outcomes[i]) + "\n";
    checkGolden("golden_fig04.json", text);
}

TEST(GoldenFigures, Fig05PinnedConfigsMatchGolden)
{
    // Pinned miniature of the fig05 matrix: the paper's headline
    // multiprogram pair (bodytrack+fluidanimate, the one whose
    // interference AMNT++ is built to counteract) on the two-core
    // shared-LLC system, volatile baseline + figure protocols +
    // amnt++. Footprints are scaled down less aggressively than the
    // fig04 pin (/4): the combined hot sets must still overflow the
    // private caches and contend for one subtree region, otherwise
    // the ROI never reaches the secure memory controller and every
    // protocol pins identical cycles.
    const std::uint64_t instr = 48000;
    const std::uint64_t warmup = 16000;

    std::vector<sim::WorkloadConfig> procs;
    for (const char *name : {"bodytrack", "fluidanimate"}) {
        sim::WorkloadConfig w = sim::parsecPreset(name);
        w.footprintPages =
            std::max<std::uint64_t>(256, w.footprintPages / 4);
        // The full-scale fig05 run reaches the secure write path via
        // LLC pressure; the miniature ROI is too short for that, so
        // pin persistence-model flushes to keep every protocol's
        // write machinery inside the golden.
        w.flushWriteFraction = 0.05;
        procs.push_back(w);
    }

    std::vector<std::string> labels;
    std::vector<sweep::Job> jobs;
    auto push = [&](sim::SystemConfig cfg, const char *suffix) {
        labels.push_back(std::string("bodytrack+fluidanimate/") +
                         suffix);
        jobs.push_back(bench::makeJob(cfg, procs, instr, warmup));
    };
    push(bench::paperSystem(mee::Protocol::Volatile, 2), "volatile");
    for (mee::Protocol p : bench::figureProtocols())
        push(bench::paperSystem(p, 2), mee::protocolName(p));
    sim::SystemConfig pp = bench::paperSystem(mee::Protocol::Amnt, 2);
    pp.amntpp = true;
    push(pp, "amnt++");

    const std::vector<sweep::Outcome> outcomes = sweep::run(jobs);
    std::string text;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        text += outcomeRow(labels[i], jobs[i], outcomes[i]) + "\n";
    checkGolden("golden_fig05.json", text);
}

TEST(GoldenFigures, Fig06PinnedConfigsMatchGolden)
{
    // Pinned miniature of the fig06 matrix: the fig05 pin's pair and
    // scaling, the volatile baseline, and AMNT at every swept subtree
    // level with and without AMNT++. Each row carries the subtree hit
    // rate and movements, so this pin also covers every number
    // Figure 7 prints.
    const std::uint64_t instr = 48000;
    const std::uint64_t warmup = 16000;

    std::vector<sim::WorkloadConfig> procs;
    for (const char *name : {"bodytrack", "fluidanimate"}) {
        sim::WorkloadConfig w = sim::parsecPreset(name);
        w.footprintPages =
            std::max<std::uint64_t>(256, w.footprintPages / 4);
        w.flushWriteFraction = 0.05;
        procs.push_back(w);
    }

    std::vector<std::string> labels;
    std::vector<sweep::Job> jobs;
    auto push = [&](sim::SystemConfig cfg, const std::string &suffix) {
        labels.push_back("bodytrack+fluidanimate/" + suffix);
        jobs.push_back(bench::makeJob(cfg, procs, instr, warmup));
    };
    push(bench::paperSystem(mee::Protocol::Volatile, 2), "volatile");
    for (unsigned level = 2; level <= 7; ++level) {
        sim::SystemConfig cfg = bench::paperSystem(mee::Protocol::Amnt, 2);
        cfg.mee.amntSubtreeLevel = level;
        std::string l = "L";
        l += std::to_string(level);
        push(cfg, l + "/amnt");
        cfg.amntpp = true;
        push(cfg, l + "/amnt++");
    }

    const std::vector<sweep::Outcome> outcomes = sweep::run(jobs);
    std::string text;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        text += outcomeRow(labels[i], jobs[i], outcomes[i]) + "\n";
    checkGolden("golden_fig06.json", text);
}

TEST(GoldenFigures, Fig08PinnedConfigsMatchGolden)
{
    // Pinned miniature of the fig08 matrix: the four-core system with
    // its shared 8 MB LLC, four seeded copies of one SPEC CPU2017
    // program per job (as the harness runs them), the volatile
    // baseline and the figure protocols. xz is the paper's
    // write-intensive case, mcf its read-intensive one.
    const std::uint64_t instr = 48000;
    const std::uint64_t warmup = 16000;

    std::vector<std::string> labels;
    std::vector<sweep::Job> jobs;
    for (const char *name : {"xz", "mcf"}) {
        std::vector<sim::WorkloadConfig> procs;
        for (int copy = 0; copy < 4; ++copy) {
            sim::WorkloadConfig w = sim::specPreset(name);
            w.footprintPages =
                std::max<std::uint64_t>(256, w.footprintPages / 16);
            // The miniature ROI never fills the 8 MB LLC, so pin
            // persistence-model flushes to keep every protocol's
            // write path inside the golden, as in the fig05 pin.
            w.flushWriteFraction = 0.05;
            w.seed += static_cast<std::uint64_t>(copy) * 977;
            procs.push_back(w);
        }
        auto push = [&](sim::SystemConfig cfg, const char *suffix) {
            labels.push_back(std::string(name) + "/" + suffix);
            jobs.push_back(bench::makeJob(cfg, procs, instr, warmup));
        };
        push(bench::paperSystem(mee::Protocol::Volatile, 4), "volatile");
        for (mee::Protocol p : bench::figureProtocols())
            push(bench::paperSystem(p, 4), mee::protocolName(p));
    }

    const std::vector<sweep::Outcome> outcomes = sweep::run(jobs);
    std::string text;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        text += outcomeRow(labels[i], jobs[i], outcomes[i]) + "\n";
    checkGolden("golden_fig08.json", text);
}

TEST(GoldenFigures, AblationMcachePinnedConfigsMatchGolden)
{
    // Pinned miniature of the metadata-cache size ablation: canneal
    // (the cache-hostile workload the harness sweeps) scaled as in
    // the fig04 pin, the metadata cache at 16, 64 and 256 kB, and
    // the volatile baseline, Anubis and AMNT at each size. No other
    // pin varies the metadata cache's set count. Persistence-model
    // flushes keep dirty metadata and its write-backs inside the
    // golden, as in the fig05 pin.
    const std::uint64_t instr = 48000;
    const std::uint64_t warmup = 16000;

    sim::WorkloadConfig w = sim::parsecPreset("canneal");
    w.footprintPages = std::max<std::uint64_t>(256, w.footprintPages / 16);
    w.flushWriteFraction = 0.05;

    std::vector<std::string> labels;
    std::vector<sweep::Job> jobs;
    for (std::uint64_t kb : {16, 64, 256}) {
        for (mee::Protocol p : {mee::Protocol::Volatile,
                                mee::Protocol::Anubis,
                                mee::Protocol::Amnt}) {
            sim::SystemConfig cfg = bench::paperSystem(p, 1);
            cfg.mee.metaCache.sizeBytes = kb * 1024;
            labels.push_back(std::to_string(kb) + "kB/" +
                             mee::protocolName(p));
            jobs.push_back(bench::makeJob(cfg, {w}, instr, warmup));
        }
    }

    const std::vector<sweep::Outcome> outcomes = sweep::run(jobs);
    std::string text;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        text += outcomeRow(labels[i], jobs[i], outcomes[i]) + "\n";
    checkGolden("golden_ablation_mcache.json", text);
}

TEST(GoldenFigures, AblationIntervalPinnedConfigsMatchGolden)
{
    // Pinned miniature of the AMNT tracking-parameter ablation: the
    // fig06 pin's pair and scaling on the two-core system, the
    // volatile baseline, and AMNT at the harness's movement-prone
    // subtree level 5 across history intervals and buffer sizes.
    // Short intervals move the subtree often, so this pin drives the
    // movement bursts (moveSubtreeTo) that no other pin repeats.
    const std::uint64_t instr = 240000;
    const std::uint64_t warmup = 16000;

    std::vector<sim::WorkloadConfig> procs;
    for (const char *name : {"bodytrack", "fluidanimate"}) {
        sim::WorkloadConfig w = sim::parsecPreset(name);
        w.footprintPages =
            std::max<std::uint64_t>(256, w.footprintPages / 4);
        w.flushWriteFraction = 0.05;
        procs.push_back(w);
    }

    std::vector<std::string> labels;
    std::vector<sweep::Job> jobs;
    labels.push_back("volatile");
    jobs.push_back(bench::makeJob(
        bench::paperSystem(mee::Protocol::Volatile, 2), procs, instr,
        warmup));
    auto pushAmnt = [&](const char *knob, unsigned value,
                        unsigned interval, unsigned entries) {
        sim::SystemConfig cfg = bench::paperSystem(mee::Protocol::Amnt, 2);
        cfg.mee.amntSubtreeLevel = 5;
        cfg.mee.amntInterval = interval;
        cfg.mee.amntHistoryEntries = entries;
        std::string label = knob;
        label += std::to_string(value);
        labels.push_back(label);
        jobs.push_back(bench::makeJob(cfg, procs, instr, warmup));
    };
    for (unsigned interval : {8u, 32u, 64u, 256u, 1024u})
        pushAmnt("amnt/interval=", interval, interval, 64);
    for (unsigned entries : {4u, 16u, 128u})
        pushAmnt("amnt/entries=", entries, 64, entries);

    const std::vector<sweep::Outcome> outcomes = sweep::run(jobs);
    std::string text;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        text += outcomeRow(labels[i], jobs[i], outcomes[i]) + "\n";
    checkGolden("golden_ablation_interval.json", text);
}

TEST(GoldenFigures, Table2PinnedConfigsMatchGolden)
{
    // Pinned miniature of Table 2: one multiprogram pair under AMNT
    // with the unmodified and the AMNT++ operating system. Its rows
    // depend directly on the order in which the aged allocator hands
    // out frames. The miniature ROI is far shorter than the full
    // run, so page churn and the background reclamation pass are
    // pinned denser to keep AMNT++'s restructuring (and its
    // os_instructions cost) inside the golden, and persistence-model
    // flushes keep the secure write path in it as in the fig05 pin.
    const std::uint64_t instr = 48000;
    const std::uint64_t warmup = 16000;

    std::vector<sim::WorkloadConfig> procs;
    for (const char *name : {"x264", "freqmine"}) {
        sim::WorkloadConfig w = sim::parsecPreset(name);
        w.footprintPages =
            std::max<std::uint64_t>(256, w.footprintPages / 4);
        w.flushWriteFraction = 0.05;
        w.churnEvery = 32;
        procs.push_back(w);
    }

    sim::SystemConfig plain = bench::paperSystem(mee::Protocol::Amnt, 2);
    plain.daemonEvery = 8000;
    sim::SystemConfig pp = plain;
    pp.amntpp = true;
    const std::vector<std::string> labels = {"x264+freqmine/amnt",
                                             "x264+freqmine/amnt++"};
    const std::vector<sweep::Job> jobs = {
        bench::makeJob(plain, procs, instr, warmup),
        bench::makeJob(pp, procs, instr, warmup)};

    const std::vector<sweep::Outcome> outcomes = sweep::run(jobs);
    std::string text;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        text += outcomeRow(labels[i], jobs[i], outcomes[i]) + "\n";
    checkGolden("golden_table2.json", text);
}

TEST(GoldenFigures, Table3PinnedConfigsMatchGolden)
{
    // Area-model rows (pure arithmetic; paper Table 3) for the three
    // protocols whose hardware cost the paper compares in depth, at
    // the paper's 8 GB protected-data point.
    mee::MeeConfig cfg;
    cfg.dataBytes = 8ull << 30;
    std::string text;
    for (mee::Protocol p : {mee::Protocol::Anubis, mee::Protocol::Bmf,
                            mee::Protocol::Amnt}) {
        const core::HwOverhead hw = core::hwOverheadOf(p, cfg);
        bench::JsonRow row;
        row.field("label", std::string(mee::protocolName(p)))
            .field("nv_on_chip_bytes", hw.nvOnChip)
            .field("volatile_on_chip_bytes", hw.volatileOnChip)
            .field("in_memory_bytes", hw.inMemory);
        text += row.str() + "\n";
    }
    checkGolden("golden_table3.json", text);
}

TEST(GoldenFigures, Table4PinnedConfigsMatchGolden)
{
    std::string text;

    // Analytic recovery model rows (pure arithmetic, Table 4 sizes).
    core::RecoveryModel model;
    constexpr std::uint64_t kTb = 1ull << 40;
    const std::uint64_t sizes[] = {2 * kTb, 16 * kTb, 128 * kTb};
    auto analytic = [&](const std::string &label, auto fn) {
        bench::JsonRow row;
        row.field("label", label);
        for (std::uint64_t s : sizes)
            row.field(("ms_" + std::to_string(s / kTb) + "tb").c_str(),
                      fn(s));
        text += row.str() + "\n";
    };
    analytic("leaf", [&](std::uint64_t s) { return model.leafMs(s); });
    analytic("strict",
             [&](std::uint64_t s) { return model.strictMs(s); });
    analytic("anubis", [&](std::uint64_t) { return model.anubisMs(); });
    analytic("osiris",
             [&](std::uint64_t s) { return model.osirisMs(s); });
    analytic("bmf", [&](std::uint64_t s) { return model.bmfMs(s); });
    for (unsigned level = 2; level <= 4; ++level)
        analytic("amnt_l" + std::to_string(level),
                 [&, level](std::uint64_t s) {
                     return model.amntMs(s, level);
                 });
    // Post-paper baselines: Phoenix restores one epoch of nodes
    // (size-independent); STIT recomputes the inner tree like leaf.
    analytic("phoenix", [&](std::uint64_t) {
        return model.phoenixMs(mee::MeeConfig{}.phoenixEpoch);
    });
    analytic("stit", [&](std::uint64_t s) { return model.stitMs(s); });

    // Functional validation: real crash + recovery per protocol on a
    // pinned seeded workload (the table4 harness's second section).
    // Registry-ordered persistent protocols, so the new baselines
    // append after the paper's rows.
    const std::vector<mee::Protocol> protocols = {
        mee::Protocol::Strict, mee::Protocol::Leaf,
        mee::Protocol::Osiris, mee::Protocol::Anubis,
        mee::Protocol::Bmf,    mee::Protocol::Amnt,
        mee::Protocol::Phoenix, mee::Protocol::Stit};
    for (mee::Protocol p : protocols) {
        mee::MeeConfig cfg;
        cfg.dataBytes = 32ull << 20;
        cfg.trackContents = false;
        cfg.keySeed = 99;
        mem::NvmDevice nvm(mem::MemoryMap(cfg.dataBytes).deviceBytes());
        auto engine = core::makeEngine(p, cfg, nvm);
        Rng rng(4242);
        for (int w = 0; w < 6000; ++w)
            engine->write(rng.below(8192) * kPageSize +
                          rng.below(64) * kBlockSize);
        engine->crash();
        const mee::RecoveryReport report = engine->recover();
        bench::JsonRow row;
        row.field("label",
                  std::string("functional ") + mee::protocolName(p))
            .field("success", report.success)
            .field("blocks_read", report.blocksRead)
            .field("blocks_written", report.blocksWritten)
            .field("counters_recovered", report.countersRecovered)
            .field("nodes_recomputed", report.nodesRecomputed)
            .field("estimated_ms", report.estimatedMs);
        text += row.str() + "\n";
    }
    checkGolden("golden_table4.json", text);
}

/**
 * FNV-1a digest of every persisted block in [lo, hi), in address
 * order (each block's address, then its 64 bytes), as 16 hex digits.
 */
std::string
regionDigest(const mem::NvmDevice &nvm, Addr lo, Addr hi,
             std::uint64_t &blocks)
{
    std::vector<std::pair<Addr, mem::Block>> all;
    nvm.forEachBlockIn(lo, hi, [&all](Addr a, const mem::Block &b) {
        all.emplace_back(a, b);
    });
    std::sort(all.begin(), all.end(),
              [](const auto &x, const auto &y) { return x.first < y.first; });
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint8_t byte) {
        h ^= byte;
        h *= 0x100000001b3ULL;
    };
    for (const auto &[addr, bytes] : all) {
        for (unsigned i = 0; i < 8; ++i)
            mix(static_cast<std::uint8_t>(addr >> (8 * i)));
        for (std::uint8_t byte : bytes)
            mix(byte);
    }
    blocks = all.size();
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(h));
    return hex;
}

/** Persisted counter/HMAC/tree digests plus the root register. */
void
persistedFields(bench::JsonRow &row, const mee::MemoryEngine &engine,
                const mem::NvmDevice &nvm, const mem::MemoryMap &map)
{
    std::uint64_t n = 0;
    const std::string counters =
        regionDigest(nvm, map.counterBase(), map.hmacBase(), n);
    row.field("counter_digest", counters).field("counter_blocks", n);
    const std::string hmacs =
        regionDigest(nvm, map.hmacBase(), map.treeBase(), n);
    row.field("hmac_digest", hmacs).field("hmac_blocks", n);
    const std::string nodes =
        regionDigest(nvm, map.treeBase(), map.deviceBytes(), n);
    row.field("tree_digest", nodes)
        .field("tree_blocks", n)
        .field("root_register", engine.rootRegister());
}

TEST(GoldenFigures, PersistedStatePinnedMatchesGolden)
{
    // Node hash values reach no RunResult field, so the figure pins
    // cannot see them. This pin records the persisted metadata bytes
    // themselves: per registered protocol, a seeded functional-plane
    // run of writes and reads through a small metadata cache (so
    // evictions persist lazily), then a crash, a recovery and more
    // traffic. Each row digests the NVM counter, HMAC and tree
    // regions at the crash and at the end, with the root register.
    std::string text;
    for (mee::Protocol p : core::allProtocols()) {
        mee::MeeConfig cfg;
        cfg.dataBytes = 4ull << 20;
        cfg.metaCache = {"mcache", 8 * 1024, 8, 2};
        cfg.plane = crypto::CryptoPlane::Functional;
        cfg.trackContents = true;
        cfg.keySeed = 0x5eed;
        const mem::MemoryMap map(cfg.dataBytes);
        mem::NvmDevice nvm(map.deviceBytes());
        auto engine = core::makeEngine(p, cfg, nvm);

        Rng rng(2718);
        std::uint8_t buf[kBlockSize];
        auto traffic = [&](int ops) {
            for (int i = 0; i < ops; ++i) {
                const Addr addr = rng.below(1024) * kPageSize +
                                  rng.below(kBlocksPerPage) * kBlockSize;
                if (rng.below(3) == 0) {
                    engine->read(addr, buf);
                } else {
                    for (auto &byte : buf)
                        byte = static_cast<std::uint8_t>(rng.next());
                    engine->write(addr, buf);
                }
            }
        };

        traffic(1500);
        engine->crash();
        bench::JsonRow row;
        row.field("label", std::string(mee::protocolName(p)));
        persistedFields(row, *engine, nvm, map);
        text += row.str() + "\n";

        const mee::RecoveryReport report = engine->recover();
        bench::JsonRow after;
        after.field("label", std::string(mee::protocolName(p)) +
                                 " recovered")
            .field("success", report.success);
        if (report.success)
            traffic(500);
        persistedFields(after, *engine, nvm, map);
        text += after.str() + "\n";
    }
    checkGolden("golden_persisted.json", text);
}

} // namespace
} // namespace amnt
