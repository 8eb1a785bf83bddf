/**
 * Ablation: metadata cache size sensitivity (section 6.6's argument).
 *
 * Anubis's runtime and recovery scale with the metadata cache, while
 * AMNT's area is constant and its runtime depends only on workload
 * spatial locality. Sweeping the metadata cache from 16 kB to 256 kB
 * on a cache-hostile workload (canneal) shows Anubis's overhead
 * tracking the cache miss rate while AMNT stays flat.
 */

#include "bench_util.hh"
#include "core/hw_overhead.hh"

using namespace amnt;
using namespace amnt::bench;

int
main(int argc, char **argv)
{
    const std::uint64_t instr = benchInstructions() / 2;
    const std::uint64_t warmup = benchWarmup() / 2;
    JsonSink json(argc, argv, "ablation_mcache");
    const sim::WorkloadConfig w = scaled(sim::parsecPreset("canneal"));

    const std::vector<std::uint64_t> sizes = {16, 32, 64, 128, 256};
    std::vector<sweep::Job> jobs;
    for (std::uint64_t kb : sizes) {
        auto mk = [&](mee::Protocol p) {
            sim::SystemConfig cfg = paperSystem(p, 1);
            cfg.mee.metaCache.sizeBytes = kb * 1024;
            return cfg;
        };
        jobs.push_back(
            makeJob(mk(mee::Protocol::Volatile), {w}, instr, warmup));
        jobs.push_back(
            makeJob(mk(mee::Protocol::Anubis), {w}, instr, warmup));
        jobs.push_back(
            makeJob(mk(mee::Protocol::Amnt), {w}, instr, warmup));
    }
    applyWorkloadOverride(jobs, argc, argv);
    applyProtocolOverride(jobs, argc, argv);
    const std::vector<sweep::Outcome> outcomes = sweep::run(jobs);

    TextTable table;
    table.header({"mcache", "mcache hit rate", "anubis", "amnt",
                  "anubis vol. area", "amnt vol. area"});

    for (std::size_t i = 0; i < sizes.size(); ++i) {
        const std::uint64_t kb = sizes[i];
        const std::size_t idx = i * 3;
        const sim::RunResult &base = outcomes[idx].result;
        const sim::RunResult &anubis = outcomes[idx + 1].result;
        const sim::RunResult &amnt = outcomes[idx + 2].result;
        const std::string label = std::to_string(kb) + " kB";
        json.result(label, jobs[idx], outcomes[idx], 1.0);
        json.result(label, jobs[idx + 1], outcomes[idx + 1],
                    static_cast<double>(anubis.cycles) /
                        static_cast<double>(base.cycles));
        json.result(label, jobs[idx + 2], outcomes[idx + 2],
                    static_cast<double>(amnt.cycles) /
                        static_cast<double>(base.cycles));

        mee::MeeConfig area_cfg;
        area_cfg.metaCache.sizeBytes = kb * 1024;
        const auto anubis_area =
            core::hwOverheadOf(mee::Protocol::Anubis, area_cfg);
        const auto amnt_area =
            core::hwOverheadOf(mee::Protocol::Amnt, area_cfg);

        table.row(
            {label,
             TextTable::pct(base.mcacheHitRate, 1),
             TextTable::num(static_cast<double>(anubis.cycles) /
                                static_cast<double>(base.cycles),
                            3),
             TextTable::num(static_cast<double>(amnt.cycles) /
                                static_cast<double>(base.cycles),
                            3),
             std::to_string(anubis_area.volatileOnChip / 1024) + " kB",
             std::to_string(amnt_area.volatileOnChip) + " B"});
    }

    std::printf("Ablation: metadata cache size sweep on canneal "
                "(normalized to volatile at each size)\n\n%s\n",
                table.render().c_str());
    std::printf("shape: anubis overhead tracks the metadata cache "
                "miss rate and its area grows with the cache; amnt "
                "overhead and area stay flat\n");
    return 0;
}
