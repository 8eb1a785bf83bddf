/**
 * Figure 6: normalized cycles for the multiprogram pairs while the
 * AMNT subtree root level sweeps from 2 (1/8 of memory) to 7 (near
 * the leaves), with and without the AMNT++ allocator.
 *
 * Deeper levels protect less data, constraining AMNT; AMNT++ recovers
 * part of the loss by consolidating placement. Normalization baseline
 * is the volatile scheme (per pair).
 */

#include "bench_util.hh"

using namespace amnt;
using namespace amnt::bench;

int
main(int argc, char **argv)
{
    const std::uint64_t instr = benchInstructions();
    const std::uint64_t warmup = benchWarmup();
    JsonSink json(argc, argv, "fig06_subtree_level");

    constexpr unsigned kLoLevel = 2, kHiLevel = 7;
    const auto pairs = sim::parsecMultiprogramPairs();
    std::vector<sweep::Job> jobs;
    for (const auto &[a, b] : pairs) {
        const std::vector<sim::WorkloadConfig> procs = {
            scaledMp(sim::parsecPreset(a)),
            scaledMp(sim::parsecPreset(b))};
        jobs.push_back(makeJob(paperSystem(mee::Protocol::Volatile, 2),
                               procs, instr, warmup));
        for (unsigned level = kLoLevel; level <= kHiLevel; ++level) {
            sim::SystemConfig cfg = paperSystem(mee::Protocol::Amnt, 2);
            cfg.mee.amntSubtreeLevel = level;
            jobs.push_back(makeJob(cfg, procs, instr, warmup));
            cfg.amntpp = true;
            jobs.push_back(makeJob(cfg, procs, instr, warmup));
        }
    }
    applyWorkloadOverride(jobs, argc, argv);
    applyProtocolOverride(jobs, argc, argv);
    const std::vector<sweep::Outcome> outcomes = sweep::run(jobs);
    const std::size_t stride = 1 + 2 * (kHiLevel - kLoLevel + 1);

    std::size_t pair_no = 0;
    for (const auto &[a, b] : pairs) {
        const std::size_t base_idx = pair_no * stride;
        const double base_cycles = static_cast<double>(
            outcomes[base_idx].result.cycles);
        json.result(a + "+" + b, jobs[base_idx], outcomes[base_idx],
                    1.0);

        TextTable table;
        table.header(
            {"subtree level", "amnt", "amnt++", "coverage"});
        for (unsigned level = kLoLevel; level <= kHiLevel; ++level) {
            const std::size_t idx =
                base_idx + 1 + 2 * (level - kLoLevel);
            const double norm = static_cast<double>(
                                    outcomes[idx].result.cycles) /
                                base_cycles;
            const double norm_pp =
                static_cast<double>(outcomes[idx + 1].result.cycles) /
                base_cycles;
            json.result(a + "+" + b, jobs[idx], outcomes[idx], norm);
            json.result(a + "+" + b, jobs[idx + 1], outcomes[idx + 1],
                        norm_pp);

            const double cover_mb =
                static_cast<double>(8ull << 30) /
                static_cast<double>(ipow(kTreeArity, level - 1)) /
                (1 << 20);
            table.row({"L" + std::to_string(level),
                       TextTable::num(norm, 3),
                       TextTable::num(norm_pp, 3),
                       TextTable::num(cover_mb, 0) + " MB"});
        }
        std::printf("Figure 6 [%s + %s]: normalized cycles vs AMNT "
                    "subtree level\n\n%s\n",
                    a.c_str(), b.c_str(), table.render().c_str());
        ++pair_no;
    }
    std::printf("paper shape: overhead grows as the subtree root "
                "descends (less coverage); amnt++ stays at or below "
                "amnt at every level\n");
    return 0;
}
