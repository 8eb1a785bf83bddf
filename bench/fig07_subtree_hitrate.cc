/**
 * Figure 7: subtree hit rates for the multiprogram PARSEC pairs while
 * the AMNT subtree level sweeps from 2 to 7, with and without AMNT++.
 *
 * The paper's companion to Figure 6: hit rates fall as coverage
 * shrinks, and AMNT++ buys back at least ~5 points in the middle
 * levels for bodytrack+fluidanimate.
 */

#include "bench_util.hh"

using namespace amnt;
using namespace amnt::bench;

int
main(int argc, char **argv)
{
    const std::uint64_t instr = benchInstructions();
    const std::uint64_t warmup = benchWarmup();
    JsonSink json(argc, argv, "fig07_subtree_hitrate");

    constexpr unsigned kLoLevel = 2, kHiLevel = 7;
    const auto pairs = sim::parsecMultiprogramPairs();
    std::vector<sweep::Job> jobs;
    for (const auto &[a, b] : pairs) {
        const std::vector<sim::WorkloadConfig> procs = {
            scaledMp(sim::parsecPreset(a)),
            scaledMp(sim::parsecPreset(b))};
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
    const std::size_t stride = 2 * (kHiLevel - kLoLevel + 1);

    std::size_t pair_no = 0;
    for (const auto &[a, b] : pairs) {
        TextTable table;
        table.header({"subtree level", "amnt hit rate",
                      "amnt++ hit rate", "moves/1k (amnt)"});
        for (unsigned level = kLoLevel; level <= kHiLevel; ++level) {
            const std::size_t idx =
                pair_no * stride + 2 * (level - kLoLevel);
            const sim::RunResult &r = outcomes[idx].result;
            const sim::RunResult &rpp = outcomes[idx + 1].result;
            json.result(a + "+" + b, jobs[idx], outcomes[idx]);
            json.result(a + "+" + b, jobs[idx + 1], outcomes[idx + 1]);

            const double moves_per_k =
                r.memWrites == 0
                    ? 0.0
                    : 1000.0 *
                          static_cast<double>(r.subtreeMovements) /
                          static_cast<double>(r.memWrites);
            table.row({"L" + std::to_string(level),
                       TextTable::pct(r.subtreeHitRate, 1),
                       TextTable::pct(rpp.subtreeHitRate, 1),
                       TextTable::num(moves_per_k, 2)});
        }
        std::printf("Figure 7 [%s + %s]: subtree hit rate vs AMNT "
                    "subtree level\n\n%s\n",
                    a.c_str(), b.c_str(), table.render().c_str());
        ++pair_no;
    }
    std::printf("paper shape: hit rates decrease toward deeper "
                "levels; amnt++ >= amnt throughout (91%% -> 97%% at "
                "L3 for bodytrack+fluidanimate)\n");
    return 0;
}
