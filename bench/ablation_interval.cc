/**
 * Ablation: AMNT design-parameter sensitivity (DESIGN.md section 5).
 *
 * Sweeps the two tracking parameters the paper fixes at 64 — the
 * history-buffer interval (writes between movement decisions) and the
 * history-buffer capacity — on a movement-prone multiprogram mix, and
 * reports normalized cycles, subtree hit rate, and movement rate.
 * Shows the trade-off: short intervals chase the workload (more
 * movements, more flush traffic), long intervals react too slowly.
 */

#include "bench_util.hh"

using namespace amnt;
using namespace amnt::bench;

int
main(int argc, char **argv)
{
    const std::uint64_t instr = benchInstructions() / 2;
    const std::uint64_t warmup = benchWarmup() / 2;
    JsonSink json(argc, argv, "ablation_interval");

    const std::vector<sim::WorkloadConfig> procs = {
        scaledMp(sim::parsecPreset("bodytrack")),
        scaledMp(sim::parsecPreset("fluidanimate"))};

    const std::vector<unsigned> intervals = {8,  16,  32,  64,
                                             128, 256, 1024};
    const std::vector<unsigned> capacities = {4, 8, 16, 32, 64, 128};

    std::vector<sweep::Job> jobs;
    jobs.push_back(makeJob(paperSystem(mee::Protocol::Volatile, 2),
                           procs, instr, warmup));
    for (unsigned interval : intervals) {
        sim::SystemConfig cfg = paperSystem(mee::Protocol::Amnt, 2);
        cfg.mee.amntSubtreeLevel = 5; // movement-prone coverage
        cfg.mee.amntInterval = interval;
        jobs.push_back(makeJob(cfg, procs, instr, warmup));
    }
    for (unsigned entries : capacities) {
        sim::SystemConfig cfg = paperSystem(mee::Protocol::Amnt, 2);
        cfg.mee.amntSubtreeLevel = 5; // movement-prone coverage
        cfg.mee.amntHistoryEntries = entries;
        jobs.push_back(makeJob(cfg, procs, instr, warmup));
    }
    applyWorkloadOverride(jobs, argc, argv);
    applyProtocolOverride(jobs, argc, argv);
    const std::vector<sweep::Outcome> outcomes = sweep::run(jobs);
    const double base_cycles =
        static_cast<double>(outcomes[0].result.cycles);
    json.result("volatile baseline", jobs[0], outcomes[0], 1.0);

    std::printf("Ablation A: movement interval (history entries "
                "fixed at 64)\n\n");
    TextTable ta;
    ta.header({"interval", "normalized cycles", "subtree hit",
               "moves/1k writes"});
    for (std::size_t i = 0; i < intervals.size(); ++i) {
        const std::size_t idx = 1 + i;
        const sim::RunResult &r = outcomes[idx].result;
        const double norm =
            static_cast<double>(r.cycles) / base_cycles;
        json.result("interval " + std::to_string(intervals[i]),
                    jobs[idx], outcomes[idx], norm);
        const double mpk =
            r.memWrites == 0
                ? 0.0
                : 1000.0 * static_cast<double>(r.subtreeMovements) /
                      static_cast<double>(r.memWrites);
        ta.row({std::to_string(intervals[i]),
                TextTable::num(norm, 3),
                TextTable::pct(r.subtreeHitRate, 1),
                TextTable::num(mpk, 2)});
    }
    std::printf("%s\n", ta.render().c_str());

    std::printf("Ablation B: history-buffer capacity (interval fixed "
                "at 64)\n\n");
    TextTable tb;
    tb.header({"entries", "normalized cycles", "subtree hit",
               "buffer bits"});
    for (std::size_t i = 0; i < capacities.size(); ++i) {
        const std::size_t idx = 1 + intervals.size() + i;
        const sim::RunResult &r = outcomes[idx].result;
        const double norm =
            static_cast<double>(r.cycles) / base_cycles;
        json.result("entries " + std::to_string(capacities[i]),
                    jobs[idx], outcomes[idx], norm);
        const unsigned bits =
            capacities[i] * 2 *
            static_cast<unsigned>(ceilLog2(capacities[i]));
        tb.row({std::to_string(capacities[i]),
                TextTable::num(norm, 3),
                TextTable::pct(r.subtreeHitRate, 1),
                std::to_string(bits)});
    }
    std::printf("%s\n", tb.render().c_str());
    std::printf("paper default: 64 writes per interval, 64 entries = "
                "768 bits (96 B)\n");
    return 0;
}
