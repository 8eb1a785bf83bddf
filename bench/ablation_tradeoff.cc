/**
 * Ablation: the runtime-overhead vs recovery-time Pareto frontier —
 * the paper's central trade-off (section 1) on one axis.
 *
 * For each configuration, prints normalized runtime (measured on the
 * bodytrack+fluidanimate pair) against worst-case recovery time at
 * 2 TB (Table 4 model). Strict and leaf are the endpoints; AMNT's
 * subtree levels walk the frontier between them, which is exactly the
 * knob the administrator turns.
 */

#include "bench_util.hh"
#include "core/recovery_planner.hh"

using namespace amnt;
using namespace amnt::bench;

int
main(int argc, char **argv)
{
    const std::uint64_t instr = benchInstructions() / 2;
    const std::uint64_t warmup = benchWarmup() / 2;
    constexpr std::uint64_t kTwoTb = 2ull << 40;
    JsonSink json(argc, argv, "ablation_tradeoff");

    const std::vector<sim::WorkloadConfig> procs = {
        scaledMp(sim::parsecPreset("bodytrack")),
        scaledMp(sim::parsecPreset("fluidanimate"))};

    // Jobs: volatile baseline, leaf, AMNT L2..L5, strict.
    constexpr unsigned kLoLevel = 2, kHiLevel = 5;
    std::vector<sweep::Job> jobs;
    jobs.push_back(makeJob(paperSystem(mee::Protocol::Volatile, 2),
                           procs, instr, warmup));
    jobs.push_back(makeJob(paperSystem(mee::Protocol::Leaf, 2), procs,
                           instr, warmup));
    for (unsigned level = kLoLevel; level <= kHiLevel; ++level) {
        sim::SystemConfig cfg = paperSystem(mee::Protocol::Amnt, 2);
        cfg.mee.amntSubtreeLevel = level;
        jobs.push_back(makeJob(cfg, procs, instr, warmup));
    }
    jobs.push_back(makeJob(paperSystem(mee::Protocol::Strict, 2),
                           procs, instr, warmup));
    applyWorkloadOverride(jobs, argc, argv);
    applyProtocolOverride(jobs, argc, argv);
    const std::vector<sweep::Outcome> outcomes = sweep::run(jobs);

    const double base_cycles =
        static_cast<double>(outcomes[0].result.cycles);
    core::RecoveryModel model;
    auto norm_of = [&](std::size_t idx) {
        return static_cast<double>(outcomes[idx].result.cycles) /
               base_cycles;
    };
    json.result("volatile baseline", jobs[0], outcomes[0], 1.0);

    TextTable table;
    table.header({"configuration", "runtime (norm.)",
                  "recovery @ 2TB (ms)", "stale BMT"});

    json.result("leaf", jobs[1], outcomes[1], norm_of(1));
    table.row({"leaf", TextTable::num(norm_of(1), 3),
               TextTable::num(model.leafMs(kTwoTb), 2), "100%"});
    for (unsigned level = kLoLevel; level <= kHiLevel; ++level) {
        const std::size_t idx = 2 + (level - kLoLevel);
        json.result("amnt L" + std::to_string(level), jobs[idx],
                    outcomes[idx], norm_of(idx));
        table.row(
            {"amnt L" + std::to_string(level),
             TextTable::num(norm_of(idx), 3),
             TextTable::num(model.amntMs(kTwoTb, level), 2),
             TextTable::pct(
                 core::RecoveryModel::amntStaleFraction(level), 2)});
    }
    const std::size_t strict_idx = jobs.size() - 1;
    json.result("strict", jobs[strict_idx], outcomes[strict_idx],
                norm_of(strict_idx));
    table.row({"strict", TextTable::num(norm_of(strict_idx), 3),
               TextTable::num(model.strictMs(kTwoTb), 2), "0%"});

    std::printf("Ablation: runtime vs recovery trade-off "
                "(bodytrack+fluidanimate, 2 cores)\n\n%s\n",
                table.render().c_str());
    std::printf("shape: leaf and strict are the endpoints of section "
                "1's trade-off; AMNT's subtree level walks the "
                "frontier between them (shallow = near-leaf runtime, "
                "deep = near-strict runtime but tiny recovery)\n");
    return 0;
}
