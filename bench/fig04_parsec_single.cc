/**
 * Figure 4: normalized cycles for single-program PARSEC workloads.
 *
 * One core, Table-1 configuration; every protocol normalized to the
 * volatile (write-back) secure-memory baseline. amnt++ is amnt plus
 * the modified physical page allocator. The paper's headline numbers:
 * leaf 1.08x, strict 2.39x, amnt 1.16x, amnt++ 1.10x on average, with
 * Anubis collapsing on metadata-cache-hostile canneal (2.4x).
 */

#include <map>

#include "bench_util.hh"
#include "common/table.hh"

using namespace amnt;
using namespace amnt::bench;

int
main(int argc, char **argv)
{
    const std::uint64_t instr = benchInstructions();
    const std::uint64_t warmup = benchWarmup();
    JsonSink json(argc, argv, "fig04_parsec_single");

    // Matrix: per benchmark, the volatile baseline, the five figure
    // protocols, then amnt++ — 7 jobs per row, all independent.
    const std::vector<std::string> benchmarks = sim::parsecBenchmarks();
    std::vector<sweep::Job> jobs;
    for (const std::string &name : benchmarks) {
        const sim::WorkloadConfig w = scaled(sim::parsecPreset(name));
        jobs.push_back(makeJob(paperSystem(mee::Protocol::Volatile, 1),
                               {w}, instr, warmup));
        for (mee::Protocol p : figureProtocols())
            jobs.push_back(
                makeJob(paperSystem(p, 1), {w}, instr, warmup));
        sim::SystemConfig pp = paperSystem(mee::Protocol::Amnt, 1);
        pp.amntpp = true;
        jobs.push_back(makeJob(pp, {w}, instr, warmup));
    }
    applyWorkloadOverride(jobs, argc, argv);
    applyProtocolOverride(jobs, argc, argv);
    const std::vector<sweep::Outcome> outcomes = sweep::run(jobs);
    const std::size_t stride = 2 + figureProtocols().size();

    TextTable table;
    table.header({"benchmark", "leaf", "strict", "anubis", "bmf",
                  "amnt", "amnt++", "amnt_hit", "moves/1k"});

    std::map<std::string, double> sums;
    std::size_t rows = 0;

    for (const std::string &name : benchmarks) {
        const std::size_t base_idx = rows * stride;
        const double base_cycles = static_cast<double>(
            outcomes[base_idx].result.cycles);
        json.result(name, jobs[base_idx], outcomes[base_idx], 1.0);

        std::vector<std::string> row = {name};
        auto add = [&](const char *key, std::size_t idx) {
            const sim::RunResult &r = outcomes[idx].result;
            const double norm =
                static_cast<double>(r.cycles) / base_cycles;
            sums[key] += norm;
            row.push_back(TextTable::num(norm, 3));
            json.result(name, jobs[idx], outcomes[idx], norm);
        };

        sim::RunResult amnt_result;
        std::size_t idx = base_idx + 1;
        for (mee::Protocol p : figureProtocols()) {
            add(protocolName(p), idx);
            if (p == mee::Protocol::Amnt)
                amnt_result = outcomes[idx].result;
            ++idx;
        }
        add("amnt++", idx);
        row.push_back(TextTable::pct(amnt_result.subtreeHitRate, 1));
        const double moves_per_k =
            amnt_result.memWrites == 0
                ? 0.0
                : 1000.0 *
                      static_cast<double>(amnt_result.subtreeMovements) /
                      static_cast<double>(amnt_result.memWrites);
        row.push_back(TextTable::num(moves_per_k, 2));
        table.row(row);
        ++rows;
    }

    std::vector<std::string> mean_row = {"geomean-ish (arith.)"};
    for (const char *key :
         {"leaf", "strict", "anubis", "bmf", "amnt", "amnt++"})
        mean_row.push_back(
            TextTable::num(sums[key] / static_cast<double>(rows), 3));
    table.row(mean_row);

    std::printf("Figure 4: normalized cycles, single-program PARSEC "
                "(volatile baseline = 1.0)\n\n%s\n",
                table.render().c_str());
    std::printf("paper anchors: leaf 1.08, strict 2.39, amnt 1.16, "
                "amnt++ 1.10 (averages); anubis ~2.4 on canneal\n");
    return 0;
}
