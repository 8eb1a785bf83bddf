/**
 * Figure 8: normalized cycles for SPEC CPU2017 under {leaf, strict,
 * anubis, bmf, amnt}, four cores (one program per core, SimPoint-like
 * fast-forward via warm-up), normalized to the volatile write-back
 * secure-memory baseline.
 *
 * Paper anchors: AMNT within 2% of leaf on average and up to 8x
 * better than strict; 13% (avg) / 41% (max) better than Anubis; on
 * write-intensive xz: amnt 1.32x vs anubis 1.41x vs bmf ~7x; on
 * read-intensive mcf/cactuBSSN, amnt ~ leaf while anubis/bmf lag.
 */

#include <map>

#include "bench_util.hh"

using namespace amnt;
using namespace amnt::bench;

int
main(int argc, char **argv)
{
    // Four copies of the benchmark, one per core, as in rate-style
    // multithreaded evaluation (section 6.5).
    const std::uint64_t instr = benchInstructions() / 2;
    const std::uint64_t warmup = benchWarmup() / 2;
    JsonSink json(argc, argv, "fig08_spec2017");

    const std::vector<std::string> benchmarks = sim::specBenchmarks();
    std::vector<sweep::Job> jobs;
    for (const std::string &name : benchmarks) {
        std::vector<sim::WorkloadConfig> procs;
        for (int copy = 0; copy < 4; ++copy) {
            sim::WorkloadConfig w = scaled(sim::specPreset(name));
            w.seed += static_cast<std::uint64_t>(copy) * 977;
            procs.push_back(w);
        }
        jobs.push_back(makeJob(paperSystem(mee::Protocol::Volatile, 4),
                               procs, instr, warmup));
        for (mee::Protocol p : figureProtocols())
            jobs.push_back(
                makeJob(paperSystem(p, 4), procs, instr, warmup));
    }
    applyWorkloadOverride(jobs, argc, argv);
    applyProtocolOverride(jobs, argc, argv);
    const std::vector<sweep::Outcome> outcomes = sweep::run(jobs);
    const std::size_t stride = 1 + figureProtocols().size();

    TextTable table;
    table.header({"benchmark", "leaf", "strict", "anubis", "bmf",
                  "amnt", "amnt_hit"});
    std::map<std::string, double> sums;
    std::size_t rows = 0;

    for (const std::string &name : benchmarks) {
        const std::size_t base_idx = rows * stride;
        const double base_cycles = static_cast<double>(
            outcomes[base_idx].result.cycles);
        json.result(name, jobs[base_idx], outcomes[base_idx], 1.0);

        std::vector<std::string> row = {name};
        double amnt_hit = 0.0;
        std::size_t idx = base_idx + 1;
        for (mee::Protocol p : figureProtocols()) {
            const sim::RunResult &r = outcomes[idx].result;
            const double norm =
                static_cast<double>(r.cycles) / base_cycles;
            sums[protocolName(p)] += norm;
            row.push_back(TextTable::num(norm, 3));
            json.result(name, jobs[idx], outcomes[idx], norm);
            if (p == mee::Protocol::Amnt)
                amnt_hit = r.subtreeHitRate;
            ++idx;
        }
        row.push_back(TextTable::pct(amnt_hit, 1));
        table.row(row);
        ++rows;
    }

    std::vector<std::string> mean_row = {"average"};
    for (const char *key : {"leaf", "strict", "anubis", "bmf", "amnt"})
        mean_row.push_back(
            TextTable::num(sums[key] / static_cast<double>(rows), 3));
    table.row(mean_row);

    std::printf("Figure 8: normalized cycles, SPEC CPU2017, 4 cores "
                "(volatile baseline = 1.0)\n\n%s\n",
                table.render().c_str());
    std::printf("paper anchors: amnt <= leaf + 2%%; amnt beats anubis "
                "by 13%% avg / 41%% max; xz: amnt 1.32 vs anubis 1.41 "
                "vs bmf ~7; bmf resembles strict on write-heavy "
                "workloads\n");
    return 0;
}
