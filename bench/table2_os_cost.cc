/**
 * Table 2: impact of the AMNT++ modified operating system on the
 * multiprogram workloads.
 *
 * Two columns per pair: normalized performance (cycles with the
 * modified OS / cycles with the unmodified OS — both under the AMNT
 * protocol) and instruction overhead (total instructions including
 * OS work, modified / unmodified). Paper: performance within noise
 * (0.97-1.01) and ~1-2% extra instructions.
 */

#include "bench_util.hh"

using namespace amnt;
using namespace amnt::bench;

int
main(int argc, char **argv)
{
    const std::uint64_t instr = benchInstructions();
    const std::uint64_t warmup = benchWarmup();
    JsonSink json(argc, argv, "table2_os_cost");

    const auto pairs = sim::parsecMultiprogramPairs();
    std::vector<sweep::Job> jobs;
    for (const auto &[a, b] : pairs) {
        const std::vector<sim::WorkloadConfig> procs = {
            scaledMp(sim::parsecPreset(a)),
            scaledMp(sim::parsecPreset(b))};
        sim::SystemConfig plain = paperSystem(mee::Protocol::Amnt, 2);
        jobs.push_back(makeJob(plain, procs, instr, warmup));
        sim::SystemConfig pp = plain;
        pp.amntpp = true;
        jobs.push_back(makeJob(pp, procs, instr, warmup));
    }
    applyWorkloadOverride(jobs, argc, argv);
    applyProtocolOverride(jobs, argc, argv);
    const std::vector<sweep::Outcome> outcomes = sweep::run(jobs);

    TextTable table;
    table.header({"pair", "normalized performance",
                  "instruction overhead"});

    std::size_t pair_no = 0;
    for (const auto &[a, b] : pairs) {
        const std::size_t idx = pair_no * 2;
        const sim::RunResult &unmodified = outcomes[idx].result;
        const sim::RunResult &modified = outcomes[idx + 1].result;

        const double perf = static_cast<double>(modified.cycles) /
                            static_cast<double>(unmodified.cycles);
        const double instr_ratio =
            static_cast<double>(modified.appInstructions +
                                modified.osInstructions) /
            static_cast<double>(unmodified.appInstructions +
                                unmodified.osInstructions);
        json.result(a + "+" + b, jobs[idx], outcomes[idx], 1.0);
        json.result(a + "+" + b, jobs[idx + 1], outcomes[idx + 1],
                    perf);
        table.row({a + " and " + b, TextTable::num(perf, 3),
                   TextTable::num(instr_ratio, 3)});
        ++pair_no;
    }

    std::printf("Table 2: impact of the modified operating system "
                "(AMNT++) on multiprogram workloads\n\n%s\n",
                table.render().c_str());
    std::printf("paper anchors: normalized performance 0.967-1.013; "
                "instruction overhead 1.004-1.021\n");
    return 0;
}
