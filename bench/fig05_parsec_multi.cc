/**
 * Figure 5: normalized cycles for the multiprogram PARSEC pairs
 * (bodytrack+fluidanimate, swaptions+streamcluster, x264+freqmine).
 *
 * Two cores with private L1/L2 and a shared L3, both regions of
 * interest measured in parallel, everything normalized to the
 * volatile baseline. The paper's key observation: AMNT++ counteracts
 * multiprogram interference (bodytrack+fluidanimate subtree hit rate
 * 91% -> 97%, overhead 8% -> ~leaf).
 */

#include "bench_util.hh"

using namespace amnt;
using namespace amnt::bench;

int
main(int argc, char **argv)
{
    const std::uint64_t instr = benchInstructions();
    const std::uint64_t warmup = benchWarmup();
    JsonSink json(argc, argv, "fig05_parsec_multi");

    const auto pairs = sim::parsecMultiprogramPairs();
    std::vector<sweep::Job> jobs;
    for (const auto &[a, b] : pairs) {
        const std::vector<sim::WorkloadConfig> procs = {
            scaledMp(sim::parsecPreset(a)),
            scaledMp(sim::parsecPreset(b))};
        jobs.push_back(makeJob(paperSystem(mee::Protocol::Volatile, 2),
                               procs, instr, warmup));
        for (mee::Protocol p : figureProtocols())
            jobs.push_back(
                makeJob(paperSystem(p, 2), procs, instr, warmup));
        sim::SystemConfig pp = paperSystem(mee::Protocol::Amnt, 2);
        pp.amntpp = true;
        jobs.push_back(makeJob(pp, procs, instr, warmup));
    }
    applyWorkloadOverride(jobs, argc, argv);
    applyProtocolOverride(jobs, argc, argv);
    const std::vector<sweep::Outcome> outcomes = sweep::run(jobs);
    const std::size_t stride = 2 + figureProtocols().size();

    TextTable table;
    table.header({"pair", "leaf", "strict", "anubis", "bmf", "amnt",
                  "amnt++", "hit(amnt)", "hit(amnt++)"});

    std::size_t pair_no = 0;
    for (const auto &[a, b] : pairs) {
        const std::string label = a + "+" + b;
        const std::size_t base_idx = pair_no * stride;
        const double base_cycles = static_cast<double>(
            outcomes[base_idx].result.cycles);
        json.result(label, jobs[base_idx], outcomes[base_idx], 1.0);

        std::vector<std::string> row = {label};
        double hit_amnt = 0.0, hit_pp = 0.0;
        std::size_t idx = base_idx + 1;
        for (mee::Protocol p : figureProtocols()) {
            const sim::RunResult &r = outcomes[idx].result;
            const double norm =
                static_cast<double>(r.cycles) / base_cycles;
            row.push_back(TextTable::num(norm, 3));
            json.result(label, jobs[idx], outcomes[idx], norm);
            if (p == mee::Protocol::Amnt)
                hit_amnt = r.subtreeHitRate;
            ++idx;
        }
        {
            const sim::RunResult &r = outcomes[idx].result;
            const double norm =
                static_cast<double>(r.cycles) / base_cycles;
            row.push_back(TextTable::num(norm, 3));
            json.result(label, jobs[idx], outcomes[idx], norm);
            hit_pp = r.subtreeHitRate;
        }
        row.push_back(TextTable::pct(hit_amnt, 1));
        row.push_back(TextTable::pct(hit_pp, 1));
        table.row(row);
        ++pair_no;
    }

    std::printf("Figure 5: normalized cycles, multiprogram PARSEC "
                "pairs (volatile baseline = 1.0)\n\n%s\n",
                table.render().c_str());
    std::printf("paper anchors: amnt++ closes the gap to leaf on "
                "bodytrack+fluidanimate (hit rate 91%% -> 97%%); the "
                "other pairs are not memory intensive\n");
    return 0;
}
