/**
 * Figures 5, 6 and 7 and Table 2: the multiprogram PARSEC pairs
 * (bodytrack+fluidanimate, swaptions+streamcluster, x264+freqmine) on
 * the two-core system with private L1/L2 and a shared L3.
 *
 *  - Figure 5: normalized cycles per protocol (volatile baseline =
 *    1.0). AMNT++ counteracts multiprogram interference
 *    (bodytrack+fluidanimate subtree hit rate 91% -> 97%, overhead
 *    8% -> ~leaf).
 *  - Figure 6: normalized cycles while the AMNT subtree root level
 *    sweeps from 2 (1/8 of memory) to 7 (near the leaves), with and
 *    without AMNT++. Deeper levels protect less data.
 *  - Figure 7: subtree hit rates over the same sweep.
 *  - Table 2: cost of the AMNT++ modified OS under AMNT: cycles and
 *    total instructions (OS work included), modified / unmodified.
 *
 * All four read one sweep of 17 configurations per pair: volatile,
 * the figure protocols other than AMNT, and AMNT at every swept level
 * with and without AMNT++. Figure 5's AMNT columns and Table 2 read
 * the jobs at the default subtree level.
 */

#include <algorithm>

#include "bench_util.hh"

using namespace amnt;
using namespace amnt::bench;

namespace
{

constexpr unsigned kLoLevel = 2, kHiLevel = 7;

using Pairs = std::vector<std::pair<std::string, std::string>>;

/**
 * Fixed job layout. Per pair: volatile, then the figure protocols
 * other than AMNT, then AMNT at each level from kLoLevel to kHiLevel,
 * without and with AMNT++.
 */
struct Sweep
{
    std::vector<mee::Protocol> others;
    std::vector<sweep::Job> jobs;
    std::vector<sweep::Outcome> outcomes;

    std::size_t
    stride() const
    {
        return 1 + others.size() + 2 * (kHiLevel - kLoLevel + 1);
    }

    std::size_t volatileIdx(std::size_t pair) const
    {
        return pair * stride();
    }

    std::size_t
    amntIdx(std::size_t pair, unsigned level, bool pp) const
    {
        return volatileIdx(pair) + 1 + others.size() +
               2 * (level - kLoLevel) + (pp ? 1 : 0);
    }

    /** Figure protocol @p p, other than AMNT. */
    std::size_t
    protocolIdx(std::size_t pair, mee::Protocol p) const
    {
        const auto it = std::find(others.begin(), others.end(), p);
        return volatileIdx(pair) + 1 + (it - others.begin());
    }

    std::uint64_t cycles(std::size_t idx) const
    {
        return outcomes[idx].result.cycles;
    }

    /** Cycles of job @p idx over its pair's volatile baseline. */
    double
    norm(std::size_t pair, std::size_t idx) const
    {
        return static_cast<double>(cycles(idx)) /
               static_cast<double>(cycles(volatileIdx(pair)));
    }
};

std::string
pairLabel(const std::pair<std::string, std::string> &pair)
{
    return pair.first + "+" + pair.second;
}

void
printFig05(const Sweep &s, const Pairs &pairs, JsonSink &json)
{
    json.setFigure("fig05");
    const unsigned def_level = mee::MeeConfig{}.amntSubtreeLevel;
    TextTable table;
    table.header({"pair", "leaf", "strict", "anubis", "bmf", "amnt",
                  "amnt++", "hit(amnt)", "hit(amnt++)"});
    for (std::size_t pair = 0; pair < pairs.size(); ++pair) {
        const std::string label = pairLabel(pairs[pair]);
        const std::size_t amnt = s.amntIdx(pair, def_level, false);
        const std::size_t amnt_pp = s.amntIdx(pair, def_level, true);
        json.result(label, s.jobs[s.volatileIdx(pair)],
                    s.outcomes[s.volatileIdx(pair)], 1.0);
        std::vector<std::size_t> cols;
        for (mee::Protocol p : figureProtocols())
            cols.push_back(p == mee::Protocol::Amnt
                               ? amnt
                               : s.protocolIdx(pair, p));
        cols.push_back(amnt_pp);

        std::vector<std::string> row = {label};
        for (std::size_t idx : cols) {
            const double norm = s.norm(pair, idx);
            row.push_back(TextTable::num(norm, 3));
            json.result(label, s.jobs[idx], s.outcomes[idx], norm);
        }
        for (std::size_t idx : {amnt, amnt_pp})
            row.push_back(TextTable::pct(
                s.outcomes[idx].result.subtreeHitRate, 1));
        table.row(row);
    }
    std::printf("Figure 5: normalized cycles, multiprogram PARSEC "
                "pairs (volatile baseline = 1.0)\n\n%s\n",
                table.render().c_str());
    std::printf("paper anchors: amnt++ closes the gap to leaf on "
                "bodytrack+fluidanimate (hit rate 91%% -> 97%%); the "
                "other pairs are not memory intensive\n");
}

/** Row label of a subtree level ("L3"). */
std::string
levelLabel(unsigned level)
{
    std::string label = "L";
    label += std::to_string(level);
    return label;
}

void
printFig06(const Sweep &s, const Pairs &pairs, JsonSink &json)
{
    json.setFigure("fig06");
    for (std::size_t pair = 0; pair < pairs.size(); ++pair) {
        const std::string label = pairLabel(pairs[pair]);
        json.result(label, s.jobs[s.volatileIdx(pair)],
                    s.outcomes[s.volatileIdx(pair)], 1.0);
        TextTable table;
        table.header({"subtree level", "amnt", "amnt++", "coverage"});
        for (unsigned level = kLoLevel; level <= kHiLevel; ++level) {
            std::vector<std::string> row = {levelLabel(level)};
            for (bool pp : {false, true}) {
                const std::size_t idx = s.amntIdx(pair, level, pp);
                const double norm = s.norm(pair, idx);
                row.push_back(TextTable::num(norm, 3));
                json.result(label, s.jobs[idx], s.outcomes[idx], norm);
            }
            const double cover_mb =
                static_cast<double>(8ull << 30) /
                static_cast<double>(ipow(kTreeArity, level - 1)) /
                (1 << 20);
            row.push_back(TextTable::num(cover_mb, 0) + " MB");
            table.row(row);
        }
        std::printf("Figure 6 [%s + %s]: normalized cycles vs AMNT "
                    "subtree level\n\n%s\n",
                    pairs[pair].first.c_str(),
                    pairs[pair].second.c_str(),
                    table.render().c_str());
    }
    std::printf("paper shape: overhead grows as the subtree root "
                "descends (less coverage); amnt++ stays at or below "
                "amnt at every level\n");
}

void
printFig07(const Sweep &s, const Pairs &pairs, JsonSink &json)
{
    json.setFigure("fig07");
    for (std::size_t pair = 0; pair < pairs.size(); ++pair) {
        TextTable table;
        table.header({"subtree level", "amnt hit rate",
                      "amnt++ hit rate", "moves/1k (amnt)"});
        for (unsigned level = kLoLevel; level <= kHiLevel; ++level) {
            const std::size_t idx = s.amntIdx(pair, level, false);
            const std::size_t idx_pp = s.amntIdx(pair, level, true);
            const sim::RunResult &r = s.outcomes[idx].result;
            const sim::RunResult &rpp = s.outcomes[idx_pp].result;
            json.result(pairLabel(pairs[pair]), s.jobs[idx],
                        s.outcomes[idx]);
            json.result(pairLabel(pairs[pair]), s.jobs[idx_pp],
                        s.outcomes[idx_pp]);

            const double moves_per_k =
                r.memWrites == 0
                    ? 0.0
                    : 1000.0 *
                          static_cast<double>(r.subtreeMovements) /
                          static_cast<double>(r.memWrites);
            table.row({levelLabel(level),
                       TextTable::pct(r.subtreeHitRate, 1),
                       TextTable::pct(rpp.subtreeHitRate, 1),
                       TextTable::num(moves_per_k, 2)});
        }
        std::printf("Figure 7 [%s + %s]: subtree hit rate vs AMNT "
                    "subtree level\n\n%s\n",
                    pairs[pair].first.c_str(),
                    pairs[pair].second.c_str(),
                    table.render().c_str());
    }
    std::printf("paper shape: hit rates decrease toward deeper "
                "levels; amnt++ >= amnt throughout (91%% -> 97%% at "
                "L3 for bodytrack+fluidanimate)\n");
}

void
printTable2(const Sweep &s, const Pairs &pairs, JsonSink &json)
{
    json.setFigure("table2");
    const unsigned def_level = mee::MeeConfig{}.amntSubtreeLevel;
    TextTable table;
    table.header({"pair", "normalized performance",
                  "instruction overhead"});
    for (std::size_t pair = 0; pair < pairs.size(); ++pair) {
        const std::size_t idx = s.amntIdx(pair, def_level, false);
        const std::size_t idx_pp = s.amntIdx(pair, def_level, true);
        const sim::RunResult &unmodified = s.outcomes[idx].result;
        const sim::RunResult &modified = s.outcomes[idx_pp].result;

        const double perf = static_cast<double>(modified.cycles) /
                            static_cast<double>(unmodified.cycles);
        const double instr_ratio =
            static_cast<double>(modified.appInstructions +
                                modified.osInstructions) /
            static_cast<double>(unmodified.appInstructions +
                                unmodified.osInstructions);
        const std::string label = pairLabel(pairs[pair]);
        json.result(label, s.jobs[idx], s.outcomes[idx], 1.0);
        json.result(label, s.jobs[idx_pp], s.outcomes[idx_pp], perf);
        table.row({pairs[pair].first + " and " + pairs[pair].second,
                   TextTable::num(perf, 3),
                   TextTable::num(instr_ratio, 3)});
    }
    std::printf("Table 2: impact of the modified operating system "
                "(AMNT++) on multiprogram workloads\n\n%s\n",
                table.render().c_str());
    std::printf("paper anchors: normalized performance 0.967-1.013; "
                "instruction overhead 1.004-1.021\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const std::uint64_t instr = benchInstructions();
    const std::uint64_t warmup = benchWarmup();
    JsonSink json(argc, argv, "parsec_multi");

    Sweep s;
    for (mee::Protocol p : figureProtocols())
        if (p != mee::Protocol::Amnt)
            s.others.push_back(p);

    const Pairs &pairs = sim::parsecMultiprogramPairs();
    for (const auto &[a, b] : pairs) {
        const std::vector<sim::WorkloadConfig> procs = {
            scaledMp(sim::parsecPreset(a)),
            scaledMp(sim::parsecPreset(b))};
        s.jobs.push_back(makeJob(paperSystem(mee::Protocol::Volatile, 2),
                                 procs, instr, warmup));
        for (mee::Protocol p : s.others)
            s.jobs.push_back(
                makeJob(paperSystem(p, 2), procs, instr, warmup));
        for (unsigned level = kLoLevel; level <= kHiLevel; ++level) {
            sim::SystemConfig cfg = paperSystem(mee::Protocol::Amnt, 2);
            cfg.mee.amntSubtreeLevel = level;
            s.jobs.push_back(makeJob(cfg, procs, instr, warmup));
            cfg.amntpp = true;
            s.jobs.push_back(makeJob(cfg, procs, instr, warmup));
        }
    }
    applyWorkloadOverride(s.jobs, argc, argv);
    applyProtocolOverride(s.jobs, argc, argv);
    s.outcomes = sweep::run(s.jobs);

    printFig05(s, pairs, json);
    printFig06(s, pairs, json);
    printFig07(s, pairs, json);
    printTable2(s, pairs, json);
    return 0;
}
