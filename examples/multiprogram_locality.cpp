/**
 * Multiprogram locality demo: the AMNT++ story of section 5 end to
 * end.
 *
 * Runs the bodytrack+fluidanimate pair on a two-core secure system
 * three ways — volatile baseline, AMNT on a stock OS, and AMNT++ with
 * the biased buddy allocator — and prints how physical placement,
 * subtree hit rate, and normalized cycles respond.
 *
 *   $ ./multiprogram_locality
 */

#include <algorithm>
#include <cstdio>
#include <map>

#include "common/table.hh"
#include "sim/presets.hh"
#include "sim/system.hh"

using namespace amnt;

namespace
{

struct Outcome
{
    sim::RunResult result;
    std::size_t regionsTouched = 0;
    double topRegionShare = 0.0;
};

Outcome
runOnce(mee::Protocol protocol, bool amntpp)
{
    sim::SystemConfig cfg = sim::SystemConfig::multiProgram(protocol);
    cfg.mee.dataBytes = 8ull << 30;
    cfg.amntpp = amntpp;
    cfg.recordAccessHistogram = true;

    sim::System sys(cfg);
    sim::WorkloadConfig a = sim::parsecPreset("bodytrack");
    sim::WorkloadConfig b = sim::parsecPreset("fluidanimate");
    sys.addProcess(a);
    sys.addProcess(b);

    Outcome out;
    out.result = sys.run(400000, 200000);

    const std::uint64_t frames_per_region =
        sys.engine().slice(0).map().geometry().countersPerNode(3);
    std::map<std::uint64_t, std::uint64_t> regions;
    std::uint64_t total = 0;
    for (const auto &kv : sys.accessHistogram()) {
        regions[kv.first / frames_per_region] += kv.second;
        total += kv.second;
    }
    out.regionsTouched = regions.size();
    std::uint64_t top = 0;
    for (const auto &kv : regions)
        top = std::max(top, kv.second);
    out.topRegionShare = total == 0 ? 0.0
                                    : static_cast<double>(top) /
                                          static_cast<double>(total);
    return out;
}

} // namespace

int
main()
{
    std::printf("bodytrack + fluidanimate on a 2-core secure SCM "
                "(8 GB, subtree level 3)\n\n");

    const Outcome base = runOnce(mee::Protocol::Volatile, false);
    const Outcome amnt = runOnce(mee::Protocol::Amnt, false);
    const Outcome amntpp = runOnce(mee::Protocol::Amnt, true);

    const double base_cycles = static_cast<double>(base.result.cycles);
    TextTable table;
    table.header({"configuration", "normalized cycles", "subtree hit",
                  "level-3 regions touched", "top-region share",
                  "OS instr"});
    auto row = [&](const char *name, const Outcome &o, bool has_amnt) {
        table.row(
            {name,
             TextTable::num(static_cast<double>(o.result.cycles) /
                                base_cycles,
                            3),
             has_amnt ? TextTable::pct(o.result.subtreeHitRate, 1)
                      : std::string("-"),
             std::to_string(o.regionsTouched),
             TextTable::pct(o.topRegionShare, 1),
             TextTable::big(o.result.osInstructions)});
    };
    row("volatile baseline", base, false);
    row("amnt (stock buddy allocator)", amnt, true);
    row("amnt++ (biased allocator)", amntpp, true);
    std::printf("%s\n", table.render().c_str());

    std::printf("what to look for: amnt++ concentrates both "
                "processes' pages into fewer subtree regions, raising "
                "the subtree hit rate and pulling normalized cycles "
                "toward the leaf-persistence floor — at a percent or "
                "two of extra OS instructions (Table 2).\n");
    return 0;
}
