/**
 * Figure 3: memory accesses per physical address, single-program
 * (lbm) versus multiprogram (perlbench + lbm).
 *
 * Prints a binned series over the physical address space: accesses
 * per 16 MB bin, plus a per-subtree-region summary. The single
 * program's traffic concentrates in few regions (3a); running two
 * programs interleaves their physical placement (3b), which is the
 * phenomenon motivating AMNT++.
 */

#include <algorithm>
#include <map>

#include "bench_util.hh"
#include "mem/memory_map.hh"

using namespace amnt;
using namespace amnt::bench;

namespace
{

void
report(const char *title, const sweep::Outcome &outcome,
       std::uint64_t frames_per_region)
{
    constexpr std::uint64_t kBinPages = 4096; // 16 MB bins

    std::map<std::uint64_t, std::uint64_t> bins;
    std::map<std::uint64_t, std::uint64_t> regions;
    std::uint64_t total = 0;
    for (const auto &kv : outcome.accessHistogram) {
        bins[kv.first / kBinPages] += kv.second;
        regions[kv.first / frames_per_region] += kv.second;
        total += kv.second;
    }

    std::printf("%s\n", title);
    std::printf("  accesses=%llu, populated 16MB bins=%zu, "
                "populated level-3 regions=%zu\n",
                static_cast<unsigned long long>(total), bins.size(),
                regions.size());
    std::printf("  bin(16MB)  accesses\n");
    for (const auto &kv : bins)
        std::printf("  %9llu  %llu\n",
                    static_cast<unsigned long long>(kv.first),
                    static_cast<unsigned long long>(kv.second));

    std::vector<std::pair<std::uint64_t, std::uint64_t>> top(
        regions.begin(), regions.end());
    std::sort(top.begin(), top.end(), [](auto &a, auto &b) {
        return a.second > b.second;
    });
    std::printf("  hottest level-3 regions (region: share):");
    for (std::size_t i = 0; i < std::min<std::size_t>(4, top.size());
         ++i)
        std::printf(" %llu: %.1f%%",
                    static_cast<unsigned long long>(top[i].first),
                    100.0 * static_cast<double>(top[i].second) /
                        static_cast<double>(total));
    std::printf("\n\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const std::uint64_t instr = benchInstructions();
    const std::uint64_t warmup = benchWarmup() / 2;
    JsonSink json(argc, argv, "fig03_access_histogram");

    std::vector<sweep::Job> jobs;
    {
        sim::SystemConfig cfg =
            paperSystem(mee::Protocol::Volatile, 1);
        cfg.recordAccessHistogram = true;
        jobs.push_back(makeJob(cfg, {scaled(sim::specPreset("lbm"))},
                               instr, warmup));
    }
    {
        sim::SystemConfig cfg =
            paperSystem(mee::Protocol::Volatile, 2);
        cfg.recordAccessHistogram = true;
        jobs.push_back(makeJob(cfg,
                               {scaled(sim::specPreset("perlbench")),
                                scaled(sim::specPreset("lbm"))},
                               instr, warmup));
    }
    applyWorkloadOverride(jobs, argc, argv);
    applyProtocolOverride(jobs, argc, argv);
    const std::vector<sweep::Outcome> outcomes = sweep::run(jobs);

    // Both jobs share the 8 GB map, so the level-3 region width is a
    // property of the geometry alone.
    const std::uint64_t frames_per_region =
        mem::MemoryMap(jobs[0].config.mee.dataBytes)
            .geometry()
            .countersPerNode(3);

    report("Figure 3a: single program (lbm), accesses per "
           "physical address",
           outcomes[0], frames_per_region);
    report("Figure 3b: multiprogram (perlbench + lbm), accesses "
           "per physical address",
           outcomes[1], frames_per_region);
    json.result("3a lbm", jobs[0], outcomes[0]);
    json.result("3b perlbench+lbm", jobs[1], outcomes[1]);

    std::printf("paper shape: 3a concentrates accesses in a tight "
                "physical band; 3b interleaves two programs across "
                "the space\n");
    return 0;
}
