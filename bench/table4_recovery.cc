/**
 * Table 4: recovery times (ms) as a function of memory size for every
 * protocol, from the analytic bandwidth model of section 6.7 (reads
 * bound at 12 GB/s, level-by-level recompute), plus the stale-BMT
 * percentage column.
 *
 * A second section validates the model against *functional* recovery:
 * a small (64 MB) instance of each protocol is run, crashed, and
 * recovered for real, reporting measured recovery traffic. The six
 * protocol instances are independent, so they run on the sweep pool.
 */

#include "bench_util.hh"
#include "common/rng.hh"
#include "core/amnt.hh"
#include "core/recovery_planner.hh"

using namespace amnt;
using namespace amnt::bench;

int
main(int argc, char **argv)
{
    JsonSink json(argc, argv, "table4_recovery");
    core::RecoveryModel model;
    constexpr std::uint64_t kTb = 1ull << 40;
    const std::uint64_t sizes[] = {2 * kTb, 16 * kTb, 128 * kTb};

    TextTable table;
    table.header(
        {"", "2.00TB", "16.00TB", "128.00TB", "BMT stale %"});

    auto row = [&](const std::string &name, auto fn,
                   const std::string &stale) {
        std::vector<std::string> cells = {name};
        JsonRow jrow;
        jrow.field("label", name).field("stale_bmt", stale);
        for (std::uint64_t s : sizes) {
            const double ms = fn(s);
            cells.push_back(TextTable::num(ms, 2));
            jrow.field(
                ("recovery_ms_" + std::to_string(s / kTb) + "tb")
                    .c_str(),
                ms);
        }
        cells.push_back(stale);
        table.row(cells);
        json.add(jrow);
    };

    row("leaf", [&](std::uint64_t s) { return model.leafMs(s); },
        "100%");
    row("strict", [&](std::uint64_t s) { return model.strictMs(s); },
        "0%");
    row("Anubis", [&](std::uint64_t) { return model.anubisMs(); },
        "fixed");
    row("Osiris", [&](std::uint64_t s) { return model.osirisMs(s); },
        "100%*");
    row("BMF", [&](std::uint64_t s) { return model.bmfMs(s); }, "0%");
    for (unsigned level = 2; level <= 4; ++level) {
        row("AMNT L" + std::to_string(level),
            [&, level](std::uint64_t s) {
                return model.amntMs(s, level);
            },
            TextTable::pct(core::RecoveryModel::amntStaleFraction(level),
                           level >= 4 ? 2 : 2));
    }
    row("Phoenix",
        [&](std::uint64_t) {
            return model.phoenixMs(mee::MeeConfig{}.phoenixEpoch);
        },
        "1 epoch");
    row("STIT", [&](std::uint64_t s) { return model.stitMs(s); },
        "100%");

    std::printf("Table 4: recovery times (ms) vs memory size "
                "(analytic model, 12 GB/s read-bound)\n\n%s\n",
                table.render().c_str());

    // Planner demonstration (section 6.7's administrator knob).
    std::printf("planner: 2TB with a 100 ms budget -> level %u; "
                "with a 1 s budget -> level %u; 0.01 s at 2TB needs "
                "level %u (paper: L4 = 0.01 s)\n\n",
                model.levelForBudget(2 * kTb, 100.0, 7),
                model.levelForBudget(2 * kTb, 1000.0, 7),
                model.levelForBudget(2 * kTb, 13.0, 7));

    // Functional validation at 64 MB: crash + real recovery. Each
    // protocol instance owns its engine and NVM, so the recoveries
    // run in parallel and report in protocol order.
    std::printf("functional validation (64 MB instance, real crash "
                "+ recovery):\n");
    const std::vector<mee::Protocol> protocols =
        core::persistentProtocols();
    std::vector<mee::RecoveryReport> reports(protocols.size());
    sweep::parallelFor(protocols.size(), [&](std::size_t i) {
        mee::MeeConfig cfg;
        cfg.dataBytes = 64ull << 20;
        cfg.trackContents = false;
        cfg.keySeed = 99;
        core::FlatMemory memory(protocols[i], cfg);
        Rng rng(4242);
        for (int w = 0; w < 20000; ++w)
            memory.write(rng.below(16384) * kPageSize +
                         rng.below(64) * kBlockSize);
        memory.crash();
        reports[i] = memory.recover();
    });

    TextTable fv;
    fv.header({"protocol", "success", "blocks read", "blocks written",
               "est. ms"});
    for (std::size_t i = 0; i < protocols.size(); ++i) {
        const mee::RecoveryReport &report = reports[i];
        fv.row({protocolName(protocols[i]),
                report.success ? "yes" : "NO",
                TextTable::big(report.blocksRead),
                TextTable::big(report.blocksWritten),
                TextTable::num(report.estimatedMs, 4)});
        JsonRow jrow;
        jrow.field("label",
                   std::string("functional ") +
                       protocolName(protocols[i]))
            .field("success", report.success)
            .field("blocks_read", report.blocksRead)
            .field("blocks_written", report.blocksWritten)
            .field("estimated_ms", report.estimatedMs);
        json.add(jrow);
    }
    std::printf("%s\n", fv.render().c_str());
    std::printf("paper anchors: leaf 6222/49778/398222 ms; Osiris "
                "8.1x leaf; Anubis 1.3 ms fixed; strict/BMF 0; "
                "AMNT L2/L3/L4 = leaf / 8 / 64 / 512\n");
    return 0;
}
