/**
 * Microbenchmark: raw MemoryEngine::read / MemoryEngine::write
 * throughput (host accesses per second) for every protocol — the
 * single-thread hot path that bounds how fast the figure sweeps can
 * simulate. It also serves as a quick regression check for the
 * engine fast path.
 *
 * Environment knobs:
 *   AMNT_MICRO_OPS  accesses measured per protocol and op (def. 400k)
 *
 * Accepts `--json <path>` / AMNT_BENCH_JSON like the figure benches.
 */

#include <chrono>

#include "bench_util.hh"
#include "core/amnt.hh"

using namespace amnt;
using namespace amnt::bench;

namespace
{

constexpr std::uint64_t kPages = 16384; // 64 MB footprint

/**
 * Page for op @p i: a full-period odd-stride scramble. Successive
 * accesses land on uncorrelated pages, like the randomized workload
 * traces the figure sweeps replay — a linear sweep would instead
 * measure the allocator's luck at laying metadata out in sweep order.
 */
std::uint64_t
scrambledPage(std::uint64_t i)
{
    return (i * 10368889) % kPages;
}

double
secondsOf(const std::function<void(std::uint64_t)> &op,
          std::uint64_t ops)
{
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < ops; ++i)
        op(i);
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    const std::uint64_t ops = envU64("AMNT_MICRO_OPS", 400'000);
    JsonSink json(argc, argv, "micro_engine");

    TextTable table;
    table.header({"protocol", "write M/s", "read M/s", "write ns",
                  "read ns"});

    for (mee::Protocol p : core::allProtocols()) {
        mee::MeeConfig cfg;
        cfg.dataBytes = 64ull << 20;
        cfg.keySeed = 5;
        core::FlatMemory memory(p, cfg);
        mee::MemoryEngine &engine = memory.engine();

        // Touch the footprint once so reads hit initialized blocks
        // and the steady-state path is measured, not first-touch.
        for (std::uint64_t page = 0; page < kPages; ++page)
            engine.write(page * kPageSize);

        const double wsec = secondsOf(
            [&](std::uint64_t i) {
                engine.write(scrambledPage(i) * kPageSize);
            },
            ops);
        const double rsec = secondsOf(
            [&](std::uint64_t i) {
                engine.read(scrambledPage(i) * kPageSize);
            },
            ops);

        const double wps = static_cast<double>(ops) / wsec;
        const double rps = static_cast<double>(ops) / rsec;
        table.row({protocolName(p), TextTable::num(wps / 1e6, 3),
                   TextTable::num(rps / 1e6, 3),
                   TextTable::num(1e9 * wsec /
                                      static_cast<double>(ops),
                                  1),
                   TextTable::num(1e9 * rsec /
                                      static_cast<double>(ops),
                                  1)});

        JsonRow row;
        row.field("label", std::string(protocolName(p)))
            .field("ops", ops)
            .field("write_accesses_per_sec", wps)
            .field("read_accesses_per_sec", rps)
            .field("write_wall_seconds", wsec)
            .field("read_wall_seconds", rsec);
        json.add(row);
    }

    std::printf("micro_engine: raw MemoryEngine access throughput "
                "(%llu ops per cell, 64 MB footprint)\n\n%s\n",
                static_cast<unsigned long long>(ops),
                table.render().c_str());
    return 0;
}
