/**
 * bench_replay — host-throughput regression bench over trace replay.
 *
 * Records one trace per synthetic preset (zipfian / gups / stream)
 * under the volatile baseline — the reference stream a workload
 * generates is protocol-independent — then replays each trace through
 * every registry protocol and reports host-side replay throughput
 * (simulated data accesses per wall-clock second, best of
 * AMNT_BENCH_REPS repetitions).
 *
 * Unlike every other harness in bench/, the reported number IS a
 * wall-clock measurement: it tracks the cost of the simulator itself,
 * not a simulated quantity. CI compares the rows against the history
 * in results/BENCH_replay.json (tools/check_replay_bench.py) and
 * fails on a >20% per-(protocol, preset) regression.
 *
 *   bench_replay [--json out.json] [--protocol=NAME]
 *
 * AMNT_BENCH_INSTR / AMNT_BENCH_WARMUP / AMNT_BENCH_SCALE shape the
 * run exactly like the figure harnesses; AMNT_BENCH_REPS (default 3)
 * sets the repetitions per cell.
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hh"

using namespace amnt;

namespace
{

const char *const kPresets[] = {"zipfian", "gups", "stream"};

/** Scratch trace file under $TMPDIR (default /tmp). */
std::string
tracePath(const std::string &preset)
{
    const char *dir = std::getenv("TMPDIR");
    if (dir == nullptr || *dir == '\0')
        dir = "/tmp";
    return std::string(dir) + "/bench_replay_" + preset + "." +
           std::to_string(static_cast<unsigned long long>(getpid())) +
           ".trc";
}

/** Record the preset's reference stream once, under volatile. */
void
record(const std::string &preset, const std::string &path,
       std::uint64_t instr, std::uint64_t warmup)
{
    sim::SystemConfig cfg =
        sim::SystemConfig::singleProgram(mee::Protocol::Volatile);
    cfg.traceRecordPath = path;
    sim::System sys(cfg);
    sys.addProcess(bench::scaled(sim::namedWorkload(preset)));
    sys.run(instr, warmup);
}

/** One timed replay; returns simulated data accesses per second. */
double
replayRate(mee::Protocol p, const std::string &preset,
           const std::string &path, std::uint64_t instr,
           std::uint64_t warmup)
{
    const sim::SystemConfig cfg = sim::SystemConfig::singleProgram(p);
    sim::WorkloadConfig w = bench::scaled(sim::namedWorkload(preset));
    w.name = "trace:" + path;
    w.traceFile = path;
    sim::System sys(cfg);
    sys.addProcess(w);
    const auto t0 = std::chrono::steady_clock::now();
    const sim::RunResult r = sys.run(instr, warmup);
    const auto t1 = std::chrono::steady_clock::now();
    const double secs =
        std::chrono::duration<double>(t1 - t0).count();
    if (secs <= 0.0 || r.dataAccesses == 0)
        fatal("replay of %s under %s did nothing", preset.c_str(),
              mee::protocolName(p));
    return static_cast<double>(r.dataAccesses) / secs;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::uint64_t instr = bench::benchInstructions();
    const std::uint64_t warmup = bench::benchWarmup();
    const std::uint64_t reps = envU64("AMNT_BENCH_REPS", 3);
    const std::optional<mee::Protocol> only =
        bench::protocolOverride(argc, argv);
    const std::vector<mee::Protocol> protocols =
        only ? std::vector<mee::Protocol>{*only}
             : core::allProtocols();

    bench::JsonSink sink(argc, argv, "bench_replay");
    TextTable table;
    table.header({"protocol", "preset", "Maccess/s"});

    for (const char *preset : kPresets) {
        const std::string path = tracePath(preset);
        record(preset, path, instr, warmup);
        for (mee::Protocol p : protocols) {
            double best = 0.0;
            for (std::uint64_t rep = 0; rep < reps; ++rep)
                best = std::max(
                    best, replayRate(p, preset, path, instr, warmup));
            table.row({mee::protocolName(p), preset,
                       TextTable::num(best / 1e6, 3)});
            bench::JsonRow row;
            row.field("protocol", std::string(mee::protocolName(p)));
            row.field("preset", std::string(preset));
            row.field("accesses_per_sec", best);
            sink.add(row);
        }
        std::remove(path.c_str());
    }
    std::fputs(table.render().c_str(), stdout);
    return 0;
}
