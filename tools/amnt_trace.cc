/**
 * amnt_trace — memory-trace toolbox (record / replay / import / info).
 *
 *   amnt_trace record --out=t.trc [--workload=gups] [--protocol=amnt]
 *                     [--instr=N] [--warmup=N] [--stats=stats.json]
 *                     [--shards=N]
 *       Run one single-core simulation of the named workload with
 *       trace recording on, optionally dumping the run's full
 *       StatRegistry JSON.
 *
 *   amnt_trace replay --trace=t.trc [--workload=gups]
 *                     [--protocol=amnt] [--instr=N] [--warmup=N]
 *                     [--stats=stats.json] [--shards=N]
 *       Feed a recorded trace back through the same stack. With the
 *       same workload/protocol/instr/warmup as the recording run,
 *       the stats dump is bit-identical to the live run's (the
 *       invariant CI diffs). --workload matters even though the
 *       trace supplies every reference: programs pre-touch their hot
 *       pages before the ROI, so the named workload's footprint
 *       shapes the initial page-table and allocator state.
 *
 *   amnt_trace import --in=champsim.trace --out=native.trc
 *       Convert an uncompressed ChampSim capture to the native
 *       format.
 *
 *   amnt_trace info --trace=t.trc
 *       Print version and record/read/write/flush/churn counts.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "common/env.hh"
#include "common/log.hh"
#include "core/protocol_registry.hh"
#include "sim/presets.hh"
#include "sim/system.hh"
#include "sim/traceio/champsim.hh"
#include "sim/traceio/reader.hh"

using namespace amnt;

namespace
{

struct Options
{
    std::string workload = "gups";
    std::string protocol = "amnt";
    std::string trace;
    std::string in;
    std::string out;
    std::string stats;
    std::uint64_t instr = 100'000;
    std::uint64_t warmup = 0;

    /** 0 = flat memory (unless AMNT_SHARDS); N = sharded lanes. */
    std::uint64_t shards = 0;
};

std::uint64_t
parseU64(const std::string &value, const char *flag)
{
    std::uint64_t v = 0;
    for (char c : value) {
        if (c < '0' || c > '9')
            fatal("%s wants a decimal integer, got '%s'", flag,
                  value.c_str());
        v = v * 10 + static_cast<std::uint64_t>(c - '0');
    }
    if (value.empty())
        fatal("%s wants a decimal integer", flag);
    return v;
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto take = [&](const char *flag,
                              std::string &out) {
            const std::string eq = std::string(flag) + "=";
            if (arg.rfind(eq, 0) != 0)
                return false;
            out = arg.substr(eq.size());
            return true;
        };
        std::string num;
        if (take("--workload", o.workload) ||
            take("--protocol", o.protocol) ||
            take("--trace", o.trace) || take("--in", o.in) ||
            take("--out", o.out) || take("--stats", o.stats))
            continue;
        if (take("--instr", num)) {
            o.instr = parseU64(num, "--instr");
            continue;
        }
        if (take("--warmup", num)) {
            o.warmup = parseU64(num, "--warmup");
            continue;
        }
        if (take("--shards", num)) {
            o.shards = parseU64(num, "--shards");
            continue;
        }
        fatal("unknown option '%s'", arg.c_str());
    }
    return o;
}

void
dumpStats(const sim::System &sys, const std::string &path)
{
    const std::string json = sys.statsJson();
    if (path.empty())
        return;
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        fatal("cannot write stats to '%s'", path.c_str());
    std::fprintf(f, "%s\n", json.c_str());
    std::fclose(f);
}

int
runSim(const Options &o, const std::string &record_path,
       const std::string &replay_path)
{
    // --protocol accepts exactly the registered names; an unknown
    // name dies listing core::protocolNameList().
    sim::SystemConfig cfg = sim::SystemConfig::singleProgram(
        core::protocolByName(o.protocol));
    cfg.mee.dataBytes = envU64("AMNT_TRACE_DATA_BYTES", 1ull << 30);
    cfg.traceRecordPath = record_path;
    // Sharded scale-out: the stats dump stays byte-identical at any
    // --shards value (CI diffs a 1-lane against a 4-lane replay).
    cfg.shards = static_cast<unsigned>(o.shards);

    // Replay keeps the named workload's parameters so the pre-ROI
    // hot-page initialization (and with it the page-table and
    // allocator state) matches the recording run exactly.
    sim::WorkloadConfig w = sim::namedWorkload(o.workload);
    if (!replay_path.empty()) {
        w.name = "trace:" + replay_path;
        w.traceFile = replay_path;
    }

    sim::System sys(cfg);
    sys.addProcess(w);
    const sim::RunResult r = sys.run(o.instr, o.warmup);
    dumpStats(sys, o.stats);
    std::fprintf(stderr,
                 "%s: %llu instr, %llu mem reads, %llu mem writes, "
                 "%llu cycles\n",
                 replay_path.empty() ? "record" : "replay",
                 static_cast<unsigned long long>(r.appInstructions),
                 static_cast<unsigned long long>(r.memReads),
                 static_cast<unsigned long long>(r.memWrites),
                 static_cast<unsigned long long>(r.cycles));
    return 0;
}

int
info(const Options &o)
{
    if (o.trace.empty())
        fatal("info needs --trace=PATH");
    sim::traceio::TraceReader reader(o.trace);
    if (!reader.ok())
        fatal("%s", reader.error().c_str());
    std::uint64_t reads = 0, writes = 0, flushes = 0, churns = 0;
    std::uint64_t instructions = 0;
    sim::traceio::TraceRecord rec;
    while (reader.next(rec)) {
        reads += rec.ref.type == AccessType::Read;
        writes += rec.ref.type == AccessType::Write;
        flushes += rec.ref.flush;
        churns += rec.ref.churnPage;
        instructions += rec.gap == 0 ? 1 : rec.gap;
    }
    if (!reader.ok())
        fatal("%s", reader.error().c_str());
    std::printf("trace:        %s\n", o.trace.c_str());
    std::printf("format:       v%u (timed)\n", reader.version());
    std::printf("records:      %llu\n",
                static_cast<unsigned long long>(
                    reader.recordsRead()));
    std::printf("instructions: %llu\n",
                static_cast<unsigned long long>(instructions));
    std::printf("reads:        %llu\n",
                static_cast<unsigned long long>(reads));
    std::printf("writes:       %llu (%llu flushed)\n",
                static_cast<unsigned long long>(writes),
                static_cast<unsigned long long>(flushes));
    std::printf("churn events: %llu\n",
                static_cast<unsigned long long>(churns));
    return 0;
}

int
importTrace(const Options &o)
{
    if (o.in.empty() || o.out.empty())
        fatal("import needs --in=CHAMPSIM --out=NATIVE");
    sim::traceio::ImportStats stats;
    const std::string err =
        sim::traceio::importChampSim(o.in, o.out, &stats);
    if (!err.empty())
        fatal("%s", err.c_str());
    std::printf("imported %llu instructions -> %llu records "
                "(%llu reads, %llu writes) into %s\n",
                static_cast<unsigned long long>(stats.instructions),
                static_cast<unsigned long long>(stats.records),
                static_cast<unsigned long long>(stats.reads),
                static_cast<unsigned long long>(stats.writes),
                o.out.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        fatal("usage: amnt_trace record|replay|import|info "
              "[--flag=value ...]");
    const std::string cmd = argv[1];
    const Options o = parse(argc, argv);
    if (cmd == "record") {
        if (o.out.empty())
            fatal("record needs --out=PATH");
        return runSim(o, o.out, "");
    }
    if (cmd == "replay") {
        if (o.trace.empty())
            fatal("replay needs --trace=PATH");
        return runSim(o, "", o.trace);
    }
    if (cmd == "import")
        return importTrace(o);
    if (cmd == "info")
        return info(o);
    fatal("unknown command '%s' (record|replay|import|info)",
          cmd.c_str());
}
