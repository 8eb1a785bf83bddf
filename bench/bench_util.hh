/**
 * @file
 * Shared plumbing for the experiment harnesses in bench/.
 *
 * Every binary regenerates one table or figure of the paper: it runs
 * the same protocol set over the same workloads and prints the same
 * rows/series the paper reports (normalized cycles, hit rates,
 * recovery milliseconds). Scale differs from the authors' testbed —
 * these are scaled-down regions of interest on a simulator — so the
 * *shape* (who wins, by roughly what factor, where crossovers fall)
 * is the reproduction target; see EXPERIMENTS.md.
 *
 * Harnesses enqueue their whole configuration matrix as sweep::Jobs
 * and execute it once through sweep::run(), which fans the
 * independent simulations out over a FIFO thread pool
 * (AMNT_SWEEP_THREADS workers; jobs start in list order) and returns
 * outcomes in submission order — tables are formatted from the
 * outcome vector afterwards, so stdout is byte-identical at any
 * thread count.
 *
 * Environment knobs:
 *   AMNT_BENCH_INSTR    instructions per core measured  (default 2M)
 *   AMNT_BENCH_WARMUP   warm-up instructions per core   (default 1M)
 *   AMNT_BENCH_SCALE    divisor applied to preset footprints (def. 4)
 *   AMNT_SWEEP_THREADS  sweep worker count (default: hardware threads)
 *   AMNT_BENCH_JSON     write per-row machine-readable results here
 *   AMNT_BENCH_STATS    1 = embed each row's full stats-registry
 *                       snapshot (sweep::Outcome::statsJson) as a
 *                       "stats" object in the JSON rows
 *
 * Every harness also accepts `--json <path>` (overrides the
 * environment variable), plus a workload override:
 *   --workload=NAME  run the whole protocol/config matrix on this
 *                    one workload (PARSEC, SPEC, or synthetic
 *                    preset: zipfian gups stream kvstore chase)
 *   --trace=PATH     same, replaying a recorded trace (sim/traceio/);
 *                    combine with --workload=NAME to reproduce the
 *                    recording workload's pre-ROI hot-page
 *                    initialization (required for bit-identical
 *                    record/replay stats)
 *   --protocol=NAME  run every job of the matrix under this protocol
 *                    (any name registered in core/protocol_registry;
 *                    an unknown name dies listing them all)
 * The overrides substitute every process/job of the matrix, so row
 * labels keep the harness's own naming while all rows measure the
 * chosen workload or protocol. Recording is orthogonal: AMNT_TRACE_RECORD=<path>
 * captures every simulated run (see sim/system.hh).
 */

#ifndef AMNT_BENCH_BENCH_UTIL_HH
#define AMNT_BENCH_BENCH_UTIL_HH

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/env.hh"
#include "common/log.hh"
#include "common/table.hh"
#include "core/protocol_registry.hh"
#include "sim/presets.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"

namespace amnt::bench
{

inline std::uint64_t
benchInstructions()
{
    return envU64("AMNT_BENCH_INSTR", 2'000'000);
}

inline std::uint64_t
benchWarmup()
{
    return envU64("AMNT_BENCH_WARMUP", 1'000'000);
}

/**
 * Scale a preset's footprint down so scaled-down instruction counts
 * still revisit their working set (the paper runs 1B+ instructions;
 * we default to 2M measured).
 */
inline sim::WorkloadConfig
scaled(sim::WorkloadConfig w)
{
    const std::uint64_t divisor = envU64("AMNT_BENCH_SCALE", 4);
    w.footprintPages =
        std::max<std::uint64_t>(256, w.footprintPages / divisor);
    return w;
}

/**
 * Multiprogram footprints stay at full size: the interference
 * effects of Figures 5-7 only appear when the combined hot sets
 * compete for (and overflow) one subtree region.
 */
inline sim::WorkloadConfig
scaledMp(sim::WorkloadConfig w)
{
    const std::uint64_t divisor = envU64("AMNT_BENCH_SCALE_MP", 1);
    w.footprintPages =
        std::max<std::uint64_t>(256, w.footprintPages / divisor);
    return w;
}

/**
 * The protocol columns of Figures 4/5 (amnt++ handled separately),
 * derived from ProtocolInfo::figureOrder in the registry so the
 * harness columns and the golden pins can never drift apart.
 */
inline const std::vector<mee::Protocol> &
figureProtocols()
{
    static const std::vector<mee::Protocol> p =
        core::figureProtocols();
    return p;
}

/**
 * Parse a `--protocol=NAME` / `--protocol NAME` override against the
 * registry. Returns nullopt when the flag is absent; fatal (listing
 * every registered name) on an unknown protocol.
 */
inline std::optional<mee::Protocol>
protocolOverride(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::string eq = "--protocol=";
        if (arg.rfind(eq, 0) == 0)
            return core::protocolByName(arg.substr(eq.size()));
        if (arg == "--protocol") {
            if (i + 1 >= argc)
                fatal("--protocol needs a value (one of: %s)",
                      core::protocolNameList().c_str());
            return core::protocolByName(argv[i + 1]);
        }
    }
    return std::nullopt;
}

/**
 * Parse a `--shards=N[,M...]` / `--shards N[,M...]` override: the
 * sharded-engine lane counts to bench in addition to the flat
 * secure-memory run (see shard/sharded_engine.hh — the lane count is
 * host execution policy, so simulated results are byte-identical
 * across the list; only wall-clock throughput moves). Returns an
 * empty list when the flag is absent; fatal on malformed values.
 */
inline std::vector<unsigned>
shardsOverride(int argc, char **argv)
{
    std::string spec;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::string eq = "--shards=";
        if (arg.rfind(eq, 0) == 0) {
            spec = arg.substr(eq.size());
        } else if (arg == "--shards") {
            if (i + 1 >= argc)
                fatal("--shards needs a value, e.g. --shards=1,4");
            spec = argv[i + 1];
        }
    }
    std::vector<unsigned> shards;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t end = spec.find(',', pos);
        if (end == std::string::npos)
            end = spec.size();
        const std::string tok = spec.substr(pos, end - pos);
        char *rest = nullptr;
        const unsigned long v = std::strtoul(tok.c_str(), &rest, 10);
        if (tok.empty() || *rest != '\0' || v == 0)
            fatal("--shards: '%s' is not a positive lane count",
                  tok.c_str());
        shards.push_back(static_cast<unsigned>(v));
        pos = end + 1;
    }
    return shards;
}

/**
 * Apply a `--protocol=` override to a built job matrix: every job
 * simulates the chosen protocol while keeping its label, workload,
 * and core count. No-op without the flag.
 */
inline void
applyProtocolOverride(std::vector<sweep::Job> &jobs, int argc,
                      char **argv)
{
    const std::optional<mee::Protocol> over =
        protocolOverride(argc, argv);
    if (!over)
        return;
    for (sweep::Job &job : jobs)
        job.config.protocol = *over;
}

/**
 * Parse a `--workload=NAME` / `--trace=PATH` override (both `=` and
 * two-token spellings). Returns the override workload, or nullopt
 * when neither flag is present; fatal on conflicting or malformed
 * flags. Named workloads are resolved across every suite and scaled
 * like the harness presets (AMNT_BENCH_SCALE).
 */
inline std::optional<sim::WorkloadConfig>
workloadOverride(int argc, char **argv)
{
    std::string workload, trace;
    auto grab = [&](const std::string &arg, const char *flag,
                    int i, std::string &out) {
        const std::string eq = std::string(flag) + "=";
        if (arg.rfind(eq, 0) == 0) {
            out = arg.substr(eq.size());
            return true;
        }
        if (arg == flag) {
            if (i + 1 >= argc)
                fatal("%s needs a value", flag);
            out = argv[i + 1];
            return true;
        }
        return false;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        grab(arg, "--workload", i, workload) ||
            grab(arg, "--trace", i, trace);
    }
    if (!trace.empty()) {
        // --workload alongside --trace names the recording workload:
        // its parameters shape the pre-ROI hot-page initialization,
        // which replay must repeat for bit-identical stats.
        sim::WorkloadConfig w =
            workload.empty() ? sim::WorkloadConfig{}
                             : scaled(sim::namedWorkload(workload));
        w.name = "trace:" + trace;
        w.traceFile = trace;
        return w;
    }
    if (!workload.empty())
        return scaled(sim::namedWorkload(workload));
    return std::nullopt;
}

/**
 * Apply the `--workload=` / `--trace=` override to a built job
 * matrix: every process of every job runs the override instead of
 * the harness's preset (protocols, core counts, and system configs
 * are untouched). No-op without the flags.
 */
inline void
applyWorkloadOverride(std::vector<sweep::Job> &jobs, int argc,
                      char **argv)
{
    const std::optional<sim::WorkloadConfig> over =
        workloadOverride(argc, argv);
    if (!over)
        return;
    for (sweep::Job &job : jobs) {
        for (sim::WorkloadConfig &w : job.processes)
            w = *over;
    }
}

/** Convenience builder for the common one-config job. */
inline sweep::Job
makeJob(sim::SystemConfig cfg,
        std::vector<sim::WorkloadConfig> procs, std::uint64_t instr,
        std::uint64_t warmup)
{
    return sweep::Job{std::move(cfg), std::move(procs), instr, warmup};
}

/** AMNT_BENCH_STATS: embed registry snapshots in JSON rows. */
inline bool
benchStatsEnabled()
{
    static const bool on = envU64("AMNT_BENCH_STATS", 0) != 0;
    return on;
}

/** Paper Table 1 system config at the chosen core count. */
inline sim::SystemConfig
paperSystem(mee::Protocol p, unsigned cores)
{
    sim::SystemConfig cfg =
        cores == 1   ? sim::SystemConfig::singleProgram(p)
        : cores == 2 ? sim::SystemConfig::multiProgram(p)
                     : sim::SystemConfig::specQuad(p);
    cfg.mee.dataBytes = 8ull << 30;
    return cfg;
}

// ------------------------------------------------------------- JSON sink

/** One JSON object, built field by field (insertion order kept). */
class JsonRow
{
  public:
    JsonRow &
    field(const char *key, const std::string &value)
    {
        sep();
        body_ += '"';
        body_ += key;
        body_ += "\": \"";
        for (char c : value) {
            if (c == '"' || c == '\\')
                body_ += '\\';
            body_ += c;
        }
        body_ += '"';
        return *this;
    }

    JsonRow &
    field(const char *key, double value)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.9g", value);
        return raw(key, buf);
    }

    JsonRow &
    field(const char *key, std::uint64_t value)
    {
        return raw(key, std::to_string(value));
    }

    JsonRow &
    field(const char *key, bool value)
    {
        return raw(key, value ? "true" : "false");
    }

    /** Embed pre-rendered JSON (an object or array) verbatim. */
    JsonRow &
    rawField(const char *key, const std::string &json)
    {
        return raw(key, json);
    }

    std::string str() const { return "{" + body_ + "}"; }

  private:
    JsonRow &
    raw(const char *key, const std::string &text)
    {
        sep();
        body_ += '"';
        body_ += key;
        body_ += "\": ";
        body_ += text;
        return *this;
    }

    void
    sep()
    {
        if (!body_.empty())
            body_ += ", ";
    }

    std::string body_;
};

/**
 * This process's peak resident set size in MB, from VmHWM in
 * /proc/self/status; nullopt where that is unavailable. Unlike
 * getrusage()'s ru_maxrss, VmHWM restarts at exec, so it never
 * reports the peak of the process that launched the harness.
 */
inline std::optional<double>
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return std::nullopt;
    std::optional<double> mb;
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        unsigned long long kb = 0;
        if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) {
            mb = static_cast<double>(kb) / 1024.0;
            break;
        }
    }
    std::fclose(f);
    return mb;
}

/**
 * Machine-readable results file, enabled by `--json <path>` or
 * AMNT_BENCH_JSON. The file opens at construction, so a bad path is
 * fatal before any simulation runs; rows accumulate in memory and
 * flush as one JSON document
 * ({"bench": ..., "peak_rss_mb": ..., "rows": [...]}) at destruction,
 * where a failed write or close is fatal too. peak_rss_mb is the
 * harness's peak RSS up to the flush (peakRssMb(); null where it
 * cannot be read). When disabled every call is a no-op.
 */
class JsonSink
{
  public:
    JsonSink(int argc, char **argv, std::string bench)
        : bench_(std::move(bench))
    {
        if (const char *env = std::getenv("AMNT_BENCH_JSON"))
            path_ = env;
        for (int i = 1; i + 1 < argc; ++i) {
            if (std::string(argv[i]) == "--json")
                path_ = argv[i + 1];
        }
        if (path_.empty())
            return;
        file_ = std::fopen(path_.c_str(), "w");
        if (file_ == nullptr)
            fatal("bench: cannot open JSON output %s: %s",
                  path_.c_str(), std::strerror(errno));
    }

    JsonSink(const JsonSink &) = delete;
    JsonSink &operator=(const JsonSink &) = delete;

    ~JsonSink()
    {
        if (file_ == nullptr)
            return;
        const std::optional<double> rss = peakRssMb();
        char rss_text[32] = "null";
        if (rss)
            std::snprintf(rss_text, sizeof(rss_text), "%.2f", *rss);
        std::fprintf(file_,
                     "{\"bench\": \"%s\", \"peak_rss_mb\": %s, "
                     "\"rows\": [",
                     bench_.c_str(), rss_text);
        for (std::size_t i = 0; i < rows_.size(); ++i)
            std::fprintf(file_, "%s\n  %s", i == 0 ? "" : ",",
                         rows_[i].c_str());
        std::fprintf(file_, "\n]}\n");
        const bool write_failed = std::ferror(file_) != 0;
        if (std::fclose(file_) != 0 || write_failed)
            fatal("bench: writing JSON output %s failed",
                  path_.c_str());
    }

    bool enabled() const { return file_ != nullptr; }

    /** Append an arbitrary row. */
    void
    add(const JsonRow &row)
    {
        if (enabled())
            rows_.push_back(row.str());
    }

    /**
     * Lead every later result() row with a "figure" field naming
     * @p figure, for harnesses that print several figures.
     */
    void setFigure(std::string figure) { figure_ = std::move(figure); }

    /**
     * Append the standard row for one swept configuration: the
     * config, the simulated result, and the host-side measurement
     * (wall seconds and simulated instructions per second).
     */
    void
    result(const std::string &label, const sweep::Job &job,
           const sweep::Outcome &o, double normalized_cycles = 0.0)
    {
        if (!enabled())
            return;
        const double instr_total = static_cast<double>(
            o.result.appInstructions + o.result.osInstructions);
        JsonRow row;
        if (!figure_.empty())
            row.field("figure", figure_);
        row.field("label", label)
            .field("protocol",
                   std::string(
                       mee::protocolName(job.config.protocol)))
            .field("cores", std::uint64_t(job.config.cores))
            .field("amntpp", job.config.amntpp)
            .field("subtree_level",
                   std::uint64_t(job.config.mee.amntSubtreeLevel))
            .field("instructions", job.instructions)
            .field("warmup", job.warmup)
            .field("cycles", o.result.cycles)
            .field("normalized_cycles", normalized_cycles)
            .field("mcache_hit_rate", o.result.mcacheHitRate)
            .field("subtree_hit_rate", o.result.subtreeHitRate)
            .field("subtree_movements", o.result.subtreeMovements)
            .field("wall_seconds", o.wallSeconds)
            .field("sim_instr_per_sec",
                   o.wallSeconds > 0.0 ? instr_total / o.wallSeconds
                                       : 0.0);
        if (benchStatsEnabled() && !o.statsJson.empty())
            row.rawField("stats", o.statsJson);
        rows_.push_back(row.str());
    }

  private:
    std::string bench_;
    std::string figure_;
    std::string path_;
    std::FILE *file_ = nullptr;
    std::vector<std::string> rows_;
};

} // namespace amnt::bench

#endif // AMNT_BENCH_BENCH_UTIL_HH
