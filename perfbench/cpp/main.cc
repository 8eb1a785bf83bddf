/**
 * perfbench — one workload repetition of the simulator benchmark.
 *
 *   perfbench record --workload W --seed N [--tiny] --trace-file F
 *   perfbench e2e    --workload W --seed N [--tiny] [--trace-file F]
 *   perfbench trace  --workload W --seed N [--tiny] [--trace-file F]
 *                    [--spans-out F]
 *
 * `e2e` builds and runs every sim::System of the workload with no
 * tracing and prints one JSON object: host setup, run and wall
 * seconds, peak RSS, and per System its RunResult, violation count and
 * statsJson(). `trace` runs the same Systems, then the same jobs
 * through the benchmark's untraced and traced drivers (driver.hh), and
 * adds the per-layer host-time metrics and a per-job check that both
 * drivers reproduced System::run's RunResult. `record` writes the v2
 * trace that stream-replay replays; it is not timed.
 *
 * Every generated input derives from --seed alone. Instruction counts
 * and footprint scaling are pinned here (--tiny selects the pinned
 * test lengths); no AMNT_* environment variable is read, and the
 * program refuses to run when one is set. perfbench/run.py drives
 * repetitions and reduces them to the reported metrics.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/log.hh"
#include "crypto/dispatch.hh"
#include "driver.hh"
#include "sim/presets.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"
#include "tracer.hh"

extern char **environ;

using namespace amnt;
using perfbench::Boundary;
using perfbench::Tracer;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** splitmix64 finalizer. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Seed of one generated input, from the run seed and a fixed tag. */
std::uint64_t
deriveSeed(std::uint64_t seed, const std::string &tag)
{
    std::uint64_t h = 0xcbf29ce484222325ULL; // FNV-1a
    for (unsigned char c : tag)
        h = (h ^ c) * 0x100000001b3ULL;
    return mix(seed ^ h);
}

/** Pinned run lengths (per core). */
struct Lengths
{
    std::uint64_t instructions;
    std::uint64_t warmup;
};

/** One workload: the Systems it runs and on how many sweep workers. */
struct Plan
{
    std::vector<sweep::Job> jobs;
    std::vector<std::string> labels;
    unsigned workers = 1;
    /** stream-replay: the job recorded into --trace-file first. */
    std::optional<sweep::Job> recording;
};

/** Table-1 system at @p cores cores (8 GB protected data). */
sim::SystemConfig
paperSystem(mee::Protocol p, unsigned cores, std::uint64_t alloc_seed)
{
    sim::SystemConfig cfg = cores == 1
                                ? sim::SystemConfig::singleProgram(p)
                                : sim::SystemConfig::multiProgram(p);
    cfg.mee.dataBytes = 8ull << 30;
    cfg.allocatorSeed = alloc_seed;
    return cfg;
}

/** Preset with its footprint divided by @p divisor, seeded from @p seed. */
sim::WorkloadConfig
preset(const std::string &name, std::uint64_t divisor, std::uint64_t seed)
{
    sim::WorkloadConfig w = sim::namedWorkload(name);
    w.footprintPages =
        std::max<std::uint64_t>(256, w.footprintPages / divisor);
    w.seed = deriveSeed(seed, "process:" + name);
    return w;
}

Plan
makePlan(const std::string &workload, std::uint64_t seed,
         const Lengths &len, const std::string &trace_file)
{
    const std::uint64_t alloc_seed = deriveSeed(seed, "allocator");
    auto job = [&](sim::SystemConfig cfg,
                   std::vector<sim::WorkloadConfig> procs) {
        return sweep::Job{std::move(cfg), std::move(procs),
                          len.instructions, len.warmup};
    };
    Plan plan;
    if (workload == "canneal-amnt") {
        plan.jobs.push_back(job(paperSystem(mee::Protocol::Amnt, 1,
                                            alloc_seed),
                                {preset("canneal", 4, seed)}));
        plan.labels.push_back("canneal/amnt");
    } else if (workload == "gups-strict") {
        plan.jobs.push_back(job(paperSystem(mee::Protocol::Strict, 1,
                                            alloc_seed),
                                {preset("gups", 4, seed)}));
        plan.labels.push_back("gups/strict");
    } else if (workload == "stream-replay") {
        if (trace_file.empty())
            fatal("stream-replay needs --trace-file");
        const sim::WorkloadConfig w = preset("stream", 4, seed);
        sweep::Job rec = job(
            paperSystem(mee::Protocol::Volatile, 1, alloc_seed), {w});
        rec.config.traceRecordPath = trace_file;
        plan.recording = rec;
        sim::WorkloadConfig replay = w;
        replay.name = "trace:" + trace_file;
        replay.traceFile = trace_file;
        plan.jobs.push_back(job(
            paperSystem(mee::Protocol::Volatile, 1, alloc_seed), {replay}));
        plan.labels.push_back("stream/volatile/replay");
    } else if (workload == "parsec-mp-sweep") {
        plan.workers = 2;
        for (const auto &[a, b] : sim::parsecMultiprogramPairs()) {
            const std::vector<sim::WorkloadConfig> procs = {
                preset(a, 1, seed), preset(b, 1, seed)};
            for (const char *proto : {"volatile", "amnt", "amnt++"}) {
                const bool pp = std::strcmp(proto, "amnt++") == 0;
                sim::SystemConfig cfg = paperSystem(
                    std::strcmp(proto, "volatile") == 0
                        ? mee::Protocol::Volatile
                        : mee::Protocol::Amnt,
                    2, alloc_seed);
                cfg.amntpp = pp;
                plan.jobs.push_back(job(cfg, procs));
                plan.labels.push_back(a + "+" + b + "/" + proto);
            }
        }
    } else {
        fatal("unknown workload '%s' (canneal-amnt gups-strict "
              "stream-replay parsec-mp-sweep)",
              workload.c_str());
    }
    return plan;
}

// ------------------------------------------------------------- JSON out

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
num(std::uint64_t v)
{
    return std::to_string(v);
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

/** One JSON object built field by field. */
class Obj
{
  public:
    Obj &
    raw(const std::string &key, const std::string &json)
    {
        body_ += (body_.empty() ? "" : ", ") + quoted(key) + ": " + json;
        return *this;
    }
    Obj &num(const std::string &k, double v) { return raw(k, ::num(v)); }
    Obj &
    count(const std::string &k, std::uint64_t v)
    {
        return raw(k, ::num(v));
    }
    Obj &str(const std::string &k, const std::string &v)
    {
        return raw(k, quoted(v));
    }
    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

std::string
resultJson(const sim::RunResult &r)
{
    return Obj()
        .count("cycles", r.cycles)
        .count("app_instructions", r.appInstructions)
        .count("os_instructions", r.osInstructions)
        .count("data_accesses", r.dataAccesses)
        .count("mem_reads", r.memReads)
        .count("mem_writes", r.memWrites)
        .num("mcache_hit_rate", r.mcacheHitRate)
        .num("subtree_hit_rate", r.subtreeHitRate)
        .count("subtree_movements", r.subtreeMovements)
        .count("page_faults", r.pageFaults)
        .text();
}

bool
sameResult(const sim::RunResult &a, const sim::RunResult &b)
{
    return a.cycles == b.cycles && a.appInstructions == b.appInstructions &&
           a.osInstructions == b.osInstructions &&
           a.dataAccesses == b.dataAccesses && a.memReads == b.memReads &&
           a.memWrites == b.memWrites &&
           a.mcacheHitRate == b.mcacheHitRate &&
           a.subtreeHitRate == b.subtreeHitRate &&
           a.subtreeMovements == b.subtreeMovements &&
           a.pageFaults == b.pageFaults;
}

// ------------------------------------------------------------ the runs

/** What one System run of a job produced. */
struct SystemRun
{
    double setupS = 0.0; ///< construction + addProcess
    double runS = 0.0;   ///< System::run
    double jobS = 0.0;   ///< setup through statsJson
    sim::RunResult result;
    std::uint64_t violations = 0;
    std::string stats;
};

struct SweepRun
{
    std::vector<SystemRun> runs;
    double wallS = 0.0;
};

/** Every job of @p plan through sim::System on the sweep pool. */
SweepRun
runSystems(const Plan &plan)
{
    SweepRun out;
    out.runs.resize(plan.jobs.size());
    const auto t0 = Clock::now();
    sweep::parallelFor(
        plan.jobs.size(),
        [&](std::size_t i) {
            const sweep::Job &job = plan.jobs[i];
            SystemRun &r = out.runs[i];
            const auto j0 = Clock::now();
            sim::System sys(job.config);
            for (const auto &w : job.processes)
                sys.addProcess(w);
            r.setupS = secondsSince(j0);
            const auto r0 = Clock::now();
            r.result = sys.run(job.instructions, job.warmup);
            r.runS = secondsSince(r0);
            r.violations = sys.engine().violations();
            r.stats = sys.statsJson();
            r.jobS = secondsSince(j0);
        },
        plan.workers);
    out.wallS = secondsSince(t0);
    return out;
}

/** What one driver run of a job produced. */
struct DriverRun
{
    double runS = 0.0;
    /** Traced only: ns of top-level spans during run() (not setup). */
    std::uint64_t runTopNs = 0;
    sim::RunResult result;
    std::uint64_t violations = 0;
    std::unique_ptr<Tracer> tracer;
};

template <bool kTraced>
std::vector<DriverRun>
runDrivers(const Plan &plan, std::uint64_t sample_stride)
{
    std::vector<DriverRun> out(plan.jobs.size());
    sweep::parallelFor(
        plan.jobs.size(),
        [&](std::size_t i) {
            const sweep::Job &job = plan.jobs[i];
            DriverRun &r = out[i];
            if constexpr (kTraced)
                r.tracer = std::make_unique<Tracer>(sample_stride);
            perfbench::Driver<kTraced> d(job.config, r.tracer.get());
            for (const auto &w : job.processes)
                d.addProcess(w);
            const std::uint64_t top0 = kTraced ? r.tracer->topNs() : 0;
            const auto r0 = Clock::now();
            r.result = d.run(job.instructions, job.warmup);
            r.runS = secondsSince(r0);
            if constexpr (kTraced)
                r.runTopNs = r.tracer->topNs() - top0;
            r.violations = d.violations();
        },
        plan.workers);
    return out;
}

std::uint64_t
peakRssKb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<std::uint64_t>(ru.ru_maxrss);
}

std::string
systemsJson(const Plan &plan, const SweepRun &sw)
{
    std::string out = "[";
    for (std::size_t i = 0; i < sw.runs.size(); ++i) {
        const SystemRun &r = sw.runs[i];
        out += (i == 0 ? "" : ", ") +
               Obj()
                   .str("label", plan.labels[i])
                   .count("cores", plan.jobs[i].config.cores)
                   .num("setup_s", r.setupS)
                   .num("run_s", r.runS)
                   .num("job_s", r.jobS)
                   .count("violations", r.violations)
                   .raw("result", resultJson(r.result))
                   .raw("stats", r.stats)
                   .text();
    }
    return out + "]";
}

/** Per-layer host-time metrics of one traced repetition. */
std::string
layersJson(const Plan &plan, const SweepRun &sys,
           const std::vector<DriverRun> &plain,
           std::vector<DriverRun> &traced)
{
    Tracer::Stat merged[static_cast<unsigned>(Boundary::Count)];
    double sys_run = 0, plain_run = 0, traced_run = 0, driver_self = 0;
    double job_sum = 0;
    for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
        sys_run += sys.runs[i].runS;
        job_sum += sys.runs[i].jobS;
        plain_run += plain[i].runS;
        traced_run += traced[i].runS;
        Tracer &t = *traced[i].tracer;
        driver_self +=
            traced[i].runS - static_cast<double>(traced[i].runTopNs) / 1e9;
        for (unsigned b = 0; b < static_cast<unsigned>(Boundary::Count);
             ++b) {
            Tracer::Stat &s = t.stat(static_cast<Boundary>(b));
            merged[b].calls += s.calls;
            merged[b].ns += s.ns;
            merged[b].selfNs += s.selfNs;
            merged[b].durations.insert(merged[b].durations.end(),
                                       s.durations.begin(),
                                       s.durations.end());
        }
    }
    auto at = [&](Boundary b) -> Tracer::Stat & {
        return merged[static_cast<unsigned>(b)];
    };
    auto secs = [&](Boundary b) {
        return static_cast<double>(at(b).ns) / 1e9;
    };
    auto mean = [&](Boundary b, bool self) {
        const Tracer::Stat &s = at(b);
        return s.calls == 0 ? 0.0
                            : static_cast<double>(self ? s.selfNs : s.ns) /
                                  static_cast<double>(s.calls);
    };
    return Obj()
        .num("os.age.s", secs(Boundary::OsAge))
        .num("mee.build.s", secs(Boundary::MeeBuild))
        .num("os.prefault.s", secs(Boundary::OsPrefault))
        .num("os.translate.ns", mean(Boundary::OsTranslate, false))
        .count("os.translate.calls", at(Boundary::OsTranslate).calls)
        .num("mee.read.ns_p50", at(Boundary::MeeRead).quantile(0.50))
        .num("mee.read.ns_p99", at(Boundary::MeeRead).quantile(0.99))
        .count("mee.read.calls", at(Boundary::MeeRead).calls)
        .num("mee.read.s", secs(Boundary::MeeRead))
        .num("mee.write.ns_p50", at(Boundary::MeeWrite).quantile(0.50))
        .num("mee.write.ns_p99", at(Boundary::MeeWrite).quantile(0.99))
        .count("mee.write.calls", at(Boundary::MeeWrite).calls)
        .num("mee.write.s", secs(Boundary::MeeWrite))
        .num("cache.access.self_ns", mean(Boundary::CacheAccess, true))
        .count("cache.access.calls", at(Boundary::CacheAccess).calls)
        .num("sim.workload.next.ns", mean(Boundary::WorkloadNext, false))
        .num("os.restructure.s", secs(Boundary::OsRestructure))
        .count("os.restructure.calls", at(Boundary::OsRestructure).calls)
        .num("sweep.busy_frac",
             job_sum / (static_cast<double>(plan.workers) * sys.wallS))
        .num("sim.driver.self.s", driver_self)
        .num("trace.overhead_frac", traced_run / plain_run - 1.0)
        .num("sim.system.unattributed_frac", 1.0 - plain_run / sys_run)
        .text();
}

void
writeSpans(const std::string &path, const std::vector<DriverRun> &traced)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        fatal("cannot write spans to %s", path.c_str());
    std::fputs("{\"traceEvents\": [\n", f);
    bool first = true;
    for (std::size_t i = 0; i < traced.size(); ++i) {
        const std::string events =
            traced[i].tracer->chromeTrace(static_cast<unsigned>(i));
        if (events.empty())
            continue;
        std::fputs(first ? "" : ",\n", f);
        std::fputs(events.c_str(), f);
        first = false;
    }
    std::fputs("\n]}\n", f);
    std::fclose(f);
}

/** Refuse to run when the simulator could read a knob from the env. */
void
refuseAmntEnvironment()
{
    for (char **e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "AMNT_", 5) == 0)
            fatal("perfbench: refusing to run with %s set (clear every "
                  "AMNT_* variable)",
                  *e);
    }
}

struct Args
{
    std::string mode, workload, traceFile, spansOut;
    std::uint64_t seed = 0;
    bool haveSeed = false;
    bool tiny = false;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    if (argc < 2)
        fatal("usage: perfbench record|e2e|trace --workload W --seed N "
              "[--tiny] [--trace-file F] [--spans-out F]");
    a.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("%s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            a.workload = value();
        } else if (arg == "--seed") {
            const std::string v = value();
            char *end = nullptr;
            a.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0' || v[0] == '-')
                fatal("--seed: '%s' is not an unsigned integer", v.c_str());
            a.haveSeed = true;
        } else if (arg == "--trace-file") {
            a.traceFile = value();
        } else if (arg == "--spans-out") {
            a.spansOut = value();
        } else if (arg == "--tiny") {
            a.tiny = true;
        } else {
            fatal("unknown argument '%s'", arg.c_str());
        }
    }
    if (a.workload.empty() || !a.haveSeed)
        fatal("--workload and --seed are required");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    refuseAmntEnvironment();
    const Args args = parseArgs(argc, argv);
    // Full: the figure harnesses' default region of interest. Tiny
    // still crosses one AMNT++ daemon tick (SystemConfig::daemonEvery).
    const Lengths len = args.tiny ? Lengths{200'000, 100'000}
                                  : Lengths{2'000'000, 1'000'000};
    const Plan plan =
        makePlan(args.workload, args.seed, len, args.traceFile);

    if (args.mode == "record") {
        if (!plan.recording)
            fatal("workload '%s' replays no trace", args.workload.c_str());
        sim::System sys(plan.recording->config);
        for (const auto &w : plan.recording->processes)
            sys.addProcess(w);
        sys.run(plan.recording->instructions, plan.recording->warmup);
        std::printf("%s\n",
                    Obj().str("recorded", args.traceFile).text().c_str());
        return 0;
    }

    Obj out;
    out.str("workload", args.workload)
        .count("seed", args.seed)
        .count("instructions", len.instructions)
        .count("warmup", len.warmup)
        .count("workers", plan.workers)
        .str("isa", crypto::dispatch::isaName(
                        crypto::dispatch::active().isa))
        .raw("batch", crypto::dispatch::batchEnabled() ? "true" : "false")
        .str("build_type", PERFBENCH_BUILD_TYPE);

    if (args.mode == "e2e") {
        const SweepRun sw = runSystems(plan);
        double setup = 0, run = 0;
        for (const SystemRun &r : sw.runs) {
            setup += r.setupS;
            run += r.runS;
        }
        out.num("setup_s", setup)
            .num("run_s", run)
            .num("wall_s", sw.wallS)
            .count("peak_rss_kb", peakRssKb())
            .raw("systems", systemsJson(plan, sw));
    } else if (args.mode == "trace") {
        constexpr std::uint64_t kSampleStride = 4096;
        const SweepRun sw = runSystems(plan);
        const std::vector<DriverRun> plain =
            runDrivers<false>(plan, kSampleStride);
        std::vector<DriverRun> traced =
            runDrivers<true>(plan, kSampleStride);
        std::string match = "[";
        for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
            const bool same =
                sameResult(plain[i].result, sw.runs[i].result) &&
                sameResult(traced[i].result, sw.runs[i].result) &&
                plain[i].violations == 0 && traced[i].violations == 0;
            match += std::string(i == 0 ? "" : ", ") +
                     (same ? "true" : "false");
        }
        if (!args.spansOut.empty())
            writeSpans(args.spansOut, traced);
        out.raw("systems", systemsJson(plan, sw))
            .raw("driver_match", match + "]")
            .raw("layers", layersJson(plan, sw, plain, traced));
    } else {
        fatal("unknown mode '%s' (record e2e trace)", args.mode.c_str());
    }
    std::printf("%s\n", out.text().c_str());
    return 0;
}
