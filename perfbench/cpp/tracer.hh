/**
 * @file
 * Span tracer for the benchmark's traced driver.
 *
 * The driver times calls into the simulator's public layer functions
 * from outside; each timed call is a span at one of the fixed layer
 * boundaries below. Per boundary the tracer keeps, in memory, the call
 * count, total and self nanoseconds (self = the span minus the child
 * spans it encloses, so cache self time is CacheHierarchy::access
 * minus the MemoryEngine calls its callbacks make) and every call's
 * duration, from which percentiles are taken at the end. For one
 * reference in every `sampleStride`, the full spans (boundary, start,
 * end, parent) are kept too and written out as a Chrome trace.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench
{

/** Layer boundaries the driver times. */
enum class Boundary : std::uint8_t
{
    MeeBuild,      ///< NvmDevice + MemoryEngine construction (setup)
    OsAge,         ///< allocator construction, ageSystem, first restructure
    OsPrefault,    ///< hot-page prefault of one process (setup)
    Step,          ///< one referencing instruction (sampled spans only)
    WorkloadNext,  ///< Workload::next (generator or trace decode)
    OsUnmap,       ///< PageTable::unmapPage (page churn)
    OsTranslate,   ///< PageTable::translate
    CacheAccess,   ///< CacheHierarchy::access
    MeeRead,       ///< MemoryEngine::read
    MeeWrite,      ///< MemoryEngine::write (write-backs and flushes)
    OsRestructure, ///< AmntPpAllocator::restructure on the daemon tick
    Count,
};

inline const char *
boundaryName(Boundary b)
{
    static const char *const names[] = {
        "mee.build",     "os.age",       "os.prefault", "sim.step",
        "sim.workload.next", "os.unmap", "os.translate", "cache.access",
        "mee.read",      "mee.write",    "os.restructure",
    };
    return names[static_cast<unsigned>(b)];
}

class Tracer
{
  public:
    using Clock = std::chrono::steady_clock;

    /** Aggregates of one boundary. */
    struct Stat
    {
        std::uint64_t calls = 0;
        std::uint64_t ns = 0;
        std::uint64_t selfNs = 0;
        std::vector<std::uint32_t> durations;

        /**
         * The @p q quantile of the call durations, in ns, as the mean
         * of the durations ranked within half a percent of it: whole
         * nanoseconds tie heavily, and the band mean keeps the digits
         * a single order statistic would round away.
         */
        double
        quantile(double q)
        {
            if (durations.empty())
                return 0.0;
            std::sort(durations.begin(), durations.end());
            const double last = static_cast<double>(durations.size() - 1);
            const auto lo = static_cast<std::size_t>(
                std::max(0.0, q - 0.005) * last);
            const auto hi = static_cast<std::size_t>(
                std::min(1.0, q + 0.005) * last);
            double sum = 0.0;
            for (std::size_t i = lo; i <= hi; ++i)
                sum += durations[i];
            return sum / static_cast<double>(hi - lo + 1);
        }
    };

    /** One kept span of a sampled reference. */
    struct Span
    {
        Boundary boundary;
        std::int32_t parent; ///< index into spans(), -1 for a root
        std::uint64_t ref;   ///< sampled reference number
        std::int64_t startNs;
        std::int64_t endNs;
    };

    explicit Tracer(std::uint64_t sample_stride)
        : stride_(sample_stride), origin_(Clock::now())
    {
    }

    /** Start of a referencing instruction; decides whether to sample. */
    void
    beginRef()
    {
        sampling_ = refs_++ % stride_ == 0;
        if (sampling_)
            enter(Boundary::Step);
    }

    void
    endRef()
    {
        if (sampling_) {
            leave();
            sampling_ = false;
        }
    }

    void
    enter(Boundary b)
    {
        Frame &f = stack_[depth_++];
        f.boundary = b;
        f.childNs = 0;
        f.span = -1;
        if (sampling_) {
            f.span = static_cast<std::int32_t>(spans_.size());
            spans_.push_back({b, depth_ > 1 ? stack_[depth_ - 2].span : -1,
                              refs_ - 1, 0, 0});
        }
        f.start = Clock::now();
        if (f.span >= 0)
            spans_[f.span].startNs = sinceOrigin(f.start);
    }

    void
    leave()
    {
        const Clock::time_point end = Clock::now();
        Frame &f = stack_[--depth_];
        const auto ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(end -
                                                                 f.start)
                .count());
        if (f.span >= 0)
            spans_[f.span].endNs = sinceOrigin(end);
        if (f.boundary == Boundary::Step)
            return; // sampled-only root: aggregates would be biased
        Stat &s = stats_[static_cast<unsigned>(f.boundary)];
        ++s.calls;
        s.ns += ns;
        s.selfNs += ns - std::min(ns, f.childNs);
        s.durations.push_back(static_cast<std::uint32_t>(
            std::min<std::uint64_t>(ns, UINT32_MAX)));
        if (depth_ > 0 && stack_[depth_ - 1].boundary != Boundary::Step)
            stack_[depth_ - 1].childNs += ns;
        else
            topNs_ += ns;
    }

    /** Run @p fn inside a span at @p b and return its result. */
    template <class Fn>
    auto
    time(Boundary b, Fn &&fn)
    {
        enter(b);
        struct Leave
        {
            Tracer *t;
            ~Leave() { t->leave(); }
        } guard{this};
        return fn();
    }

    Stat &stat(Boundary b) { return stats_[static_cast<unsigned>(b)]; }

    /** Nanoseconds inside top-level spans (no enclosing span). */
    std::uint64_t topNs() const { return topNs_; }

    /** Chrome trace-event JSON of the sampled spans. */
    std::string
    chromeTrace(unsigned pid) const
    {
        std::string out;
        char buf[256];
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::snprintf(buf, sizeof(buf),
                          "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%u,"
                          "\"tid\":0,\"ts\":%.3f,\"dur\":%.3f,\"args\":"
                          "{\"ref\":%llu,\"parent\":%d}}",
                          i == 0 ? "" : ",\n", boundaryName(s.boundary),
                          pid, static_cast<double>(s.startNs) / 1e3,
                          static_cast<double>(s.endNs - s.startNs) / 1e3,
                          static_cast<unsigned long long>(s.ref),
                          static_cast<int>(s.parent));
            out += buf;
        }
        return out;
    }

  private:
    struct Frame
    {
        Boundary boundary = Boundary::Step;
        std::int32_t span = -1;
        std::uint64_t childNs = 0;
        Clock::time_point start;
    };

    std::int64_t
    sinceOrigin(Clock::time_point t) const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   t - origin_)
            .count();
    }

    std::uint64_t stride_;
    Clock::time_point origin_;
    std::uint64_t refs_ = 0;
    bool sampling_ = false;
    std::array<Frame, 8> stack_{};
    unsigned depth_ = 0;
    std::array<Stat, static_cast<unsigned>(Boundary::Count)> stats_{};
    std::uint64_t topNs_ = 0;
    std::vector<Span> spans_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
