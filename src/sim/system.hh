/**
 * @file
 * Full-system assembly: cores + data-cache hierarchy + OS paging +
 * secure memory (mee/secure_memory.hh).
 *
 * Each core runs one process (workload + private page table) through
 * private cache levels into an optional shared LLC; misses and dirty
 * write-backs reach the one secure-memory unit, a core::FlatMemory,
 * through a MemoryPipe (sim/memory_pipe.hh) that may apply them on a
 * memory-side helper thread. Their latencies reach the cores' cycle
 * counts at each measurement boundary.
 * Cores advance in round-robin lockstep; the run's cycle count is the
 * slowest core's, matching the multiprogram methodology of the paper
 * (both regions of interest measured in parallel).
 */

#ifndef AMNT_SIM_SYSTEM_HH
#define AMNT_SIM_SYSTEM_HH

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cache/hierarchy.hh"
#include "core/amnt.hh"
#include "mee/secure_memory.hh"
#include "obs/registry.hh"
#include "os/amntpp_allocator.hh"
#include "os/page_table.hh"
#include "sim/memory_pipe.hh"
#include "sim/traceio/writer.hh"
#include "sim/workload.hh"

namespace amnt::sim
{

/** System construction parameters. */
struct SystemConfig
{
    unsigned cores = 1;
    mee::Protocol protocol = mee::Protocol::Volatile;
    mee::MeeConfig mee;

    /** Use the AMNT++ biased allocator + reclamation daemon. */
    bool amntpp = false;
    os::AmntPpConfig amntppCfg;

    /**
     * Must be 0: System always runs one core::FlatMemory, and rejects
     * any other value. The field remains only because the benchmark
     * driver (perfbench/cpp/driver.hh) still reads it; it goes once
     * that read does.
     */
    unsigned shards = 0;

    /** Private cache levels per core (L1 first). */
    std::vector<cache::CacheConfig> privateLevels = {
        {"l1d", 32 * 1024, 8, 2},
        {"l2", 1024 * 1024, 16, 12},
    };

    /** Shared last-level cache (nullopt = none). */
    std::optional<cache::CacheConfig> sharedLlc;

    /** Age the allocator before the run (long-running system). */
    bool ageAllocator = true;
    double agedFreeFraction = 0.7;
    std::uint64_t agedRunPages = 8192; ///< 32 MB contiguous runs
    std::uint64_t allocatorSeed = 7;

    /** Background-reclamation tick (instructions) for AMNT++. */
    std::uint64_t daemonEvery = 250000;

    /** Base CPI of non-memory instructions. */
    Cycle baseCpi = 1;

    /** Record a physical-frame access histogram (Figure 3). */
    bool recordAccessHistogram = false;

    /**
     * When non-empty, record every core's reference stream (warm-up
     * included) as a v2 trace (sim/traceio/): core 0 writes exactly
     * this path on a single-core system, and `<path>.core<i>` per
     * core otherwise. Left empty, the AMNT_TRACE_RECORD environment
     * variable fills it in at construction (the second and later
     * System instances of the process then append `.2`, `.3`, … so
     * sweep jobs do not clobber each other; record single jobs, or
     * set AMNT_SWEEP_THREADS=1, for stable numbering). Recording
     * only observes: the run itself is bit-identical with it on or
     * off.
     */
    std::string traceRecordPath;

    /** Canonical single-program config (paper section 6 defaults). */
    static SystemConfig singleProgram(mee::Protocol p);

    /** Two cores, private L1/L2, shared 1 MB L3 (section 6.2). */
    static SystemConfig multiProgram(mee::Protocol p);

    /** Four cores, 512 kB L2, shared 8 MB L3 (section 6.5, SPEC). */
    static SystemConfig specQuad(mee::Protocol p);
};

/** Aggregate outcome of a run. */
struct RunResult
{
    Cycle cycles = 0; ///< slowest core
    std::uint64_t appInstructions = 0;
    std::uint64_t osInstructions = 0;
    std::uint64_t dataAccesses = 0;
    std::uint64_t memReads = 0;   ///< LLC misses reaching the MEE
    std::uint64_t memWrites = 0;  ///< write-backs reaching the MEE
    double mcacheHitRate = 0.0;
    double subtreeHitRate = 0.0;  ///< AMNT only
    std::uint64_t subtreeMovements = 0;
    std::uint64_t pageFaults = 0;
};

/** An assembled simulated machine. */
class System
{
  public:
    explicit System(const SystemConfig &config);

    /**
     * Bind a process to the next free core. Must be called exactly
     * `cores` times before run().
     */
    void addProcess(const WorkloadConfig &workload);

    /**
     * Run every core for @p instructions_per_core instructions after
     * an unmeasured warm-up of @p warmup_per_core instructions — the
     * simulated analogue of fast-forwarding to the benchmark's
     * region of interest.
     */
    RunResult run(std::uint64_t instructions_per_core,
                  std::uint64_t warmup_per_core = 0);

    /** The secure memory. */
    mee::SecureMemory &engine() { return *memory_; }

    /** The physical allocator. */
    os::BuddyAllocator &allocator() { return *allocator_; }

    /** Physical frame access histogram (when enabled). */
    const std::unordered_map<PageId, std::uint64_t> &
    accessHistogram() const
    {
        return histogram_;
    }

    /** AMNT strategy; nullptr for other protocols. */
    core::AmntStrategy *amnt();

    /**
     * The federated stats registry: every component of this system
     * registers at construction under stable dotted paths ("mee.*",
     * "cache.*", "core<i>.*", "nvm.*"; DESIGN.md §11).
     */
    obs::StatRegistry &registry() { return registry_; }

    /** One sorted JSON document of every registered statistic. */
    std::string statsJson() const { return registry_.dumpJson(); }

    /**
     * The queue between the caches and the secure memory. Tests use
     * it to force the memory-side helper on or off
     * (MemoryPipe::setHelper); results are the same either way.
     */
    MemoryPipe &memoryPipe() { return *pipe_; }

  private:
    struct Core
    {
        std::unique_ptr<Workload> workload;
        std::unique_ptr<os::PageTable> pageTable;
        std::vector<std::unique_ptr<cache::Cache>> privateCaches;
        std::unique_ptr<cache::CacheHierarchy> hierarchy;
        Rng rng{1};
        Cycle cycles = 0;
        std::uint64_t instructions = 0;

        /** Trace recording sink (null unless recording). */
        std::unique_ptr<traceio::TraceWriter> recorder;

        /** Instructions since this core's last reference. */
        std::uint64_t refGap = 0;
    };

    /** Advance one instruction on core @p c (index @p idx). */
    void step(Core &c, unsigned idx);

    /**
     * Queue one LLC miss or write-back for the secure memory. Its
     * latency reaches the core at the next syncMemory(), so the
     * hierarchy is charged 0 now.
     */
    Cycle memRead(Addr a, unsigned core);
    Cycle memWrite(Addr a, unsigned core);

    /**
     * Apply every queued memory op and fold the pipe's per-core
     * latency sums into the cores' cycle counts. Called at every
     * measurement boundary so snapshots observe a fully-settled
     * machine.
     */
    void syncMemory();

    /** Attribute freshly accrued OS instructions to core @p c. */
    void chargeOs(Core &c);

    /** Counters captured at the measurement boundary. */
    struct Snapshot
    {
        std::vector<Cycle> coreCycles;
        std::vector<std::uint64_t> coreInstructions;
        std::vector<std::uint64_t> memReads;
        std::vector<std::uint64_t> memWrites;
        std::vector<std::uint64_t> faults;
        std::uint64_t osInstructions = 0;
        std::uint64_t mcacheHits = 0;
        std::uint64_t mcacheMisses = 0;
        std::uint64_t subtreeHits = 0;
        std::uint64_t subtreeMisses = 0;
        std::uint64_t movements = 0;
    };

    Snapshot snapshot();

    /** Drive all cores for @p n instructions each. */
    void advance(std::uint64_t n, std::uint64_t &daemon_clock);

    SystemConfig config_;
    obs::StatRegistry registry_;
    std::unique_ptr<core::FlatMemory> memory_;
    std::unique_ptr<MemoryPipe> pipe_; ///< the only user of memory_ in run()
    std::unique_ptr<os::BuddyAllocator> allocator_;
    std::unique_ptr<cache::Cache> llc_;
    std::vector<Core> cores_;
    std::uint64_t lastOsInstructions_ = 0;
    std::uint64_t osInstructions_ = 0;
    std::unordered_map<PageId, std::uint64_t> histogram_;
};

} // namespace amnt::sim

#endif // AMNT_SIM_SYSTEM_HH
