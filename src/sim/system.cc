#include "sim/system.hh"

#include <atomic>
#include <cstdlib>

#include "common/log.hh"

namespace amnt::sim
{

namespace
{

/**
 * AMNT_TRACE_RECORD destination for this System instance: the first
 * recording system of the process gets the bare path, later ones get
 * `.2`, `.3`, … so independent sweep jobs never share a file.
 */
std::string
envRecordPath()
{
    const char *base = std::getenv("AMNT_TRACE_RECORD");
    if (base == nullptr || base[0] == '\0')
        return "";
    static std::atomic<std::uint64_t> instances{0};
    const std::uint64_t n = ++instances;
    if (n == 1)
        return base;
    return std::string(base) + "." + std::to_string(n);
}

} // namespace

SystemConfig
SystemConfig::singleProgram(mee::Protocol p)
{
    SystemConfig cfg;
    cfg.cores = 1;
    cfg.protocol = p;
    cfg.privateLevels = {
        {"l1d", 32 * 1024, 8, 2},
        {"l2", 1024 * 1024, 16, 12},
    };
    cfg.sharedLlc = std::nullopt;
    return cfg;
}

SystemConfig
SystemConfig::multiProgram(mee::Protocol p)
{
    SystemConfig cfg;
    cfg.cores = 2;
    cfg.protocol = p;
    cfg.privateLevels = {
        {"l1d", 32 * 1024, 8, 2},
        {"l2", 128 * 1024, 8, 12},
    };
    cfg.sharedLlc = cache::CacheConfig{"l3", 1024 * 1024, 16, 30};
    return cfg;
}

SystemConfig
SystemConfig::specQuad(mee::Protocol p)
{
    SystemConfig cfg;
    cfg.cores = 4;
    cfg.protocol = p;
    cfg.privateLevels = {
        {"l1d", 32 * 1024, 8, 2},
        {"l2", 512 * 1024, 8, 12},
    };
    cfg.sharedLlc = cache::CacheConfig{"l3", 8 * 1024 * 1024, 16, 30};
    return cfg;
}

System::System(const SystemConfig &config) : config_(config)
{
    if (config.cores == 0)
        fatal("system needs at least one core");
    if (config.shards != 0)
        fatal("SystemConfig::shards must be 0, got %u: a System runs "
              "one flat secure memory",
              config.shards);
    if (config_.traceRecordPath.empty())
        config_.traceRecordPath = envRecordPath();

    memory_ =
        std::make_unique<core::FlatMemory>(config.protocol, config.mee);
    pipe_ = std::make_unique<MemoryPipe>(*memory_, config.cores,
                                         config.mee.dataBytes);

    const std::uint64_t frames = config.mee.dataBytes / kPageSize;
    const std::uint64_t frames_per_region =
        memory_->engine().map().geometry().countersPerNode(
            config.mee.amntSubtreeLevel);
    if (config.amntpp) {
        allocator_ = std::make_unique<os::AmntPpAllocator>(
            frames, frames_per_region, 10, config.amntppCfg);
    } else {
        allocator_ = std::make_unique<os::BuddyAllocator>(frames);
    }
    if (config.ageAllocator) {
        Rng rng(config.allocatorSeed);
        allocator_->ageSystem(rng, config.agedFreeFraction,
                              config.agedRunPages);
    }
    if (auto *pp =
            dynamic_cast<os::AmntPpAllocator *>(allocator_.get())) {
        // The modified OS has been restructuring since boot; start
        // from a biased free list (its cost was paid long ago, so it
        // is excluded from the measured OS instruction account).
        pp->restructure();
        lastOsInstructions_ = allocator_->instructions();
    }

    if (config.sharedLlc)
        llc_ = std::make_unique<cache::Cache>(*config.sharedLlc);

    cores_.resize(config.cores);

    memory_->registerStats(registry_);
    if (llc_)
        registry_.addGroup("cache." + llc_->name(), &llc_->stats());
}

core::AmntStrategy *
System::amnt()
{
    return dynamic_cast<core::AmntStrategy *>(
        &memory_->engine().strategy());
}

Cycle
System::memRead(Addr a, unsigned core)
{
    pipe_->read(a, core);
    return 0;
}

Cycle
System::memWrite(Addr a, unsigned core)
{
    pipe_->write(a, core);
    return 0;
}

void
System::syncMemory()
{
    // Latencies only ever add into the cores' cycles, and nothing reads
    // those before this boundary: summing them here is exact.
    std::vector<Cycle> lat(cores_.size(), 0);
    pipe_->drain(lat);
    for (std::size_t i = 0; i < cores_.size(); ++i)
        cores_[i].cycles += lat[i];
}

void
System::addProcess(const WorkloadConfig &workload)
{
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        Core &c = cores_[i];
        if (c.workload != nullptr)
            continue;

        c.workload = std::make_unique<Workload>(workload);
        c.pageTable = std::make_unique<os::PageTable>(*allocator_);
        c.rng.reseed(workload.seed ^ (0xc0feULL + i));

        if (!config_.traceRecordPath.empty()) {
            const std::string path =
                cores_.size() == 1
                    ? config_.traceRecordPath
                    : config_.traceRecordPath + ".core" +
                          std::to_string(i);
            c.recorder =
                std::make_unique<traceio::TraceWriter>(path);
        }

        std::vector<cache::Cache *> path;
        for (const auto &level : config_.privateLevels) {
            cache::CacheConfig cc = level;
            cc.name = level.name + "." + std::to_string(i);
            c.privateCaches.push_back(
                std::make_unique<cache::Cache>(cc));
            path.push_back(c.privateCaches.back().get());
            registry_.addGroup("cache." + cc.name,
                               &c.privateCaches.back()->stats());
        }
        if (llc_)
            path.push_back(llc_.get());

        const unsigned idx = static_cast<unsigned>(i);
        c.hierarchy = std::make_unique<cache::CacheHierarchy>(
            path,
            [this, idx](Addr a) { return memRead(a, idx); },
            [this, idx](Addr a) { return memWrite(a, idx); });

        const std::string core_path = "core" + std::to_string(i);
        c.hierarchy->registerStats(registry_, core_path);
        registry_.addScalar(
            core_path + ".page_faults",
            [pt = c.pageTable.get()] { return pt->faults(); });

        // Initialization phase: programs allocate and touch their
        // core (hot) data structures up front, which is what makes
        // hot sets physically contiguous. Unmeasured, like the rest
        // of the pre-ROI execution.
        const auto hot_pages = static_cast<std::uint64_t>(
            static_cast<double>(workload.footprintPages) *
            workload.hotPagesFraction);
        for (std::uint64_t p = 0; p < hot_pages; ++p)
            c.pageTable->translate(pageAddr(p));
        lastOsInstructions_ = allocator_->instructions();
        return;
    }
    fatal("more processes than cores");
}

void
System::chargeOs(Core &c)
{
    const std::uint64_t now = allocator_->instructions();
    if (now != lastOsInstructions_) {
        const std::uint64_t delta = now - lastOsInstructions_;
        lastOsInstructions_ = now;
        osInstructions_ += delta;
        c.cycles += delta * config_.baseCpi;
    }
}

void
System::step(Core &c, unsigned idx)
{
    ++c.instructions;
    c.cycles += config_.baseCpi;
    ++c.refGap;

    // Trace replay drives issue off the recorded instruction gaps;
    // generators are gated by the workload's memory intensity.
    if (c.workload->timedReplay()) {
        if (!c.workload->replayTick())
            return;
    } else if (!c.workload->issuesMemRef(c.rng)) {
        return;
    }

    const MemRef ref = c.workload->next();
    if (c.recorder != nullptr) {
        c.recorder->append(ref, c.refGap);
        c.refGap = 0;
    }
    if (ref.churnPage)
        c.pageTable->unmapPage(ref.churnVictim);

    const Addr paddr = c.pageTable->translate(ref.vaddr);
    if (config_.recordAccessHistogram)
        ++histogram_[pageOf(paddr)];

    c.cycles += c.hierarchy->access(paddr, ref.type);
    if (ref.flush) {
        // Persistence-model flush: the dirty line is written through
        // to the secure memory controller on the critical path; its
        // latency reaches this core at the next syncMemory().
        memWrite(paddr, idx);
    }
    chargeOs(c);
}

System::Snapshot
System::snapshot()
{
    Snapshot s;
    for (const auto &c : cores_) {
        s.coreCycles.push_back(c.cycles);
        s.coreInstructions.push_back(c.instructions);
        s.memReads.push_back(c.hierarchy->memReads());
        s.memWrites.push_back(c.hierarchy->memWrites());
        s.faults.push_back(c.pageTable->faults());
    }
    s.osInstructions = osInstructions_;
    const mee::MemoryEngine &eng = memory_->engine();
    s.mcacheHits = eng.metaCache().stats().get("hits");
    s.mcacheMisses = eng.metaCache().stats().get("misses");
    s.subtreeHits = eng.stats().get("subtree_hits");
    s.subtreeMisses = eng.stats().get("subtree_misses");
    s.movements = eng.stats().get("subtree_movements");
    return s;
}

void
System::advance(std::uint64_t n, std::uint64_t &daemon_clock)
{
    auto *pp = dynamic_cast<os::AmntPpAllocator *>(allocator_.get());

    // Round-robin lockstep in small quanta.
    constexpr std::uint64_t kQuantum = 64;
    std::uint64_t done = 0;
    while (done < n) {
        const std::uint64_t q = std::min(kQuantum, n - done);
        for (std::size_t ci = 0; ci < cores_.size(); ++ci) {
            for (std::uint64_t i = 0; i < q; ++i)
                step(cores_[ci], static_cast<unsigned>(ci));
        }
        done += q;
        daemon_clock += q;
        if (config_.amntpp && pp != nullptr &&
            daemon_clock >= config_.daemonEvery) {
            // Background reclamation pass (kswapd analogue).
            daemon_clock = 0;
            pp->restructure();
            chargeOs(cores_[0]);
        }
    }
}

RunResult
System::run(std::uint64_t instructions_per_core,
            std::uint64_t warmup_per_core)
{
    for (auto &c : cores_) {
        if (c.workload == nullptr)
            fatal("run() before every core has a process");
    }

    std::uint64_t daemon_clock = 0;
    if (warmup_per_core > 0)
        advance(warmup_per_core, daemon_clock);
    syncMemory();
    const Snapshot before = snapshot();
    advance(instructions_per_core, daemon_clock);
    syncMemory();
    const Snapshot after = snapshot();

    // Seal each recording with the run's silent tail so a looped
    // replay reproduces the instruction positions past the last
    // reference (the end-of-trace marker is written on close).
    for (auto &c : cores_) {
        if (c.recorder != nullptr)
            c.recorder->noteTail(c.refGap);
    }

    RunResult res;
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        res.cycles = std::max(res.cycles, after.coreCycles[i] -
                                              before.coreCycles[i]);
        res.appInstructions +=
            after.coreInstructions[i] - before.coreInstructions[i];
        res.memReads += after.memReads[i] - before.memReads[i];
        res.memWrites += after.memWrites[i] - before.memWrites[i];
        res.pageFaults += after.faults[i] - before.faults[i];
    }
    res.dataAccesses = res.memReads + res.memWrites;
    res.osInstructions = after.osInstructions - before.osInstructions;

    const std::uint64_t mhits = after.mcacheHits - before.mcacheHits;
    const std::uint64_t mmiss =
        after.mcacheMisses - before.mcacheMisses;
    res.mcacheHitRate =
        mhits + mmiss == 0
            ? 0.0
            : static_cast<double>(mhits) /
                  static_cast<double>(mhits + mmiss);
    const std::uint64_t shits = after.subtreeHits - before.subtreeHits;
    const std::uint64_t smiss =
        after.subtreeMisses - before.subtreeMisses;
    res.subtreeHitRate =
        shits + smiss == 0
            ? 0.0
            : static_cast<double>(shits) /
                  static_cast<double>(shits + smiss);
    res.subtreeMovements = after.movements - before.movements;
    return res;
}

} // namespace amnt::sim
