/**
 * @file
 * The benchmark's replica of sim::System, composed only from the
 * simulator's public pieces so that every layer call can be timed from
 * outside.
 *
 * It repeats System's construction (NVM map, engine, allocator aging,
 * the initial AMNT++ restructure, hot-page prefault) and its
 * step/advance/run loop call for call: Workload::next or replayTick,
 * PageTable::unmapPage/translate, CacheHierarchy::access whose
 * callbacks call MemoryEngine::read/write, and AmntPpAllocator::
 * restructure on the daemon tick. Its RunResult must therefore equal
 * System::run's exactly; the benchmark checks that on every traced
 * run. With kTraced false no clock is read, which gives the untraced
 * driver time that the tracing overhead is measured against.
 *
 * Only the single-engine path is replicated (no shards, no trace
 * recording, no access histogram).
 */

#ifndef PERFBENCH_DRIVER_HH
#define PERFBENCH_DRIVER_HH

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "common/log.hh"
#include "core/amnt.hh"
#include "mem/memory_map.hh"
#include "mem/nvm_device.hh"
#include "os/amntpp_allocator.hh"
#include "os/page_table.hh"
#include "sim/system.hh"
#include "sim/workload.hh"
#include "tracer.hh"

namespace perfbench
{

using namespace amnt;

template <bool kTraced>
class Driver
{
  public:
    /** @param tracer Span sink; must be non-null iff kTraced. */
    Driver(const sim::SystemConfig &config, Tracer *tracer)
        : config_(config), tracer_(tracer)
    {
        if (config.cores == 0 || config.shards != 0 ||
            !config.traceRecordPath.empty() ||
            config.recordAccessHistogram)
            fatal("driver replicates only the single-engine System");

        timed(Boundary::MeeBuild, [&] {
            const mem::MemoryMap probe(config.mee.dataBytes);
            nvm_ = std::make_unique<mem::NvmDevice>(probe.deviceBytes());
            engine_ =
                core::makeEngine(config.protocol, config.mee, *nvm_);
        });
        timed(Boundary::OsAge, [&] {
            const std::uint64_t frames = config.mee.dataBytes / kPageSize;
            const std::uint64_t frames_per_region =
                engine_->map().geometry().countersPerNode(
                    config.mee.amntSubtreeLevel);
            if (config.amntpp) {
                auto pp = std::make_unique<os::AmntPpAllocator>(
                    frames, frames_per_region, 10, config.amntppCfg);
                amntpp_ = pp.get();
                allocator_ = std::move(pp);
            } else {
                allocator_ = std::make_unique<os::BuddyAllocator>(frames);
            }
            if (config.ageAllocator) {
                Rng rng(config.allocatorSeed);
                allocator_->ageSystem(rng, config.agedFreeFraction,
                                      config.agedRunPages);
            }
            if (amntpp_ != nullptr) {
                amntpp_->restructure();
                lastOs_ = allocator_->instructions();
            }
        });
        if (config.sharedLlc)
            llc_ = std::make_unique<cache::Cache>(*config.sharedLlc);
        cores_.resize(config.cores);
    }

    Driver(const Driver &) = delete;
    Driver &operator=(const Driver &) = delete;

    /** Bind a process to the next free core (System::addProcess). */
    void
    addProcess(const sim::WorkloadConfig &w)
    {
        for (std::size_t i = 0; i < cores_.size(); ++i) {
            Core &c = cores_[i];
            if (c.workload != nullptr)
                continue;
            c.workload = std::make_unique<sim::Workload>(w);
            c.pageTable = std::make_unique<os::PageTable>(*allocator_);
            c.rng.reseed(w.seed ^ (0xc0feULL + i));

            std::vector<cache::Cache *> path;
            for (const auto &level : config_.privateLevels) {
                cache::CacheConfig cc = level;
                cc.name = level.name + "." + std::to_string(i);
                c.privateCaches.push_back(
                    std::make_unique<cache::Cache>(cc));
                path.push_back(c.privateCaches.back().get());
            }
            if (llc_)
                path.push_back(llc_.get());
            c.hierarchy = std::make_unique<cache::CacheHierarchy>(
                path, [this](Addr a) { return memRead(a); },
                [this](Addr a) { return memWrite(a); });

            timed(Boundary::OsPrefault, [&] {
                const auto hot_pages = static_cast<std::uint64_t>(
                    static_cast<double>(w.footprintPages) *
                    w.hotPagesFraction);
                for (std::uint64_t p = 0; p < hot_pages; ++p)
                    c.pageTable->translate(pageAddr(p));
            });
            lastOs_ = allocator_->instructions();
            return;
        }
        fatal("more processes than cores");
    }

    /** System::run, call for call. */
    sim::RunResult
    run(std::uint64_t instructions_per_core, std::uint64_t warmup_per_core)
    {
        for (auto &c : cores_) {
            if (c.workload == nullptr)
                fatal("run() before every core has a process");
        }
        std::uint64_t daemon_clock = 0;
        if (warmup_per_core > 0)
            advance(warmup_per_core, daemon_clock);
        const Snapshot before = snapshot();
        advance(instructions_per_core, daemon_clock);
        const Snapshot after = snapshot();

        sim::RunResult res;
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
        res.mcacheHitRate = rate(after.mcacheHits - before.mcacheHits,
                                 after.mcacheMisses - before.mcacheMisses);
        res.subtreeHitRate =
            rate(after.subtreeHits - before.subtreeHits,
                 after.subtreeMisses - before.subtreeMisses);
        res.subtreeMovements = after.movements - before.movements;
        return res;
    }

    std::uint64_t violations() const { return engine_->violations(); }

  private:
    struct Core
    {
        std::unique_ptr<sim::Workload> workload;
        std::unique_ptr<os::PageTable> pageTable;
        std::vector<std::unique_ptr<cache::Cache>> privateCaches;
        std::unique_ptr<cache::CacheHierarchy> hierarchy;
        Rng rng{1};
        Cycle cycles = 0;
        std::uint64_t instructions = 0;
    };

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

    static double
    rate(std::uint64_t hits, std::uint64_t misses)
    {
        return hits + misses == 0 ? 0.0
                                  : static_cast<double>(hits) /
                                        static_cast<double>(hits + misses);
    }

    template <class Fn>
    auto
    timed(Boundary b, Fn &&fn)
    {
        if constexpr (kTraced)
            return tracer_->time(b, fn);
        else
            return fn();
    }

    Cycle
    memRead(Addr a)
    {
        return timed(Boundary::MeeRead, [&] { return engine_->read(a); });
    }

    Cycle
    memWrite(Addr a)
    {
        return timed(Boundary::MeeWrite,
                     [&] { return engine_->write(a); });
    }

    void
    chargeOs(Core &c)
    {
        const std::uint64_t now = allocator_->instructions();
        if (now != lastOs_) {
            const std::uint64_t delta = now - lastOs_;
            lastOs_ = now;
            osInstructions_ += delta;
            c.cycles += delta * config_.baseCpi;
        }
    }

    void
    step(Core &c)
    {
        ++c.instructions;
        c.cycles += config_.baseCpi;
        if (c.workload->timedReplay()) {
            if (!c.workload->replayTick())
                return;
        } else if (!c.workload->issuesMemRef(c.rng)) {
            return;
        }

        if constexpr (kTraced)
            tracer_->beginRef();
        const sim::MemRef ref = timed(Boundary::WorkloadNext,
                                      [&] { return c.workload->next(); });
        if (ref.churnPage)
            timed(Boundary::OsUnmap,
                  [&] { c.pageTable->unmapPage(ref.churnVictim); });
        const Addr paddr = timed(Boundary::OsTranslate, [&] {
            return c.pageTable->translate(ref.vaddr);
        });
        c.cycles += timed(Boundary::CacheAccess, [&] {
            return c.hierarchy->access(paddr, ref.type);
        });
        if (ref.flush)
            c.cycles += memWrite(paddr);
        chargeOs(c);
        if constexpr (kTraced)
            tracer_->endRef();
    }

    Snapshot
    snapshot() const
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
        s.mcacheHits = engine_->metaCache().stats().get("hits");
        s.mcacheMisses = engine_->metaCache().stats().get("misses");
        s.subtreeHits = engine_->stats().get("subtree_hits");
        s.subtreeMisses = engine_->stats().get("subtree_misses");
        s.movements = engine_->stats().get("subtree_movements");
        return s;
    }

    void
    advance(std::uint64_t n, std::uint64_t &daemon_clock)
    {
        constexpr std::uint64_t kQuantum = 64;
        std::uint64_t done = 0;
        while (done < n) {
            const std::uint64_t q = std::min(kQuantum, n - done);
            for (Core &c : cores_) {
                for (std::uint64_t i = 0; i < q; ++i)
                    step(c);
            }
            done += q;
            daemon_clock += q;
            if (amntpp_ != nullptr && daemon_clock >= config_.daemonEvery) {
                daemon_clock = 0;
                timed(Boundary::OsRestructure,
                      [&] { amntpp_->restructure(); });
                chargeOs(cores_[0]);
            }
        }
    }

    sim::SystemConfig config_;
    Tracer *tracer_;
    std::unique_ptr<mem::NvmDevice> nvm_;
    std::unique_ptr<mee::MemoryEngine> engine_;
    std::unique_ptr<os::BuddyAllocator> allocator_;
    os::AmntPpAllocator *amntpp_ = nullptr;
    std::unique_ptr<cache::Cache> llc_;
    std::vector<Core> cores_;
    std::uint64_t lastOs_ = 0;
    std::uint64_t osInstructions_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_DRIVER_HH
