/**
 * @file
 * A Midsummer Night's Tree (AMNT): the paper's contribution.
 *
 * AMNT is a dynamic hybrid metadata-persistence protocol — a "tree
 * within a tree". One subtree of the BMT, rooted at a BIOS-configured
 * level (default 3 → 64 candidate regions, 1/64 of memory each),
 * follows leaf persistence: writes inside it persist only the counter
 * and HMAC, leaving tree nodes lazy in the metadata cache. Everything
 * outside the subtree follows strict persistence, so at a crash the
 * only stale metadata in NVM lies inside the subtree, bounding
 * recovery work by the subtree's coverage instead of memory size.
 *
 * A 96-byte history buffer tracks write frequency per subtree region;
 * every interval (64 writes) the hottest region becomes the subtree.
 * Moving the subtree flushes the dirty in-subtree metadata found by
 * scanning the metadata cache's dirty bits and persists the path from
 * the old subtree root to the global root, after which the new region
 * may run lazily.
 *
 * On-chip cost (paper Table 3): one 64 B non-volatile register for
 * the subtree root (plus the 64 B NV global root register every
 * scheme needs) and 96 B of volatile history buffer — independent of
 * memory size and metadata cache size.
 */

#ifndef AMNT_CORE_AMNT_HH
#define AMNT_CORE_AMNT_HH

#include <memory>
#include <string>

#include "core/history_buffer.hh"
#include "mee/protocol.hh"
#include "mee/secure_memory.hh"

namespace amnt::core
{

/** The AMNT metadata-persistence protocol. */
class AmntStrategy : public mee::ProtocolStrategy
{
  public:
    explicit AmntStrategy(const mee::MeeConfig &config)
        : history_(config.amntHistoryEntries, 0)
    {
    }

    mee::Protocol id() const override { return mee::Protocol::Amnt; }

    mee::CrashProfile
    crashProfile() const override
    {
        return {true, true,
                "in-subtree: counter+hmac commit-atomic, nodes lazy; "
                "outside: strict write-through; movement retarget "
                "NV-register atomic"};
    }

    mee::RecoveryReport recover() override;

    /** Registry subpath carries the subtree level: "amnt.l3". */
    std::string
    statPath() const override
    {
        return "amnt.l" + std::to_string(config().amntSubtreeLevel);
    }

    Cycle persist(const mee::WriteContext &ctx) override;

    /**
     * Outside-subtree ancestral-path persists (recomputable nodes)
     * and the interval's movement check; neither is atomic with the
     * data write's commit.
     */
    Cycle postCommit(const mee::WriteContext &ctx) override;

    /**
     * Freshness propagation from dirty evictions: parents inside the
     * fast subtree stay lazy; parents outside it (including the
     * ancestors of the subtree root) are written through so that the
     * stale set at any crash is confined to the subtree interior.
     */
    void propagateParent(Addr parent_addr) override;

    void onCrash() override;

    /** Region index currently protected by the fast subtree. */
    std::uint64_t currentRegion() const { return region_; }

    /** Subtree root node of the current region. */
    bmt::NodeRef
    subtreeRoot() const
    {
        return {config().amntSubtreeLevel, region_};
    }

    /** Fraction of data writes that hit the fast subtree (Fig. 7). */
    double
    subtreeHitRate() const
    {
        return stats().ratio("subtree_hits", "subtree_misses");
    }

    /** Subtree movements performed (paper: ~0.3% of accesses). */
    std::uint64_t
    movements() const
    {
        return stats().get("subtree_movements");
    }

    /** True iff counter @p counter_idx lies in the fast subtree. */
    bool
    inFastSubtree(std::uint64_t counter_idx) const
    {
        return map().geometry().regionOf(
                   counter_idx, config().amntSubtreeLevel) == region_;
    }

    /** History buffer (testing). */
    const HistoryBuffer &history() const { return history_; }

    /** Current value of the NV subtree-root register (testing). */
    const mem::Block &
    subtreeRegister() const
    {
        return registerLatched_ ? latchedRegister_
                                : tree().node(subtreeRoot());
    }

  protected:
    void onAttach() override;

  private:
    /** Leaf-persistence fast path for in-subtree writes. */
    Cycle persistInside(const mee::WriteContext &ctx);

    /** Strict write-through path for out-of-subtree writes. */
    Cycle persistOutside(const mee::WriteContext &ctx);

    /** Interval boundary: possibly move the subtree to the head. */
    void considerMovement();

    /** Flush old-subtree dirty metadata and the root path; retarget. */
    void moveSubtreeTo(std::uint64_t new_region);

    /**
     * Point the NV subtree-root register back at the live subtree
     * root node: every write that changes that node refreshes the
     * register, so while live it reads the node instead of copying
     * it (which would settle the node's lazy hashes on every write).
     */
    void refreshSubtreeRegister() { registerLatched_ = false; }

    HistoryBuffer history_;

    /// Per-write statistics resolved once (see StatGroup::counter).
    std::uint64_t *subtreeHits_ = nullptr;
    std::uint64_t *subtreeMisses_ = nullptr;

    std::uint64_t region_ = 0;
    std::uint64_t writesThisInterval_ = 0;

    /** Cleared until the first data write adopts its region. */
    bool bootstrapped_ = false;

    /**
     * NV on-chip register holding the subtree root node's bytes. It
     * reads the live node until a crash latches a value here; it
     * starts latched at zero, before bootstrap.
     */
    mem::Block latchedRegister_{};
    bool registerLatched_ = true;
};

/**
 * Engine factory covering every registered protocol; the single entry
 * point the simulator and benches use. Defined with the protocol
 * registry (core/protocol_registry.cc).
 */
std::unique_ptr<mee::MemoryEngine>
makeEngine(mee::Protocol p, const mee::MeeConfig &config,
           mem::NvmDevice &nvm);

/**
 * The flat secure memory: one protocol engine over its own NVM
 * device, sized from the engine's MemoryMap. What System runs, and
 * the building block of both HybridEngine sides.
 */
class FlatMemory final : public mee::SecureMemory
{
  public:
    FlatMemory(mee::Protocol p, const mee::MeeConfig &config,
               const mem::NvmTiming &timing = mem::NvmTiming());

    Cycle
    read(Addr addr, std::uint8_t *out = nullptr) override
    {
        return engine_->read(addr, out);
    }
    Cycle
    write(Addr addr, const std::uint8_t *data = nullptr) override
    {
        return engine_->write(addr, data);
    }
    void crash() override { engine_->crash(); }
    mee::RecoveryReport recover() override { return engine_->recover(); }
    std::uint64_t
    violations() const override
    {
        return engine_->violations();
    }
    void
    setFaultDomain(fault::FaultDomain *domain) override
    {
        nvm_.setFaultDomain(domain);
    }
    void registerStats(obs::StatRegistry &reg) override
    {
        registerStats(reg, "");
    }
    mee::MemoryEngine &engine() override { return *engine_; }
    mem::NvmDevice &device() override { return nvm_; }

    /** Federate under "mee<suffix>.*" and "nvm<suffix>.*". */
    void registerStats(obs::StatRegistry &reg, const std::string &suffix);

  private:
    mem::NvmDevice nvm_;
    std::unique_ptr<mee::MemoryEngine> engine_;
};

} // namespace amnt::core

#endif // AMNT_CORE_AMNT_HH
