/**
 * @file
 * Metadata-persistence protocols as plug-in strategy objects.
 *
 * A ProtocolStrategy is everything that differs between the paper's
 * persistence schemes: the persist hook that runs inside each data
 * write's commit group, the deferred post-commit work, the metadata
 * cache hooks (insert/update/evict/parent propagation), the crash
 * hook, and the recovery planner. The shared machinery — read path,
 * write-path skeleton, metadata cache, integrity verification, NVM
 * plumbing — lives once in MemoryEngine, which owns one strategy and
 * forwards the protocol-specific decisions to it.
 *
 * Each strategy also declares its crash-boundary profile: whether the
 * scheme is persistent at all (enrolls it in the crash matrix, the
 * post-crash tamper sweep, and the crash-survivor differential) and
 * whether its recovery detects at-rest counter tampering (enrolls it
 * in the TamperAtRest suite). The protocol registry
 * (core/protocol_registry.hh) derives every test/bench/CLI protocol
 * list from these declarations, so a new protocol is auto-enrolled in
 * the full test matrix by registering — no per-protocol test code.
 */

#ifndef AMNT_MEE_PROTOCOL_HH
#define AMNT_MEE_PROTOCOL_HH

#include "mee/engine.hh"

namespace amnt::mee
{

/**
 * Crash-boundary declaration: what the scheme promises about the
 * state NVM + NV registers are in at an arbitrary power failure.
 * Drives automatic enrollment into the verification matrix.
 */
struct CrashProfile
{
    /**
     * The scheme recovers a trusted state after power loss. False
     * only for the volatile write-back baseline, which is excluded
     * from the crash matrix and post-crash sweeps.
     */
    bool persistent = true;

    /**
     * recover() fails when persisted counters were tampered with
     * while powered off (root-register comparison schemes). Schemes
     * whose recovery reconstructs or overwrites counters from other
     * NV state (Osiris trial-MAC, Anubis shadow restore, BMF root
     * set) make no such promise and skip the TamperAtRest suite.
     */
    bool tamperAtRestDetects = true;

    /**
     * Human-readable declaration of the commit-atomic persist set vs
     * the deferred (crashable) boundaries, for docs and --help text.
     */
    const char *boundaries = "";
};

/**
 * One metadata-persistence protocol behind the plug-in API.
 *
 * Strategies are default-constructed (optionally with knobs from the
 * MeeConfig), then attached to exactly one engine; attach() runs the
 * protocol's validation and resolves its statistics counters. All
 * hooks run with the engine attached. The protected forwarders expose
 * the engine machinery the former subclass implementations used, so a
 * protocol body reads the same as it did as a MemoryEngine subclass.
 */
class ProtocolStrategy
{
  public:
    virtual ~ProtocolStrategy() = default;

    /** Which protocol this strategy implements. */
    virtual Protocol id() const = 0;

    /** Crash-boundary declaration (see CrashProfile). */
    virtual CrashProfile crashProfile() const = 0;

    /** Registry subpath; AMNT refines it with the subtree level. */
    virtual std::string statPath() const { return protocolName(id()); }

    /**
     * Persist hook: called once per data write after the
     * architectural update, inside the write's commit group — its
     * persists are atomic with the update. Returns added latency.
     */
    virtual Cycle persist(const WriteContext &ctx) = 0;

    /**
     * Deferred per-write work outside the commit group (stop-loss
     * persists, subtree movement, pipeline drains): each persist here
     * is its own crash boundary. Returns added latency.
     */
    virtual Cycle postCommit(const WriteContext &) { return 0; }

    /** Hook: a metadata block was inserted into the cache. */
    virtual Cycle onMetaInsert(Addr) { return 0; }

    /** Hook: a cached metadata block's value changed. */
    virtual void onMetaUpdate(Addr) {}

    /** Hook: a metadata block left the cache (eviction scope). */
    virtual void onMetaEvict(Addr, bool) {}

    /**
     * Hook: a dirty tree node was written back and its parent must
     * track the new hash. Default keeps the parent lazy.
     */
    virtual void propagateParent(Addr parent_addr);

    /** Hook: power failure, after the NV root register latched but
     *  before volatile on-chip state is wiped. */
    virtual void onCrash() {}

    /** Recovery planner: rebuild a trusted state from NVM + NV
     *  registers and report the traffic/time model. */
    virtual RecoveryReport recover() = 0;

    /**
     * Bind to @p engine (exactly once, from the engine constructor)
     * and run the protocol's validation/setup against it.
     */
    void attach(MemoryEngine &engine);

  protected:
    /** Validation and stat-counter resolution; engine() is bound. */
    virtual void onAttach() {}

    // ------------------------------------------------ engine access
    MemoryEngine &engine() { return *eng_; }
    const MemoryEngine &engine() const { return *eng_; }

    const MeeConfig &config() const { return eng_->config_; }
    const mem::MemoryMap &map() const { return eng_->map_; }
    bmt::TreeState &tree() { return *eng_->tree_; }
    const bmt::TreeState &tree() const { return *eng_->tree_; }
    cache::Cache &mcache() { return eng_->mcache_; }
    const cache::Cache &mcache() const { return eng_->mcache_; }
    mem::NvmDevice &nvm() { return *eng_->nvm_; }
    StatGroup &stats() { return eng_->stats_; }
    const StatGroup &stats() const { return eng_->stats_; }
    obs::Tracer &trace() { return eng_->trace_; }
    crypto::CryptoSuite &crypto() { return eng_->crypto_; }
    /** Suite the engine MACs/encrypts @p data_addr with — the tenant
     *  suite under MeeConfig::tenantKeySeeds, crypto() otherwise.
     *  Recovery procedures that trial-MAC persisted data must use
     *  this, or tenant-keyed blocks would never verify. */
    const crypto::CryptoSuite &
    dataSuite(Addr data_addr) const
    {
        return eng_->dataSuite(data_addr);
    }
    static crypto::MacRequest
    dataMacRequest(Addr block, std::uint64_t major, unsigned minor,
                   const std::uint8_t *cipher)
    {
        return MemoryEngine::dataMacRequest(block, major, minor, cipher);
    }
    std::vector<bmt::NodeRef> &pathScratch()
    {
        return eng_->pathScratch_;
    }

    // --------------------------------------------- shared machinery
    Cycle
    ensureResident(Addr maddr, unsigned &misses)
    {
        return eng_->ensureResident(maddr, misses);
    }
    void markDirty(Addr maddr) { eng_->markDirty(maddr); }
    void writeThrough(Addr maddr) { eng_->writeThrough(maddr); }
    void
    writeThroughMany(const Addr *addrs, std::size_t n)
    {
        eng_->writeThroughMany(addrs, n);
    }
    void
    persistBytes(Addr maddr, const mem::Block &bytes)
    {
        eng_->persistBytes(maddr, bytes);
    }
    void
    persistBytesMany(const Addr *addrs,
                     const mem::Block *const *blocks, std::size_t n)
    {
        eng_->persistBytesMany(addrs, blocks, n);
    }
    mem::Block
    latestBytes(Addr maddr) const
    {
        return eng_->latestBytes(maddr);
    }
    Cycle
    persistCost(unsigned serialized_writes) const
    {
        return eng_->persistCost(serialized_writes);
    }
    void
    pathOf(std::uint64_t counter_idx,
           std::vector<bmt::NodeRef> &out) const
    {
        eng_->pathOf(counter_idx, out);
    }
    void faultPersistPoint() { eng_->faultPersistPoint(); }
    fault::FaultDomain *
    faultDomain() const
    {
        return eng_->faultDomain();
    }
    void
    rebuildAndVerify(RecoveryReport &report)
    {
        eng_->rebuildAndVerify(report);
    }
    double
    recoveryMs(std::uint64_t blocks_read,
               std::uint64_t blocks_written) const
    {
        return eng_->recoveryMs(blocks_read, blocks_written);
    }
    void refreshRootRegister() { eng_->refreshRootRegister(); }

    /** Volatile only: the root register does not survive power-off. */
    void clearRootRegister() { eng_->rootRegister_ = 0; }

  private:
    MemoryEngine *eng_ = nullptr;
};

/**
 * Strategy factory for the mee-layer protocols (everything except
 * AMNT, which lives in the core layer — see the protocol registry).
 */
std::unique_ptr<ProtocolStrategy>
makeStrategy(Protocol p, const MeeConfig &config);

} // namespace amnt::mee

#endif // AMNT_MEE_PROTOCOL_HH
