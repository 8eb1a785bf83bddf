/**
 * @file
 * Secure-memory engine (memory encryption engine, MEE) framework.
 *
 * The engine sits at the memory-controller boundary: every read() is
 * an LLC miss arriving from the cache hierarchy and every write() is a
 * dirty write-back (a "data write" in the paper's terminology). The
 * engine maintains:
 *
 *  - counter-mode encryption state (split counters, one block/page),
 *  - per-block data HMACs,
 *  - the Bonsai Merkle Tree over counter blocks,
 *  - a 64 kB on-chip metadata cache shared by all metadata regions,
 *  - the on-chip root register (non-volatile for persistent schemes).
 *
 * Architectural (latest) metadata values live in bmt::TreeState; the
 * NVM device holds the persisted values. The delta between the two is
 * exactly what a crash loses, so each metadata-persistence protocol is
 * expressed as "which updates are written through, and what extra
 * work the slow paths cost". The protocols themselves are plug-in
 * ProtocolStrategy objects (mee/protocol.hh): volatile write-back,
 * strict, leaf, Osiris, Anubis, BMF, Phoenix, STIT, and AMNT (in
 * src/core). The engine owns one strategy and forwards the
 * protocol-specific hooks to it.
 */

#ifndef AMNT_MEE_ENGINE_HH
#define AMNT_MEE_ENGINE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bmt/tree.hh"
#include "cache/cache.hh"
#include "common/flat_map.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "crypto/engines.hh"
#include "mem/memory_map.hh"
#include "mem/nvm_device.hh"
#include "obs/trace.hh"

namespace amnt::obs
{
class StatRegistry;
}

namespace amnt::mee
{

/** The metadata-persistence protocols evaluated in the paper. */
enum class Protocol
{
    Volatile, ///< write-back baseline, no crash consistency
    Strict,   ///< write-through of the whole ancestral path
    Leaf,     ///< counters + HMACs persisted, tree lazy
    Osiris,   ///< leaf with stop-loss counter persistence
    Anubis,   ///< shadow-table tracking of cached metadata
    Bmf,      ///< Bonsai Merkle Forest persistent root set
    Amnt,     ///< this paper: tree-within-a-tree hybrid
    Phoenix,  ///< epoch-flushed tree of counters [arXiv:1911.01922]
    Stit,     ///< coalesced/pipelined BMT updates [arXiv:2003.04693]
};

/**
 * Number of Protocol enum members. The protocol registry
 * (core/protocol_registry.hh) is tested against this, so adding an
 * enum member without a registry entry is a test failure.
 */
inline constexpr unsigned kProtocolCount = 9;

/** Human-readable protocol name (matches the paper's figure labels). */
const char *protocolName(Protocol p);

/** Engine configuration (defaults = paper Table 1 at 2 GHz). */
struct MeeConfig
{
    std::uint64_t dataBytes = 1ull << 33; ///< 8 GB protected data

    cache::CacheConfig metaCache{"mcache", 64 * 1024, 8, 2};

    Cycle nvmReadCycles = 610;  ///< 305 ns
    Cycle nvmWriteCycles = 782; ///< 391 ns
    Cycle hashCycles = 40;      ///< pipelined MAC unit
    Cycle aesCycles = 40;       ///< pad generation when not overlapped

    /**
     * Fraction of a single posted persist hidden under subsequent
     * execution; serialized chains hide only this much of their first
     * write. See DESIGN.md ("persist cost model").
     */
    double persistOverlap = 0.5;

    crypto::CryptoPlane plane = crypto::CryptoPlane::Fast;
    bool trackContents = false; ///< keep real data bytes (functional)
    std::uint64_t keySeed = 1;

    /**
     * Multi-tenant data-key domains. When non-empty, the protected
     * data range is split into equal slices, one per entry, and slice
     * i's data encryption pads and per-block data MACs are derived
     * from tenantKeySeeds[i] instead of keySeed — so one tenant's key
     * never decrypts or authenticates another tenant's lines. The
     * shared metadata machinery (counters, integrity tree, persisted
     * metadata MACs) stays under the platform keySeed: the tree is a
     * platform structure, confidentiality and data authentication are
     * per-tenant. dataBytes must divide evenly into page-aligned
     * slices. Empty (the default) is the single-domain engine,
     * bit-identical to pre-tenant behaviour.
     */
    std::vector<std::uint64_t> tenantKeySeeds;

    // Protocol-specific knobs.
    unsigned osirisStopLoss = 4;    ///< persist counters every N updates
    unsigned amntSubtreeLevel = 3;  ///< paper default (64 regions)
    unsigned amntInterval = 64;     ///< writes per history interval
    unsigned amntHistoryEntries = 64;
    unsigned bmfRootCacheEntries = 64; ///< 4 kB NV cache
    unsigned bmfInterval = 1024;       ///< writes between prune/merge
    unsigned phoenixEpoch = 64;  ///< writes per dirty-tree flush epoch
    unsigned stitQueueDepth = 16; ///< pending-update pipeline bound
    unsigned stitDrain = 2;       ///< pending persists drained per write
};

/** Outcome of crash recovery. */
struct RecoveryReport
{
    bool success = false;
    std::uint64_t blocksRead = 0;    ///< NVM blocks the procedure reads
    std::uint64_t blocksWritten = 0; ///< NVM blocks it writes back
    std::uint64_t countersRecovered = 0;
    std::uint64_t nodesRecomputed = 0;
    double estimatedMs = 0.0; ///< bandwidth-model time (Table 4)
    std::string detail;
};

class ProtocolStrategy;

/** Context handed to the protocol's persistence hooks. */
struct WriteContext
{
    Addr dataAddr = 0;
    std::uint64_t counterIdx = 0;
    bool overflowed = false; ///< page re-encryption happened
};

/**
 * The secure-memory engine: full read path, write-path skeleton, and
 * the metadata cache/NVM plumbing shared by every protocol. The
 * protocol-specific decisions are delegated to the owned
 * ProtocolStrategy (mee/protocol.hh).
 *
 * An engine built on a device nobody has written attaches as the
 * device's deferring writer and records no persisted MACs until the
 * device reports a change it did not make (DESIGN.md §8). The device
 * must outlive the engine.
 */
class MemoryEngine : private mem::DeferringWriter
{
  public:
    /**
     * @param config   Engine configuration.
     * @param nvm      Backing device; must cover
     *                 MemoryMap(config.dataBytes).deviceBytes().
     * @param strategy The persistence protocol; attached here.
     */
    MemoryEngine(const MeeConfig &config, mem::NvmDevice &nvm,
                 std::unique_ptr<ProtocolStrategy> strategy);
    ~MemoryEngine();

    MemoryEngine(const MemoryEngine &) = delete;
    MemoryEngine &operator=(const MemoryEngine &) = delete;

    /** Which protocol this engine implements. */
    Protocol protocol() const;

    /** The protocol strategy (tests downcast to concrete types). */
    ProtocolStrategy &strategy() { return *strategy_; }
    const ProtocolStrategy &strategy() const { return *strategy_; }

    /**
     * Service an LLC read miss for the block at @p addr.
     * @param out Optional plaintext destination (functional plane).
     * @return critical-path latency in cycles.
     */
    Cycle read(Addr addr, std::uint8_t *out = nullptr);

    /**
     * Service a data write arriving at memory for block @p addr.
     * @param data Optional plaintext (functional plane).
     * @return critical-path latency in cycles.
     */
    Cycle write(Addr addr, const std::uint8_t *data = nullptr);

    /**
     * Power failure: all volatile on-chip state (metadata cache,
     * architectural metadata, volatile registers) is lost. NVM and
     * non-volatile registers survive. The engine must not be used
     * again until recover() succeeds.
     */
    void crash();

    /** Rebuild a trusted state from NVM + NV registers. */
    RecoveryReport recover();

    /** Number of integrity violations detected so far. */
    std::uint64_t violations() const { return violations_; }

    /** Aggregate statistics. */
    const StatGroup &stats() const { return stats_; }

    /** Mutable statistics (registry federation / reset-in-place). */
    StatGroup &stats() { return stats_; }

    /** Event tracer for this engine's track (obs/trace.hh). */
    obs::Tracer &tracer() { return trace_; }

    /**
     * Dotted registry subpath of this engine: the protocol name by
     * default; AMNT refines it with the subtree level ("amnt.l3") so
     * sweep dumps separate configurations (DESIGN.md §11).
     */
    std::string statPath() const;

    /**
     * Federate this engine's stats under `<prefix>.<statPath()>.*`
     * plus the metadata cache under `<prefix>.mcache.*` and the
     * observability histograms (persist-chain depth, metadata-cache
     * dirty occupancy, host-side crypto batch times under `host.`).
     */
    void registerStats(obs::StatRegistry &reg,
                       const std::string &prefix);

    /** Metadata cache (for hit-rate reporting). */
    const cache::Cache &metaCache() const { return mcache_; }

    /** Address map. */
    const mem::MemoryMap &map() const { return map_; }

    /** Architectural metadata state (tests and recovery checks). */
    const bmt::TreeState &treeState() const { return *tree_; }

    /** Configuration. */
    const MeeConfig &config() const { return config_; }

    /**
     * On-chip root register value (testing). Architecturally the
     * register refreshes on every write; the simulator computes the
     * equivalent value lazily — live from the tree while running,
     * from the crash-time snapshot afterwards.
     */
    std::uint64_t
    rootRegister() const
    {
        return crashed_ ? rootRegister_ : tree_->rootHash();
    }

    /**
     * Crash-staleness audit: metadata blocks whose persisted (NVM)
     * bytes differ from the architectural latest value. At a crash
     * these are exactly the blocks that would be lost; tests use this
     * to prove e.g. that AMNT's stale set is confined to the fast
     * subtree.
     */
    std::vector<Addr> staleMetadataBlocks() const;

    /**
     * Test-only reference check of the deferred MACs and the fetch
     * fast path. While on, the engine keeps an eager shadow of the
     * persisted-MAC table as long as it defers; every metadata fetch
     * that skips the NVM copy and MAC (see fetchMetadata) also peeks
     * the device bytes and checks them against the shadow, and the
     * table built when the deferral ends must equal it. A mismatch
     * panics. Traffic and statistics are unchanged. Off by default.
     */
    void setFetchCrossCheck(bool on);

    /** Whether persist MACs are still deferred (see class comment). */
    bool persistMacsDeferred() const { return macsDeferred_; }

    /** Persisted-MAC table (tests); empty while MACs are deferred. */
    const FlatMap<Addr, std::uint64_t> &
    persistedMacs() const
    {
        return persistedMac_;
    }

  protected:
    /**
     * Ensure @p maddr is resident in the metadata cache, fetching
     * (and verifying against the trust chain) on a miss.
     * @param misses Incremented when a fetch was needed; the caller
     *        charges one parallel NVM read round when misses > 0.
     * @return extra critical-path latency added by protocol hooks
     *         (e.g. Anubis shadow-table persists on inserts).
     */
    Cycle ensureResident(Addr maddr, unsigned &misses);

    /**
     * Fetch-and-verify the counter trust chain for @p counterIdx:
     * counter block plus ancestor nodes up to the first cached one.
     * @param misses Incremented per fetched block in this round.
     * @return extra critical-path latency from protocol hooks.
     */
    Cycle ensureCounterChain(std::uint64_t counterIdx, unsigned &misses);

    /** Mark a resident metadata block dirty (lazy write-back). */
    void markDirty(Addr maddr);

    /** Persist the latest bytes of @p maddr and clean its line. */
    void writeThrough(Addr maddr);

    /**
     * Batch writeThrough of @p n metadata addresses: identical final
     * state and statistics, but all persisted-block MACs go through
     * one HashEngine::mac64xN burst. Persist policies hand their full
     * ordered write set (counter + HMAC + path nodes) here.
     */
    void writeThroughMany(const Addr *addrs, std::size_t n);

    /**
     * Write metadata bytes to NVM and record their persisted MAC,
     * unless the MACs are deferred.
     */
    void persistBytes(Addr maddr, const mem::Block &bytes);

    /**
     * Batch persistBytes: addrs[i] receives *blocks[i]. The persisted
     * MACs, when recorded, are computed with one batched burst per
     * chunk; used by write-through chains and the bulk restore paths
     * (recovery rebuild, Anubis shadow restore).
     */
    void persistBytesMany(const Addr *addrs,
                          const mem::Block *const *blocks,
                          std::size_t n);

    /** Latest architectural bytes of a metadata block. */
    mem::Block latestBytes(Addr maddr) const;

    /** Critical-path cost of @p serialized_writes ordered persists. */
    Cycle
    persistCost(unsigned serialized_writes) const
    {
        if (serialized_writes == 0)
            return 0;
        const double w = static_cast<double>(serialized_writes) -
                         config_.persistOverlap;
        return static_cast<Cycle>(
            w * static_cast<double>(config_.nvmWriteCycles));
    }

    /** Tree-path node refs for a counter, deepest first. */
    std::vector<bmt::NodeRef> pathOf(std::uint64_t counterIdx) const;

    /**
     * pathOf into a reusable buffer (cleared first). Persist policies
     * run once per simulated write; passing pathScratch_ here avoids
     * a heap allocation on that hot path.
     */
    void pathOf(std::uint64_t counterIdx,
                std::vector<bmt::NodeRef> &out) const;

    /** Record an integrity violation. */
    void flagViolation(const char *what, Addr addr);

    /** Attached fault domain (nullptr when un-instrumented). */
    fault::FaultDomain *
    faultDomain() const
    {
        return nvm_->faultDomain();
    }

    /**
     * Report a non-device persist op (NV on-chip register or cache
     * update) as a crash-point boundary. No-op when un-instrumented
     * or inside a commit group.
     */
    void
    faultPersistPoint()
    {
        if (fault::FaultDomain *d = nvm_->faultDomain())
            d->persistPoint();
    }

    /** Update the on-chip root register from architectural state. */
    void
    refreshRootRegister()
    {
        rootRegister_ = tree_->rootHash();
    }

    /**
     * Rebuild architectural state from persisted counters and compare
     * with the NV root register; shared by leaf-style recoveries.
     * Traffic for reading @p counters_read counter blocks and writing
     * the recomputed nodes is added to @p report.
     */
    void rebuildAndVerify(RecoveryReport &report);

    /** Convert recovery traffic to milliseconds (Table 4 model). */
    double recoveryMs(std::uint64_t blocks_read,
                      std::uint64_t blocks_written) const;

    /**
     * Crypto suite for data blocks at @p data_addr: the tenant
     * domain's suite under multi-tenant keying, the platform suite
     * otherwise. Metadata always uses crypto_.
     */
    const crypto::CryptoSuite &dataSuite(Addr data_addr) const;

    MeeConfig config_;
    mem::MemoryMap map_;
    mem::NvmDevice *nvm_;
    crypto::CryptoSuite crypto_;

    /** Per-tenant data-key suites (MeeConfig::tenantKeySeeds). */
    std::vector<crypto::CryptoSuite> tenantCrypto_;

    /** Bytes per tenant slice; 0 when single-domain. */
    std::uint64_t tenantSliceBytes_ = 0;
    std::unique_ptr<bmt::TreeState> tree_;
    cache::Cache mcache_;
    StatGroup stats_;

    /** Per-engine event tracer (no-op unless AMNT_TRACE is set). */
    obs::Tracer trace_;

    /**
     * Serialized persists per write-through chain (how deep the
     * ordered persist chains the protocol issues are).
     */
    Histogram persistChainDepth_{1.0, 4097.0, 48,
                                 Histogram::Scale::Log};

    /**
     * Metadata-cache dirty-line occupancy sampled at every data write
     * (the engine's write-queue residency). Sized from the cache
     * geometry in the constructor.
     */
    Histogram mcacheDirtyOccupancy_;

    /**
     * Host-side wall-clock nanoseconds per batched MAC burst. Only
     * recorded under AMNT_OBS_TIMING=1 (host times are inherently
     * nondeterministic); registered under the `host.` path prefix.
     */
    Histogram hostCryptoBatchNs_{1.0, 1e9, 90, Histogram::Scale::Log};

    /** Latest HMAC-block bytes (architectural). */
    FlatMap<Addr, mem::Block> hmacLatest_;

    /**
     * MAC of the bytes last persisted per metadata block; fetched
     * blocks are verified against this (any physical tampering of
     * NVM contents diverges from it). Lives conceptually in the
     * integrity machinery, not in NVM, and survives crashes because
     * it describes persistent state. Empty while the MACs are
     * deferred: it is built from the device the moment the deferral
     * ends (beforeForeignChange).
     */
    FlatMap<Addr, std::uint64_t> persistedMac_;

    /** Plaintext contents when trackContents (functional plane). */
    FlatMap<BlockId, mem::Block> plaintext_;

    /** Reusable path buffer for persist policies (see pathOf). */
    std::vector<bmt::NodeRef> pathScratch_;

    /** On-chip root register (NV except for Volatile). */
    std::uint64_t rootRegister_ = 0;

    /** Set between crash() and a successful recover(). */
    bool crashed_ = false;

    std::uint64_t violations_ = 0;

  private:
    /** The plug-in persistence protocol (mee/protocol.hh). */
    std::unique_ptr<ProtocolStrategy> strategy_;

    friend class ProtocolStrategy;

    // Per-access statistics resolved once (see StatGroup::counter).
    std::uint64_t *dataReads_;
    std::uint64_t *dataWrites_;
    std::uint64_t *metaFetches_;
    std::uint64_t *metaWritebacks_;
    std::uint64_t *persistWrites_;

    /** See setFetchCrossCheck. */
    bool fetchCrossCheck_ = false;

    /**
     * True while this engine is its device's deferring writer: every
     * byte on the device is its own, so fetches skip their check and
     * persists record no MAC.
     */
    bool macsDeferred_ = false;

    /** Eager persisted-MAC table kept by the cross-check while deferred. */
    FlatMap<Addr, std::uint64_t> shadowMac_;

    /**
     * End the deferral: build persistedMac_ from the device, which
     * still holds only this engine's writes, and record eagerly from
     * then on.
     */
    void beforeForeignChange() override;

    /**
     * Fill @p table with the MAC of every non-zero metadata block on
     * the device, exactly what eager persists would have recorded.
     */
    void macDeviceMetadata(FlatMap<Addr, std::uint64_t> &table);

    /**
     * The table persists record into: persistedMac_ when eager, the
     * cross-check's shadow while deferred, nullptr when nothing is
     * recorded.
     */
    FlatMap<Addr, std::uint64_t> *
    macTable()
    {
        if (!macsDeferred_)
            return &persistedMac_;
        return fetchCrossCheck_ ? &shadowMac_ : nullptr;
    }

    /** Handle a (possibly dirty) eviction returned by the cache. */
    void handleEviction(const cache::AccessResult &res);

    /** Whether @p bytes MAC to what @p table holds for @p maddr. */
    bool matchesPersisted(const FlatMap<Addr, std::uint64_t> &table,
                          Addr maddr, const mem::Block &bytes) const;

    /**
     * Read a missed metadata block from NVM and verify it. While the
     * MACs are deferred, the bytes are known to match and only the
     * read is counted (DESIGN.md §8).
     */
    void fetchMetadata(Addr maddr);

    /** Write @p bytes to NVM as this engine (not a foreign change). */
    void writeNvm(Addr addr, const mem::Block &bytes);

    /** Write path: counter increment + overflow + HMAC update. */
    Cycle writeCommon(Addr addr, const std::uint8_t *data,
                      WriteContext &ctx);

    /** Re-encrypt an entire page after a minor-counter overflow. */
    Cycle reencryptPage(std::uint64_t counterIdx);

    /**
     * MAC request for data block @p block under counter (@p major,
     * @p minor) — the one place the data-MAC tweak is spelled. A
     * timing-plane block (@p cipher nullptr) MACs the empty message.
     */
    static crypto::MacRequest dataMacRequest(Addr block,
                                             std::uint64_t major,
                                             unsigned minor,
                                             const std::uint8_t *cipher);

    /** Compute the HMAC entry for data block @p addr. */
    std::uint64_t dataMac(Addr addr, const std::uint8_t *cipher) const;

    /** Update the HMAC entry (architectural) for @p addr. */
    void updateHmacEntry(Addr addr);
};

} // namespace amnt::mee

#endif // AMNT_MEE_ENGINE_HH
