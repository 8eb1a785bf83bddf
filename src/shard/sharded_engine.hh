/**
 * @file
 * Sharded multi-engine scale-out with epoch-batched persist ordering.
 *
 * One protocol engine owns the whole physical address space in the
 * base simulator, so the batched crypto kernels (mac64xN / padxN)
 * only ever see single-engine bursts and host throughput is capped
 * well below the machine's core count (ROADMAP item 2). The sharded
 * engine removes that cap in two decoupled steps:
 *
 *  1. A FIXED logical partition (shard/partition.hh): the protected
 *     data range is always split into `slices` equal slices, each a
 *     full mee::MemoryEngine with its own metadata cache, counter
 *     table, BMT subtree and NvmDevice. The slice count is a model
 *     parameter (ShardOptions::slices, default 4) — it defines the
 *     simulated machine.
 *
 *  2. Host drain lanes (`--shards=N` / AMNT_SHARDS): how many host
 *     threads drain slice queues in parallel. Lanes are pure
 *     execution policy — each slice's operation sequence is the
 *     global arrival order restricted to that slice, independent of
 *     lane count, so results are byte-identical at any shard count.
 *
 * Epoch-batched persist ordering: operations enqueue into per-slice
 * queues and drain in numbered epochs (closed every `epochWrites`
 * buffered writes, or at flush()). Within one drain batch the slice
 * COALESCES (STIT-style): commits are all-or-nothing at epoch
 * granularity and reads drain the queue before returning data, so a
 * block's intermediate writes are invisible to both readers and
 * crash recovery — only the last write per block reaches the engine,
 * and repeat accesses to a block already touched in the batch are
 * absorbed (simulated cost 0: they coalesce into the block's one
 * engine operation). Coalescing is a function of the batch's op
 * sequence alone, so it is identical at any lane count — it is what
 * makes the epoch model cheaper to simulate AND cheaper on modeled
 * hardware than per-op persist ordering. After all slices drained,
 * the
 * coordinator MACs the per-slice root registers through one
 * mac64xN burst and persists a small cross-shard epoch commit record
 * LAST — Anubis/BMF-style shadow tracking lifted to epoch level.
 * Each slice device also keeps a pre-image journal of the open
 * epoch's content writes. A crash that tears an epoch (some slices
 * drained, commit record absent) is recovered by rolling every slice
 * back to the last fully-committed epoch: journal rollback restores
 * durable pre-images, then the engine's persisted-MAC table,
 * functional plaintext mirror, NV root register and protocol shadow
 * (ProtocolStrategy::cloneShadow) are restored from the commit
 * record before the normal per-engine recovery runs. The recovered
 * state is exactly "crashed right after the last commit", a boundary
 * the per-engine crash matrix already validates. See DESIGN.md §15.
 */

#ifndef AMNT_SHARD_SHARDED_ENGINE_HH
#define AMNT_SHARD_SHARDED_ENGINE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/thread_pool.hh"
#include "common/types.hh"
#include "core/amnt.hh"
#include "shard/partition.hh"

namespace amnt::obs
{
class StatRegistry;
}

namespace amnt::shard
{

/** Sharded-engine construction knobs. */
struct ShardOptions
{
    /**
     * Logical slice count (the model parameter). Changing it changes
     * the simulated machine; changing `lanes` never does.
     */
    unsigned slices = 4;

    /** Host drain lanes (`--shards=N`). 1 = serial drains. */
    unsigned lanes = 1;

    /** Buffered writes per epoch before the coordinator closes it. */
    std::uint64_t epochWrites = 1024;

    /** Cores feeding the engine (per-core latency accumulators). */
    unsigned cores = 1;
};

/** One buffered memory operation awaiting its epoch drain. */
struct ShardOp
{
    Addr addr = 0; ///< slice-local address
    unsigned core = 0;
    bool isWrite = false;
    bool hasData = false;
    mem::Block data{};
};

/**
 * One slice: a full protocol engine over 1/S of the data range, its
 * own NVM device, the slice's operation queues, and the durable
 * snapshot of the last committed epoch (NV root register value,
 * protocol shadow, functional plaintext pre-images).
 */
class EngineShard
{
  public:
    EngineShard(mee::Protocol protocol,
                const mee::MeeConfig &slice_config, unsigned cores);

    mee::MemoryEngine &engine() { return memory_.engine(); }
    mem::NvmDevice &device() { return memory_.device(); }
    core::FlatMemory &memory() { return memory_; }

    /** Buffer one operation for the open epoch. */
    void enqueue(const ShardOp &op);

    bool pendingEmpty() const { return pending_.empty(); }
    bool inflightEmpty() const { return inflight_.empty(); }

    /** Move the open epoch's queue into the in-flight slot. */
    void swapInflight();

    /** Apply the in-flight queue (safe on a drain-lane thread). */
    void drainInflight();

    /** Apply the open queue inline (serial / fault-domain mode). */
    void drainPending();

    /** Discard buffered operations (power failure). */
    void dropPending();

    /**
     * Epoch commit: latch the NV root register value and protocol
     * shadow as the new durable baseline and discard the pre-image
     * journal and plaintext pre-images of the closed epoch.
     */
    void captureCommitted();

    /**
     * Torn-epoch recovery, between crash() and the engine's
     * recover(): roll the device journal back, recompute the
     * persisted-MAC table for the rolled metadata blocks, restore
     * the functional plaintext mirror, NV root register and protocol
     * shadow to the committed baseline — then run the engine's
     * normal recovery from that (consistent) state.
     */
    mee::RecoveryReport recoverSlice();

    /** Add this slice's per-core drain latencies to @p out; reset. */
    void harvest(std::vector<Cycle> &out);

    /** Capture functional/shadow baselines (fault-domain runs). */
    void setTrackCommitted(bool on) { trackCommitted_ = on; }

    /** Ops absorbed by epoch coalescing so far (stat). */
    std::uint64_t coalescedOps() const { return coalesced_; }

    /** Distinct blocks / pages engine-applied across drains (stats):
     *  the batch locality the epoch model's amortization rides on. */
    std::uint64_t uniqueBlocksApplied() const { return uniqueBlocks_; }
    std::uint64_t uniquePagesApplied() const { return uniquePages_; }

  private:
    void apply(const ShardOp &op);
    void drainList(std::vector<ShardOp> &ops);
    void rollbackTornEpoch();
    void restorePlaintext();

    /** First-write-per-epoch pre-image of the plaintext mirror. */
    struct PlainPre
    {
        bool present = false;
        mem::Block bytes{};
    };

    core::FlatMemory memory_;

    std::vector<ShardOp> pending_;
    std::vector<ShardOp> inflight_;
    std::vector<Cycle> laneLatency_; ///< per core, merged at harvest

    /** Durable baseline at the last committed epoch. */
    std::uint64_t committedRoot_ = 0;
    std::unique_ptr<mee::ProtocolShadow> committedShadow_;
    FlatMap<BlockId, PlainPre> plaintextPre_;
    bool trackCommitted_ = false;
    std::uint64_t coalesced_ = 0;
    std::uint64_t uniqueBlocks_ = 0;
    std::uint64_t uniquePages_ = 0;

    /** Scratch for drainList; members so capacity is reused. */
    FlatMap<BlockId, std::uint32_t> lastWrite_;
    FlatMap<BlockId, std::uint8_t> touched_;
    FlatMap<std::uint64_t, std::uint8_t> touchedPages_;
};

/**
 * The sharded engine facade: partitions addresses over the slices,
 * buffers operations into epochs, drains slices on the configured
 * lanes, and persists the cross-shard commit record.
 */
class ShardedEngine final : public mee::SecureMemory
{
  public:
    /**
     * @param protocol The protocol every slice runs.
     * @param total    Engine geometry for the WHOLE data range; each
     *                 slice gets dataBytes / slices of it.
     * @param opts     Slice/lane/epoch knobs (see ShardOptions).
     */
    ShardedEngine(mee::Protocol protocol, const mee::MeeConfig &total,
                  const ShardOptions &opts = {});
    ~ShardedEngine();

    ShardedEngine(const ShardedEngine &) = delete;
    ShardedEngine &operator=(const ShardedEngine &) = delete;

    /**
     * Buffer a data write for the owning slice. Returns 0: the
     * latency accrues at drain time per core and is collected with
     * harvestLatencies().
     */
    Cycle write(Addr addr, const std::uint8_t *data = nullptr,
                unsigned core = 0) override;

    /**
     * Data read. With @p out == nullptr the read is buffered like a
     * write (timing plane). A functional read (@p out != nullptr)
     * first drains every pending operation — without committing the
     * epoch — and returns the decrypted bytes and real latency.
     */
    Cycle read(Addr addr, std::uint8_t *out = nullptr,
               unsigned core = 0) override;

    /** Drain everything and commit the open epoch. */
    void flush() override;

    /** Power failure across all slices; buffered ops are lost. */
    void crash() override;

    /** Recover every slice to the last fully-committed epoch. */
    mee::RecoveryReport recover() override;

    /** Sum of integrity violations across slices. */
    std::uint64_t violations() const override;

    /**
     * Attach one fault domain to every slice device and the
     * coordinator's commit-record boundary. Enables the committed
     * shadow/plaintext baselines needed for torn-epoch rollback.
     */
    void setFaultDomain(fault::FaultDomain *domain) override;

    /** Highest fully-committed epoch (0 before the first commit). */
    std::uint64_t committedEpoch() const { return committedEpoch_; }

    /** The open (enqueue-target) epoch number. */
    std::uint64_t currentEpoch() const { return currentEpoch_; }

    /** Writes per epoch after env resolution. */
    std::uint64_t epochWrites() const { return epochWrites_; }

    const Partition &partition() const { return part_; }
    unsigned
    sliceCount() const override
    {
        return static_cast<unsigned>(shards_.size());
    }
    mee::MemoryEngine &
    slice(unsigned s) override
    {
        return shards_[s]->engine();
    }
    mem::NvmDevice &
    sliceDevice(unsigned s) override
    {
        return shards_[s]->device();
    }

    /**
     * Federate every slice under "mee.shard<i>.*" / "nvm.shard<i>.*"
     * plus the coordinator under "shard.epoch.*". All registered
     * values are simulated state, independent of the lane count.
     */
    void registerStats(obs::StatRegistry &reg) override;

    /** Add accrued per-core drain latencies to @p per_core; reset. */
    void harvestLatencies(std::vector<Cycle> &per_core) override;

    /** Coordinator statistics (epochs committed, ops buffered...). */
    const StatGroup &stats() const { return stats_; }

  private:
    void closeEpoch();
    void waitInflight();
    void commitRecord(std::uint64_t epoch);
    bool pipelined() const
    {
        return pool_ != nullptr && fd_ == nullptr;
    }

    Partition part_;
    std::uint64_t epochWrites_;
    std::uint64_t epochOpsCap_;
    std::vector<std::unique_ptr<EngineShard>> shards_;
    std::unique_ptr<ThreadPool> pool_;
    fault::FaultDomain *fd_ = nullptr;

    /** Platform suite MAC-ing the commit record's root vector. */
    crypto::CryptoSuite recordCrypto_;
    std::uint64_t recordMac_ = 0; ///< last commit record's MAC

    StatGroup stats_;
    std::uint64_t *opsBuffered_ = nullptr;
    std::uint64_t *writesBuffered_ = nullptr;
    std::uint64_t writesThisEpoch_ = 0;
    std::uint64_t opsThisEpoch_ = 0;
    std::uint64_t currentEpoch_ = 1;
    std::uint64_t committedEpoch_ = 0;

    /** Pipelined mode: epoch drained/draining but uncommitted. */
    std::uint64_t inflightEpoch_ = 0;
};

} // namespace amnt::shard

#endif // AMNT_SHARD_SHARDED_ENGINE_HH
