#include "shard/sharded_engine.hh"

#include <algorithm>
#include <cstring>

#include "common/bitops.hh"
#include "common/log.hh"
#include "obs/registry.hh"

namespace amnt::shard
{

namespace
{

bool
blockZero(const mem::Block &b)
{
    for (std::uint8_t byte : b)
        if (byte != 0)
            return false;
    return true;
}

/** @p opts, after rejecting a count the model cannot run with. */
const ShardOptions &
checked(const ShardOptions &opts)
{
    if (opts.slices == 0 || opts.epochWrites == 0 || opts.cores == 0)
        fatal("sharded engine needs at least one slice, one write per "
              "epoch and one core");
    return opts;
}

} // namespace

// ----------------------------------------------------------------
// EngineShard

EngineShard::EngineShard(mee::Protocol protocol,
                         const mee::MeeConfig &slice_config,
                         unsigned cores)
    : memory_(protocol, slice_config), laneLatency_(cores, 0)
{
    // Building the engine wrote nothing, so the journal still sees
    // every device write.
    device().journalEnable();
    trackCommitted_ = slice_config.trackContents;
    captureCommitted();
}

void
EngineShard::enqueue(const ShardOp &op)
{
    pending_.push_back(op);
}

void
EngineShard::swapInflight()
{
    inflight_.swap(pending_);
    pending_.clear();
}

void
EngineShard::apply(const ShardOp &op)
{
    if (op.isWrite) {
        if (trackCommitted_ && op.hasData) {
            // First write per block per epoch: remember what the
            // functional plaintext mirror held at the last commit, so
            // a torn-epoch rollback can restore it (a stale entry
            // would silently corrupt post-recovery page
            // re-encryption).
            auto [it, fresh] =
                plaintextPre_.try_emplace(blockOf(op.addr));
            if (fresh) {
                auto p = engine().plaintext_.find(blockOf(op.addr));
                if (p != engine().plaintext_.end()) {
                    it->second.present = true;
                    it->second.bytes = p->second;
                }
            }
        }
        laneLatency_[op.core] += engine().write(
            op.addr, op.hasData ? op.data.data() : nullptr);
    } else {
        laneLatency_[op.core] += engine().read(op.addr, nullptr);
    }
}

void
EngineShard::drainList(std::vector<ShardOp> &ops)
{
    if (ops.empty())
        return;
    // Epoch coalescing: only the last write per block in this batch
    // is observable (commits are all-or-nothing per epoch; readers
    // drain first), and a block already fetched or written in the
    // batch is resident, so repeat accesses fold into the block's one
    // engine operation at zero simulated cost. Purely a function of
    // the batch's own sequence — identical at any lane count.
    lastWrite_.clear();
    touched_.clear();
    for (std::size_t i = 0; i < ops.size(); ++i)
        if (ops[i].isWrite)
            lastWrite_[blockOf(ops[i].addr)] =
                static_cast<std::uint32_t>(i);
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const ShardOp &op = ops[i];
        const BlockId b = blockOf(op.addr);
        if (op.isWrite) {
            const auto it = lastWrite_.find(b);
            if (it->second != static_cast<std::uint32_t>(i)) {
                ++coalesced_;
                continue;
            }
        } else if (touched_.contains(b)) {
            ++coalesced_;
            continue;
        }
        apply(op);
        touched_[b] = 1;
        ++uniqueBlocks_;
        if (touchedPages_.try_emplace(b / kBlocksPerPage).second)
            ++uniquePages_;
    }
    touchedPages_.clear();
    ops.clear();
}

void
EngineShard::drainInflight()
{
    drainList(inflight_);
}

void
EngineShard::drainPending()
{
    drainList(pending_);
}

void
EngineShard::dropPending()
{
    pending_.clear();
    inflight_.clear();
}

void
EngineShard::captureCommitted()
{
    committedRoot_ = engine().rootRegister();
    if (trackCommitted_)
        committedShadow_ = engine().strategy().cloneShadow();
    device().journalClear();
    plaintextPre_.clear();
}

void
EngineShard::rollbackTornEpoch()
{
    mee::MemoryEngine &eng = engine();
    // A rollback that restores or erases blocks is a change the
    // engine did not make: the device ends a deferral of its persist
    // MACs first, so the table below is the eager one.
    const std::vector<Addr> rolled = device().journalRollback();
    // The persisted-MAC table describes durable contents; recompute
    // it for every rolled metadata block exactly the way persistBytes
    // recorded it (absent-or-all-zero blocks carry no entry). Data
    // blocks have no persisted-MAC entry — their authentication goes
    // through the HMAC region, which rolls back like any metadata.
    mem::Block bytes;
    for (Addr a : rolled) {
        if (eng.map_.classify(a) == mem::Region::Data)
            continue;
        device().peek(a, bytes);
        if (blockZero(bytes))
            eng.persistedMac_.erase(a);
        else
            eng.persistedMac_[a] = eng.crypto_.hash->mac64(
                bytes.data(), bytes.size(), a);
    }
}

void
EngineShard::restorePlaintext()
{
    mee::MemoryEngine &eng = engine();
    for (const auto &kv : plaintextPre_) {
        if (kv.second.present)
            eng.plaintext_.try_emplace(kv.first).first->second =
                kv.second.bytes;
        else
            eng.plaintext_.erase(kv.first);
    }
    plaintextPre_.clear();
}

mee::RecoveryReport
EngineShard::recoverSlice()
{
    mee::MemoryEngine &eng = engine();
    if (device().journalDirty())
        rollbackTornEpoch();
    restorePlaintext();
    // Restore the NV registers the commit record latched. For a slice
    // whose epoch was not torn these assignments are identities; for
    // a torn slice they turn the rolled-back NVM image plus NV state
    // into exactly the machine that crashed right after the last
    // commit — a boundary the per-engine crash matrix validates.
    eng.rootRegister_ = committedRoot_;
    if (committedShadow_ != nullptr)
        eng.strategy().restoreShadow(*committedShadow_);
    return eng.recover();
}

void
EngineShard::harvest(std::vector<Cycle> &out)
{
    const std::size_t n = std::min(out.size(), laneLatency_.size());
    for (std::size_t i = 0; i < n; ++i) {
        out[i] += laneLatency_[i];
        laneLatency_[i] = 0;
    }
}

// ----------------------------------------------------------------
// ShardedEngine

ShardedEngine::ShardedEngine(mee::Protocol protocol,
                             const mee::MeeConfig &total,
                             const ShardOptions &opts)
    : part_(total.dataBytes, checked(opts).slices),
      epochWrites_(opts.epochWrites),
      recordCrypto_(crypto::CryptoSuite::make(
          total.plane, total.keySeed ^ 0xec0cull))
{
    // Reads buffer too; bound queue growth on read-only phases.
    epochOpsCap_ = epochWrites_ * 8;
    opsBuffered_ = &stats_.counter("ops_buffered");
    writesBuffered_ = &stats_.counter("writes_buffered");

    mee::MeeConfig slice_cfg = total;
    slice_cfg.dataBytes = part_.sliceBytes;
    for (unsigned i = 0; i < opts.slices; ++i)
        shards_.push_back(std::make_unique<EngineShard>(
            protocol, slice_cfg, opts.cores));

    if (opts.lanes > 1)
        pool_ = std::make_unique<ThreadPool>(opts.lanes);
}

ShardedEngine::~ShardedEngine()
{
    waitInflight();
}

void
ShardedEngine::waitInflight()
{
    if (pool_ != nullptr)
        pool_->wait();
}

Cycle
ShardedEngine::write(Addr addr, const std::uint8_t *data,
                     unsigned core)
{
    const unsigned s = part_.shardFor(addr);
    ShardOp op;
    op.addr = part_.localAddr(addr);
    op.core = core;
    op.isWrite = true;
    if (data != nullptr) {
        op.hasData = true;
        std::memcpy(op.data.data(), data, kBlockSize);
    }
    shards_[s]->enqueue(op);
    ++*opsBuffered_;
    ++*writesBuffered_;
    ++writesThisEpoch_;
    ++opsThisEpoch_;
    if (writesThisEpoch_ >= epochWrites_ ||
        opsThisEpoch_ >= epochOpsCap_)
        closeEpoch();
    return 0;
}

Cycle
ShardedEngine::read(Addr addr, std::uint8_t *out, unsigned core)
{
    const unsigned s = part_.shardFor(addr);
    if (out == nullptr) {
        ShardOp op;
        op.addr = part_.localAddr(addr);
        op.core = core;
        shards_[s]->enqueue(op);
        ++*opsBuffered_;
        ++opsThisEpoch_;
        if (opsThisEpoch_ >= epochOpsCap_)
            closeEpoch();
        return 0;
    }
    // Functional read: every buffered operation program-order before
    // it must be visible. Drain without committing — the pre-image
    // journals keep the drained-but-uncommitted state rollbackable.
    stats_.inc("sync_reads");
    waitInflight();
    for (auto &shard : shards_)
        shard->drainInflight();
    for (auto &shard : shards_)
        shard->drainPending();
    return shards_[s]->engine().read(part_.localAddr(addr), out);
}

void
ShardedEngine::commitRecord(std::uint64_t epoch)
{
    // The commit record: the epoch number and every slice's NV root
    // register value, MAC'd as one cross-shard mac64xN burst (the
    // record is a single 64 B line; its MAC binds the slice roots
    // together so recovery can detect a torn record itself).
    std::vector<std::uint64_t> roots(shards_.size());
    std::vector<crypto::MacRequest> reqs(shards_.size());
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        roots[i] = shards_[i]->engine().rootRegister();
        reqs[i] = {&roots[i], sizeof(roots[i]),
                   epoch * shards_.size() + i};
    }
    std::vector<std::uint64_t> macs(shards_.size());
    recordCrypto_.hash->mac64xN(reqs.data(), reqs.size(),
                                macs.data());
    recordMac_ = 0;
    for (std::uint64_t m : macs)
        recordMac_ ^= m;

    // The record's own persist is the LAST durable write of the
    // epoch — and its own crash boundary: a crash here leaves every
    // slice drained but the epoch uncommitted, the torn case.
    if (fd_ != nullptr)
        fd_->persistPoint();
    committedEpoch_ = epoch;
    for (auto &shard : shards_)
        shard->captureCommitted();
    stats_.inc("epochs_committed");
}

void
ShardedEngine::closeEpoch()
{
    if (pipelined()) {
        // Depth-1 pipeline: the previous epoch finishes draining and
        // commits now; the epoch being closed starts draining on the
        // lanes while the caller generates the next one. Legal
        // because buffered ops feed no state back into generation.
        waitInflight();
        if (inflightEpoch_ != 0) {
            commitRecord(inflightEpoch_);
            inflightEpoch_ = 0;
        }
        for (auto &shard : shards_)
            shard->swapInflight();
        inflightEpoch_ = currentEpoch_;
        for (auto &shard : shards_) {
            EngineShard *s = shard.get();
            if (!s->inflightEmpty())
                pool_->submit([s] { s->drainInflight(); });
        }
    } else {
        // Serial drains in slice order: deterministic crash-point
        // numbering under an attached fault domain. The fence after
        // each slice's drain is the "between a shard's epoch flush
        // and the commit record" boundary of the torn-epoch matrix.
        for (auto &shard : shards_) {
            shard->drainPending();
            if (fd_ != nullptr)
                fd_->persistPoint();
        }
        commitRecord(currentEpoch_);
    }
    ++currentEpoch_;
    writesThisEpoch_ = 0;
    opsThisEpoch_ = 0;
}

void
ShardedEngine::flush()
{
    bool pending = inflightEpoch_ != 0 || opsThisEpoch_ != 0;
    for (const auto &shard : shards_)
        pending = pending || !shard->pendingEmpty();
    if (!pending)
        return;
    closeEpoch();
    // A pipelined close leaves the epoch draining on the lanes.
    waitInflight();
    if (inflightEpoch_ != 0) {
        commitRecord(inflightEpoch_);
        inflightEpoch_ = 0;
    }
}

void
ShardedEngine::crash()
{
    waitInflight();
    for (auto &shard : shards_) {
        shard->dropPending();
        shard->memory().crash();
    }
    inflightEpoch_ = 0;
}

mee::RecoveryReport
ShardedEngine::recover()
{
    mee::RecoveryReport agg;
    agg.success = true;
    unsigned rolled = 0;
    for (auto &shard : shards_) {
        const bool torn = shard->device().journalDirty();
        rolled += torn ? 1 : 0;
        const mee::RecoveryReport r = shard->recoverSlice();
        agg.success = agg.success && r.success;
        agg.blocksRead += r.blocksRead;
        agg.blocksWritten += r.blocksWritten;
        agg.countersRecovered += r.countersRecovered;
        agg.nodesRecomputed += r.nodesRecomputed;
        // Slices recover in parallel on real hardware: the recovery
        // time is the slowest slice, not the sum.
        agg.estimatedMs = std::max(agg.estimatedMs, r.estimatedMs);
        if (!r.success && agg.detail.empty())
            agg.detail = "shard " +
                         std::to_string(&shard - &shards_[0]) + ": " +
                         r.detail;
    }
    if (agg.success)
        agg.detail =
            "sharded: " + std::to_string(shards_.size()) +
            " slices at epoch " + std::to_string(committedEpoch_) +
            ", " + std::to_string(rolled) + " torn rolled back";
    stats_.inc("torn_epochs_rolled_back", rolled);
    // Re-baseline: the recovered state is the committed state; open
    // a fresh epoch on top of it.
    for (auto &shard : shards_)
        shard->captureCommitted();
    currentEpoch_ = committedEpoch_ + 1;
    writesThisEpoch_ = 0;
    opsThisEpoch_ = 0;
    return agg;
}

std::uint64_t
ShardedEngine::violations() const
{
    std::uint64_t v = 0;
    for (const auto &shard : shards_)
        v += shard->engine().violations();
    return v;
}

void
ShardedEngine::setFaultDomain(fault::FaultDomain *domain)
{
    fd_ = domain;
    for (auto &shard : shards_) {
        shard->device().setFaultDomain(domain);
        if (domain != nullptr)
            shard->setTrackCommitted(true);
    }
    if (domain != nullptr) {
        // The baseline must reflect state at attach time, not
        // construction time (shadows were not tracked before).
        for (auto &shard : shards_)
            shard->captureCommitted();
    }
}

void
ShardedEngine::registerStats(obs::StatRegistry &reg)
{
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        const std::string tag = "shard" + std::to_string(i);
        shards_[i]->memory().registerStats(reg, "." + tag);
        const mem::NvmDevice *dev = &shards_[i]->device();
        reg.addScalar("nvm." + tag + ".journal_captures",
                      [dev] { return dev->journalCaptures(); });
        reg.addScalar("nvm." + tag + ".journal_rollbacks",
                      [dev] { return dev->journalRollbacks(); });
    }
    reg.addGroup("shard.epoch", &stats_);
    reg.addScalar("shard.slices", [this] { return shards_.size(); });
    // Lane threads bump per-shard counters; summed here so the value
    // is one deterministic scalar (coalescing is lane-independent).
    reg.addScalar("shard.coalesced_ops", [this] {
        std::uint64_t n = 0;
        for (const auto &shard : shards_)
            n += shard->coalescedOps();
        return n;
    });
    reg.addScalar("shard.applied_blocks", [this] {
        std::uint64_t n = 0;
        for (const auto &shard : shards_)
            n += shard->uniqueBlocksApplied();
        return n;
    });
    reg.addScalar("shard.applied_pages", [this] {
        std::uint64_t n = 0;
        for (const auto &shard : shards_)
            n += shard->uniquePagesApplied();
        return n;
    });
}

void
ShardedEngine::harvestLatencies(std::vector<Cycle> &per_core)
{
    waitInflight();
    for (auto &shard : shards_)
        shard->harvest(per_core);
}

} // namespace amnt::shard
