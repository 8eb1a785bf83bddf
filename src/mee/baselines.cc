#include "mee/baselines.hh"

#include "common/bitops.hh"
#include "common/log.hh"

namespace amnt::mee
{

// ---------------------------------------------------------------- Volatile

RecoveryReport
VolatileStrategy::recover()
{
    RecoveryReport report;
    rebuildAndVerify(report);
    report.estimatedMs =
        recoveryMs(report.blocksRead, report.blocksWritten);
    report.detail = "volatile scheme: root register lost at power-off";
    return report;
}

// ------------------------------------------------------------------ Strict

Cycle
StrictStrategy::persist(const WriteContext &ctx)
{
    // Read-modify-write of every ancestral node, then an ordered
    // write-through of data + counter + HMAC + the whole path. The
    // serialization is what crash atomicity costs here, and is why
    // strict persistence runs up to 2.4x slower than volatile.
    unsigned misses = 0;
    Cycle hook = 0;
    pathOf(ctx.counterIdx, pathScratch());
    const auto &path = pathScratch();
    for (const auto &ref : path)
        hook += ensureResident(map().nodeAddrOf(ref), misses);
    Cycle lat = misses > 0 ? config().nvmReadCycles : 0;

    // Counter and HMAC persist atomically with the data write; the
    // ancestral path follows in postCommit — each node in the ordered
    // chain is its own crash point, and a lost tail is recomputable
    // from the (already persisted) counters.
    const Addr wt[2] = {map().counterBase() +
                            ctx.counterIdx * kBlockSize,
                        map().hmacAddrOf(ctx.dataAddr)};
    writeThroughMany(wt, 2);

    lat += persistCost(3 + static_cast<unsigned>(path.size()));
    return lat + hook;
}

Cycle
StrictStrategy::postCommit(const WriteContext &ctx)
{
    pathOf(ctx.counterIdx, pathScratch());
    Addr wt[bmt::Geometry::kMaxPathNodes];
    std::size_t nwt = 0;
    for (const auto &ref : pathScratch())
        wt[nwt++] = map().nodeAddrOf(ref);
    writeThroughMany(wt, nwt);
    return 0; // charged in persist's persistCost
}

RecoveryReport
StrictStrategy::recover()
{
    RecoveryReport report;
    rebuildAndVerify(report);
    // All metadata was persisted eagerly: recovery does no memory
    // work beyond re-loading the (already consistent) state.
    report.blocksRead = 0;
    report.blocksWritten = 0;
    report.nodesRecomputed = 0;
    report.countersRecovered = 0;
    report.estimatedMs = 0.0;
    report.detail = "strict persistence: metadata already consistent";
    return report;
}

// -------------------------------------------------------------------- Leaf

Cycle
LeafStrategy::persist(const WriteContext &ctx)
{
    // Counter and HMAC persist atomically with the data write (one
    // parallel burst to independent banks); the root register update
    // is on-chip. Tree nodes stay lazy in the metadata cache.
    writeThrough(map().counterBase() + ctx.counterIdx * kBlockSize);
    writeThrough(map().hmacAddrOf(ctx.dataAddr));
    return persistCost(1);
}

RecoveryReport
LeafStrategy::recover()
{
    RecoveryReport report;
    rebuildAndVerify(report);
    report.estimatedMs =
        recoveryMs(report.blocksRead, report.blocksWritten);
    report.detail = "leaf persistence: full inner-tree recompute";
    return report;
}

// ------------------------------------------------------------------ Osiris

Cycle
OsirisStrategy::persist(const WriteContext &ctx)
{
    writeThrough(map().hmacAddrOf(ctx.dataAddr));
    return persistCost(1);
}

Cycle
OsirisStrategy::postCommit(const WriteContext &ctx)
{
    // Stop-loss: the counter reaches NVM only every N updates (or at
    // a minor overflow), and NOT atomically with the data write — a
    // crash on this boundary loses at most stop-loss minor
    // increments, exactly what recovery re-derives by HMAC trial.
    unsigned &since = sincePersist_[ctx.counterIdx];
    ++since;
    if (ctx.overflowed || since >= config().osirisStopLoss) {
        writeThrough(map().counterBase() +
                     ctx.counterIdx * kBlockSize);
        since = 0;
    }
    return 0;
}

RecoveryReport
OsirisStrategy::recover()
{
    RecoveryReport report;
    sincePersist_.clear();

    // Phase 1: find every data block with a persisted HMAC entry and
    // re-derive its minor counter by trying the at-most-stop-loss
    // candidate values against the stored HMAC.
    struct Recovered
    {
        bmt::CounterBlock cb;
        bool loaded = false;
    };
    std::unordered_map<std::uint64_t, Recovered> counters;
    bool all_matched = true;

    nvm().forEachBlockIn(
        map().hmacBase(), map().treeBase(),
        [&](Addr haddr, const mem::Block &hblock) {
            ++report.blocksRead; // the HMAC block itself
            for (unsigned slot = 0; slot < kTreeArity; ++slot) {
                const std::uint64_t entry =
                    load64le(hblock.data() + slot * kHashBytes);
                if (entry == 0)
                    continue;
                const std::uint64_t data_block =
                    (haddr - map().hmacBase()) / kBlockSize *
                        kTreeArity +
                    slot;
                const Addr daddr = blockAddr(data_block);
                const std::uint64_t cidx = map().counterIndexOf(daddr);

                auto &rec = counters[cidx];
                if (!rec.loaded) {
                    mem::Block raw;
                    nvm().peek(map().counterBase() + cidx * kBlockSize,
                               raw);
                    rec.cb = bmt::CounterBlock::deserialize(raw);
                    rec.loaded = true;
                    ++report.blocksRead; // the stale counter block
                }

                mem::Block cipher{};
                const std::uint8_t *cipher_p = nullptr;
                if (config().trackContents) {
                    nvm().peek(daddr, cipher);
                    cipher_p = cipher.data();
                }
                ++report.blocksRead; // the data block for the trial

                const unsigned minor_slot = static_cast<unsigned>(
                    data_block % kBlocksPerPage);
                const std::uint8_t base = rec.cb.minors[minor_slot];
                // Trial-MAC every stop-loss candidate in one batched
                // burst, then pick the first match (same result as the
                // early-exit scalar loop).
                crypto::MacRequest treqs[kMinorCounterMax + 1u];
                unsigned ncand = 0;
                for (unsigned d = 0; d <= config().osirisStopLoss;
                     ++d) {
                    const unsigned v = base + d;
                    if (v > kMinorCounterMax)
                        break;
                    treqs[ncand++] =
                        dataMacRequest(daddr, rec.cb.major, v, cipher_p);
                }
                std::uint64_t cand[kMinorCounterMax + 1u];
                dataSuite(daddr).hash->mac64xN(treqs, ncand, cand);
                trace().instant(obs::EventClass::CryptoBatch, ncand);
                bool matched = false;
                for (unsigned d = 0; d < ncand; ++d) {
                    if (cand[d] == entry) {
                        rec.cb.minors[minor_slot] =
                            static_cast<std::uint8_t>(base + d);
                        matched = true;
                        break;
                    }
                }
                if (!matched)
                    all_matched = false;
            }
        });

    // Phase 2: persist the recovered counters, then rebuild the tree
    // from them and compare with the non-volatile root register.
    for (const auto &kv : counters) {
        persistBytes(map().counterBase() + kv.first * kBlockSize,
                     kv.second.cb.serialize());
        ++report.blocksWritten;
    }
    rebuildAndVerify(report);
    report.success = report.success && all_matched;
    report.estimatedMs =
        recoveryMs(report.blocksRead, report.blocksWritten);
    report.detail = "osiris: stop-loss counter trial + full recompute";
    return report;
}

} // namespace amnt::mee
