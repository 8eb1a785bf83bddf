#include "mee/engine.hh"

#include <algorithm>
#include <cstring>

#include <chrono>

#include "common/bitops.hh"
#include "common/log.hh"
#include "fault/fault.hh"
#include "mee/protocol.hh"
#include "obs/registry.hh"

namespace amnt::mee
{

const char *
protocolName(Protocol p)
{
    switch (p) {
      case Protocol::Volatile: return "volatile";
      case Protocol::Strict: return "strict";
      case Protocol::Leaf: return "leaf";
      case Protocol::Osiris: return "osiris";
      case Protocol::Anubis: return "anubis";
      case Protocol::Bmf: return "bmf";
      case Protocol::Amnt: return "amnt";
      case Protocol::Phoenix: return "phoenix";
      case Protocol::Stit: return "stit";
    }
    return "?";
}

void
ProtocolStrategy::attach(MemoryEngine &engine)
{
    if (eng_ != nullptr)
        fatal("protocol strategy attached twice");
    eng_ = &engine;
    onAttach();
}

void
ProtocolStrategy::propagateParent(Addr parent_addr)
{
    markDirty(parent_addr);
}

MemoryEngine::MemoryEngine(const MeeConfig &config, mem::NvmDevice &nvm,
                           std::unique_ptr<ProtocolStrategy> strategy)
    : config_(config), map_(config.dataBytes), nvm_(&nvm),
      crypto_(crypto::CryptoSuite::make(config.plane, config.keySeed)),
      mcache_(config.metaCache),
      mcacheDirtyOccupancy_(
          0.0, static_cast<double>(mcache_.lines()) + 1.0,
          static_cast<std::size_t>(mcache_.lines()) + 1),
      strategy_(std::move(strategy))
{
    if (strategy_ == nullptr)
        fatal("memory engine needs a protocol strategy");
    if (nvm.capacity() < map_.deviceBytes())
        fatal("NVM device (%llu B) smaller than required layout "
              "(%llu B data + metadata)",
              static_cast<unsigned long long>(nvm.capacity()),
              static_cast<unsigned long long>(map_.deviceBytes()));
    if (!config_.tenantKeySeeds.empty()) {
        const std::uint64_t n = config_.tenantKeySeeds.size();
        if (config_.dataBytes % (n * kPageSize) != 0)
            fatal("tenant key domains need page-aligned equal slices: "
                  "%llu data bytes / %llu tenants",
                  static_cast<unsigned long long>(config_.dataBytes),
                  static_cast<unsigned long long>(n));
        tenantSliceBytes_ = config_.dataBytes / n;
        tenantCrypto_.reserve(n);
        for (std::uint64_t seed : config_.tenantKeySeeds)
            tenantCrypto_.push_back(
                crypto::CryptoSuite::make(config_.plane, seed));
    }
    tree_ = std::make_unique<bmt::TreeState>(map_, *crypto_.hash);
    dataReads_ = &stats_.counter("data_reads");
    dataWrites_ = &stats_.counter("data_writes");
    metaFetches_ = &stats_.counter("meta_fetches");
    metaWritebacks_ = &stats_.counter("meta_writebacks");
    persistWrites_ = &stats_.counter("persist_writes");
    strategy_->attach(*this);
    // Defer the fetch check and the persist MACs while every byte on
    // the device is this engine's own. A device written before, or
    // one another engine already defers on, keeps this engine eager;
    // its writes are foreign to that other engine, which then ends
    // its deferral.
    macsDeferred_ = nvm.mutations() == 0 &&
                    nvm.attachDeferringWriter(*this);
}

MemoryEngine::~MemoryEngine()
{
    if (macsDeferred_)
        nvm_->detachDeferringWriter(*this);
}

Protocol
MemoryEngine::protocol() const
{
    return strategy_->id();
}

std::string
MemoryEngine::statPath() const
{
    return strategy_->statPath();
}

void
MemoryEngine::registerStats(obs::StatRegistry &reg,
                            const std::string &prefix)
{
    const std::string base = prefix + "." + statPath();
    reg.addGroup(base, &stats_);
    reg.addGroup(prefix + ".mcache", &mcache_.stats());
    reg.addHistogram(prefix + ".persist_chain_depth",
                     &persistChainDepth_);
    reg.addHistogram(prefix + ".mcache_dirty_occupancy",
                     &mcacheDirtyOccupancy_);
    reg.addHistogram("host." + prefix + ".crypto_batch_ns",
                     &hostCryptoBatchNs_);
    reg.addScalar(prefix + ".violations",
                  [this] { return violations_; });
}

mem::Block
MemoryEngine::latestBytes(Addr maddr) const
{
    switch (map_.classify(maddr)) {
      case mem::Region::Counter:
        return tree_->counterBytes(map_.counterIndexOfCounterAddr(maddr));
      case mem::Region::Tree:
        return tree_->node(map_.nodeOfAddr(maddr));
      case mem::Region::Hmac: {
          auto it = hmacLatest_.find(maddr);
          if (it != hmacLatest_.end())
              return it->second;
          mem::Block zero{};
          return zero;
      }
      case mem::Region::Data:
        break;
    }
    panic("latestBytes on a data address");
}

namespace
{

bool
blockIsZero(const mem::Block &b)
{
    for (auto byte : b)
        if (byte != 0)
            return false;
    return true;
}

} // namespace

void
MemoryEngine::persistBytes(Addr maddr, const mem::Block &bytes)
{
    trace_.instant(obs::EventClass::Persist, maddr);
    writeNvm(maddr, bytes);
    FlatMap<Addr, std::uint64_t> *table = macTable();
    if (table == nullptr)
        return;
    if (blockIsZero(bytes))
        table->erase(maddr);
    else
        (*table)[maddr] =
            crypto_.hash->mac64(bytes.data(), bytes.size(), maddr);
}

namespace
{

/** Chunk size for the batched persist paths (stack buffers only). */
constexpr std::size_t kPersistBatch = 64;

} // namespace

void
MemoryEngine::persistBytesMany(const Addr *addrs,
                               const mem::Block *const *blocks,
                               std::size_t n)
{
    FlatMap<Addr, std::uint64_t> *table = macTable();
    if (table == nullptr) {
        for (std::size_t k = 0; k < n; ++k) {
            if (trace_.on())
                trace_.instant(obs::EventClass::Persist, addrs[k]);
            writeNvm(addrs[k], *blocks[k]);
        }
        return;
    }
    while (n > 0) {
        const std::size_t chunk = std::min(n, kPersistBatch);
        crypto::MacRequest reqs[kPersistBatch];
        std::size_t m = 0;
        for (std::size_t k = 0; k < chunk; ++k) {
            if (!blockIsZero(*blocks[k])) {
                reqs[m] = {blocks[k]->data(), blocks[k]->size(),
                           addrs[k]};
                ++m;
            }
        }
        // MACs are computed before any write lands so that an
        // injected crash at block k leaves blocks < k fully persisted
        // (bytes AND recorded MAC) and blocks >= k fully untouched.
        std::uint64_t macs[kPersistBatch];
        const bool timed = obs::hostTimingEnabled();
        std::chrono::steady_clock::time_point t0;
        if (timed)
            t0 = std::chrono::steady_clock::now();
        crypto_.hash->mac64xN(reqs, m, macs);
        if (timed)
            hostCryptoBatchNs_.add(static_cast<double>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count()));
        trace_.instant(obs::EventClass::CryptoBatch, m);
        std::size_t j = 0;
        for (std::size_t k = 0; k < chunk; ++k) {
            if (trace_.on())
                trace_.instant(obs::EventClass::Persist, addrs[k]);
            writeNvm(addrs[k], *blocks[k]);
            if (blockIsZero(*blocks[k])) {
                table->erase(addrs[k]);
            } else {
                (*table)[addrs[k]] = macs[j];
                ++j;
            }
        }
        addrs += chunk;
        blocks += chunk;
        n -= chunk;
    }
}

void
MemoryEngine::writeNvm(Addr addr, const mem::Block &bytes)
{
    nvm_->writeBlockAs(this, addr, bytes);
}

void
MemoryEngine::macDeviceMetadata(FlatMap<Addr, std::uint64_t> &table)
{
    std::vector<crypto::MacRequest> reqs;
    nvm_->forEachBlockIn(
        map_.counterBase(), map_.deviceBytes(),
        [&reqs](Addr a, const mem::Block &b) {
            if (!blockIsZero(b))
                reqs.push_back({b.data(), b.size(), a});
        });
    std::vector<std::uint64_t> macs(reqs.size());
    crypto_.hash->mac64xN(reqs.data(), reqs.size(), macs.data());
    trace_.instant(obs::EventClass::CryptoBatch, reqs.size());
    table.clear();
    for (std::size_t i = 0; i < reqs.size(); ++i)
        table[reqs[i].tweak] = macs[i];
}

void
MemoryEngine::beforeForeignChange()
{
    // The device still holds exactly the bytes this engine persisted,
    // and eager persists record the MAC of those bytes (no entry for
    // an all-zero block): MACing the metadata region reproduces the
    // eager table.
    macsDeferred_ = false;
    macDeviceMetadata(persistedMac_);
    if (!fetchCrossCheck_)
        return;
    bool same = persistedMac_.size() == shadowMac_.size();
    for (auto it = persistedMac_.begin(); same && it != persistedMac_.end();
         ++it) {
        auto s = shadowMac_.find(it->first);
        same = s != shadowMac_.end() && s->second == it->second;
    }
    if (!same)
        panic("deferred persisted-MAC table differs from its eager "
              "shadow (%zu vs %zu entries)",
              persistedMac_.size(), shadowMac_.size());
    shadowMac_ = {};
}

void
MemoryEngine::setFetchCrossCheck(bool on)
{
    fetchCrossCheck_ = on;
    // While deferred, every byte on the device is this engine's own,
    // so the shadow starts from what the device holds.
    if (on && macsDeferred_)
        macDeviceMetadata(shadowMac_);
    else
        shadowMac_ = {};
}

bool
MemoryEngine::matchesPersisted(const FlatMap<Addr, std::uint64_t> &table,
                               Addr maddr, const mem::Block &bytes) const
{
    auto it = table.find(maddr);
    const std::uint64_t expect = it == table.end() ? 0 : it->second;
    const std::uint64_t got =
        blockIsZero(bytes)
            ? 0
            : crypto_.hash->mac64(bytes.data(), bytes.size(), maddr);
    return got == expect;
}

void
MemoryEngine::fetchMetadata(Addr maddr)
{
    if (macsDeferred_) {
        // Every byte on the device came from one of this engine's
        // writes, so the fetched bytes are the ones it last persisted
        // here: count the read and skip the copy and the MAC. A
        // tamper, a rollback or an outside write ends the deferral
        // for good.
        nvm_->touchRead(maddr);
        if (fetchCrossCheck_) {
            mem::Block bytes;
            nvm_->peek(maddr, bytes);
            if (!matchesPersisted(shadowMac_, maddr, bytes))
                panic("fetch fast path skipped a mismatch at %llx",
                      static_cast<unsigned long long>(maddr));
        }
        return;
    }
    // A fetched metadata block must be byte-identical to what the
    // engine last persisted there; the check is a keyed MAC so any
    // physical modification (splice, spoof, or replay of an older
    // value) diverges with overwhelming probability. This is the
    // fetch-time arm of the integrity chain; the crash-time arm is
    // the recovery root comparison against the NV root register.
    mem::Block bytes;
    nvm_->readBlock(maddr, bytes);
    if (!matchesPersisted(persistedMac_, maddr, bytes)) {
        switch (map_.classify(maddr)) {
          case mem::Region::Counter:
            flagViolation("counter", maddr);
            break;
          case mem::Region::Tree:
            flagViolation("tree node", maddr);
            break;
          case mem::Region::Hmac:
            flagViolation("hmac block", maddr);
            break;
          case mem::Region::Data:
            panic("fetchMetadata on a data address");
        }
    }
}

void
MemoryEngine::handleEviction(const cache::AccessResult &res)
{
    if (!res.evictedValid)
        return;
    const Addr victim = res.evictedAddr;
    trace_.instant(obs::EventClass::McacheEvict, victim,
                   res.evictedDirty ? 1 : 0);
    {
        // Eviction is one atomic persist unit: protocols that track
        // residency in NV state (Anubis's shadow table) retire the
        // victim's entry in the same breath as its write-back, so a
        // crash never sees the entry gone but the write-back lost.
        fault::CommitScope evict_unit(nvm_->faultDomain());
        strategy_->onMetaEvict(victim, res.evictedDirty);
        if (res.evictedDirty) {
            // Lazy write-back: the victim's latest bytes reach NVM.
            ++*metaWritebacks_;
            persistBytes(victim, latestBytes(victim));
        }
    }
    if (!res.evictedDirty)
        return;

    // Propagate freshness: a dirty tree node's parent must now track
    // the victim's new hash (counters already dirtied their leaf node
    // at write time; the root node is anchored by the root register).
    if (map_.classify(victim) == mem::Region::Tree) {
        const bmt::NodeRef ref = map_.nodeOfAddr(victim);
        if (ref.level > 1)
            strategy_->propagateParent(
                map_.nodeAddrOf(bmt::Geometry::parentOf(ref)));
    }
}

Cycle
MemoryEngine::ensureResident(Addr maddr, unsigned &misses)
{
    maddr = blockAddr(blockOf(maddr));
    // One probe: a miss fills at once. The fetch reads only NVM, so
    // the victim is still handled after it, as in access-then-insert.
    const cache::AccessResult res = mcache_.lookupOrFill(maddr, false);
    if (res.hit) {
        trace_.instant(obs::EventClass::McacheHit, maddr);
        return 0;
    }
    trace_.instant(obs::EventClass::McacheMiss, maddr);
    ++misses;
    ++*metaFetches_;
    fetchMetadata(maddr);
    handleEviction(res);
    return strategy_->onMetaInsert(maddr);
}

Cycle
MemoryEngine::ensureCounterChain(std::uint64_t counterIdx,
                                 unsigned &misses)
{
    const Addr counter_addr =
        map_.counterBase() + counterIdx * kBlockSize;
    const unsigned before = misses;
    Cycle hook = ensureResident(counter_addr, misses);
    if (misses == before)
        return hook; // counter cached: it is itself a root of trust.

    // Counter missed: walk ancestors until a cached (trusted) node.
    bmt::NodeRef ref = map_.geometry().leafNodeOf(counterIdx);
    while (true) {
        const Addr naddr = map_.nodeAddrOf(ref);
        if (mcache_.touch(naddr, false))
            break; // cached anchor, its LRU position refreshed
        hook += ensureResident(naddr, misses);
        if (ref.level == 1)
            break; // anchored at the on-chip root register
        ref = bmt::Geometry::parentOf(ref);
    }
    if (trace_.on())
        trace_.instant(obs::EventClass::BmtWalk, counterIdx,
                       misses - before);
    return hook;
}

void
MemoryEngine::markDirty(Addr maddr)
{
    maddr = blockAddr(blockOf(maddr));
    if (!mcache_.access(maddr, true)) {
        // Rare: the block was displaced between residency setup and
        // this update; re-fetch (read-modify-write).
        trace_.instant(obs::EventClass::McacheMiss, maddr);
        ++*metaFetches_;
        fetchMetadata(maddr);
        const cache::AccessResult res = mcache_.insert(maddr, true);
        handleEviction(res);
        strategy_->onMetaInsert(maddr);
    }
    strategy_->onMetaUpdate(maddr);
}

void
MemoryEngine::writeThrough(Addr maddr)
{
    persistChainDepth_.add(1.0);
    maddr = blockAddr(blockOf(maddr));
    ++*persistWrites_;
    persistBytes(maddr, latestBytes(maddr));
    mcache_.clean(maddr);
    strategy_->onMetaUpdate(maddr);
}

void
MemoryEngine::writeThroughMany(const Addr *addrs, std::size_t n)
{
    if (n > 0)
        persistChainDepth_.add(static_cast<double>(n));
    // latestBytes is unaffected by persists of other metadata blocks,
    // so snapshotting the whole chunk up front and batching the MACs
    // is state-identical to n scalar writeThrough calls.
    while (n > 0) {
        const std::size_t chunk = std::min(n, kPersistBatch);
        Addr a[kPersistBatch];
        mem::Block bufs[kPersistBatch];
        const mem::Block *ptrs[kPersistBatch];
        for (std::size_t k = 0; k < chunk; ++k) {
            a[k] = blockAddr(blockOf(addrs[k]));
            ++*persistWrites_;
            bufs[k] = latestBytes(a[k]);
            ptrs[k] = &bufs[k];
        }
        persistBytesMany(a, ptrs, chunk);
        for (std::size_t k = 0; k < chunk; ++k) {
            mcache_.clean(a[k]);
            strategy_->onMetaUpdate(a[k]);
        }
        addrs += chunk;
        n -= chunk;
    }
}

std::vector<bmt::NodeRef>
MemoryEngine::pathOf(std::uint64_t counterIdx) const
{
    std::vector<bmt::NodeRef> path;
    pathOf(counterIdx, path);
    return path;
}

void
MemoryEngine::pathOf(std::uint64_t counterIdx,
                     std::vector<bmt::NodeRef> &out) const
{
    out.clear();
    bmt::NodeRef ref = map_.geometry().leafNodeOf(counterIdx);
    out.push_back(ref);
    while (ref.level > 1) {
        ref = bmt::Geometry::parentOf(ref);
        out.push_back(ref);
    }
}

void
MemoryEngine::flagViolation(const char *what, Addr addr)
{
    ++violations_;
    stats_.inc("violations");
    warn("integrity violation: %s at %llx", what,
         static_cast<unsigned long long>(addr));
}

const crypto::CryptoSuite &
MemoryEngine::dataSuite(Addr data_addr) const
{
    if (tenantCrypto_.empty())
        return crypto_;
    std::uint64_t idx = data_addr / tenantSliceBytes_;
    if (idx >= tenantCrypto_.size())
        idx = tenantCrypto_.size() - 1;
    return tenantCrypto_[idx];
}

crypto::MacRequest
MemoryEngine::dataMacRequest(Addr block, std::uint64_t major,
                             unsigned minor, const std::uint8_t *cipher)
{
    const std::uint64_t tweak = (block << 16) ^ (major << 7) ^ minor;
    if (cipher == nullptr)
        return {"", 0, tweak};
    return {cipher, kBlockSize, tweak};
}

std::uint64_t
MemoryEngine::dataMac(Addr addr, const std::uint8_t *cipher) const
{
    const Addr block = blockAddr(blockOf(addr));
    const std::uint64_t idx = map_.counterIndexOf(block);
    const bmt::CounterBlock &cb = tree_->counter(idx);
    const unsigned slot =
        static_cast<unsigned>(blockOf(block) % kBlocksPerPage);
    const crypto::MacRequest req =
        dataMacRequest(block, cb.major, cb.minors[slot], cipher);
    return dataSuite(block).hash->mac64(req.data, req.len, req.tweak);
}

void
MemoryEngine::updateHmacEntry(Addr addr)
{
    const Addr block = blockAddr(blockOf(addr));
    const Addr haddr = map_.hmacAddrOf(block);
    std::uint8_t cipher_buf[kBlockSize];
    const std::uint8_t *cipher = nullptr;
    if (config_.trackContents) {
        mem::Block c;
        nvm_->peek(block, c);
        std::memcpy(cipher_buf, c.data(), kBlockSize);
        cipher = cipher_buf;
    }
    auto [it, fresh] = hmacLatest_.try_emplace(haddr);
    if (fresh)
        nvm_->peek(haddr, it->second); // seed with persisted entries
    store64le(it->second.data() + mem::MemoryMap::hmacOffsetOf(block),
              dataMac(block, cipher));
}

Cycle
MemoryEngine::reencryptPage(std::uint64_t counterIdx)
{
    stats_.inc("overflow_reencrypts");
    const Addr page_base = counterIdx * kPageSize;
    const bmt::CounterBlock &cb = tree_->counter(counterIdx);

    // Gather the page's touched blocks (functional plane: only
    // ever-written blocks have plaintext to re-encrypt).
    Addr addrs[kBlocksPerPage];
    unsigned slots[kBlocksPerPage];
    const mem::Block *plains[kBlocksPerPage];
    std::size_t m = 0;
    for (std::uint64_t b = 0; b < kBlocksPerPage; ++b) {
        const Addr baddr = page_base + b * kBlockSize;
        if (config_.trackContents) {
            auto it = plaintext_.find(blockOf(baddr));
            if (it == plaintext_.end())
                continue; // never written: nothing to re-encrypt
            plains[m] = &it->second;
        } else {
            nvm_->touchRead(baddr);
            nvm_->touchWrite(baddr);
            plains[m] = nullptr;
        }
        addrs[m] = baddr;
        slots[m] = static_cast<unsigned>(b);
        ++m;
    }

    // Re-encrypt under the bumped counter: one batched pad generation
    // for the whole page, XORed into ciphertext in place.
    std::uint8_t ciphers[kBlocksPerPage * kBlockSize];
    if (config_.trackContents && m > 0) {
        crypto::PadRequest preqs[kBlocksPerPage];
        for (std::size_t k = 0; k < m; ++k)
            preqs[k] = {addrs[k], cb.major, cb.minors[slots[k]]};
        // The page lives in one tenant slice (slices are page-
        // aligned), so the whole burst uses one data suite.
        dataSuite(page_base).enc->padxN(preqs, m, ciphers);
        for (std::size_t k = 0; k < m; ++k) {
            std::uint8_t *c = ciphers + k * kBlockSize;
            const mem::Block &plain = *plains[k];
            for (std::size_t i = 0; i < kBlockSize; ++i)
                c[i] ^= plain[i];
            mem::Block out;
            std::memcpy(out.data(), c, kBlockSize);
            writeNvm(addrs[k], out);
        }
    }

    // HMAC entries for the page: one batched MAC burst.
    std::uint64_t macs[kBlocksPerPage];
    crypto::MacRequest mreqs[kBlocksPerPage];
    for (std::size_t k = 0; k < m; ++k)
        mreqs[k] = dataMacRequest(
            addrs[k], cb.major, cb.minors[slots[k]],
            config_.trackContents ? ciphers + k * kBlockSize : nullptr);
    dataSuite(page_base).hash->mac64xN(mreqs, m, macs);
    trace_.instant(obs::EventClass::CryptoBatch, m);
    for (std::size_t k = 0; k < m; ++k) {
        const Addr haddr = map_.hmacAddrOf(addrs[k]);
        auto [it, fresh] = hmacLatest_.try_emplace(haddr);
        if (fresh)
            nvm_->peek(haddr, it->second); // seed with persisted entries
        store64le(it->second.data() +
                      mem::MemoryMap::hmacOffsetOf(addrs[k]),
                  macs[k]);
    }

    // Persist every HMAC block of the page and the counter block:
    // the re-encryption must be atomic with the counter bump.
    Addr wt[kBlocksPerPage / kTreeArity + 1];
    for (std::uint64_t h = 0; h < kBlocksPerPage / kTreeArity; ++h)
        wt[h] = map_.hmacAddrOf(page_base + h * kTreeArity * kBlockSize);
    wt[kBlocksPerPage / kTreeArity] =
        map_.counterBase() + counterIdx * kBlockSize;
    writeThroughMany(wt, kBlocksPerPage / kTreeArity + 1);

    // Pipelined burst cost: reads and writes of the page stream.
    return static_cast<Cycle>(m / 8 + 1) *
           (config_.nvmReadCycles + config_.nvmWriteCycles);
}

Cycle
MemoryEngine::read(Addr addr, std::uint8_t *out)
{
    if (crashed_)
        panic("MEE read after crash without recovery");
    ++*dataReads_;
    const Addr block = blockAddr(blockOf(addr));
    const std::uint64_t counter_idx = map_.counterIndexOf(block);

    Cycle lat = config_.nvmReadCycles; // data fetch
    mem::Block cipher{};
    if (config_.trackContents)
        nvm_->readBlock(block, cipher);
    else
        nvm_->touchRead(block);

    const Addr haddr = map_.hmacAddrOf(block);
    // Only the contents check reads it; contains() moves no stat and
    // no LRU state, so skipping the scan changes no timing.
    const bool hmac_was_cached =
        config_.trackContents && mcache_.contains(haddr);

    unsigned misses = 0;
    Cycle hook = 0;
    hook += ensureCounterChain(counter_idx, misses);
    hook += ensureResident(haddr, misses);
    if (misses > 0) {
        // Ancestor addresses are all known up front, so the fetch
        // round is parallel; pad generation then serializes behind
        // the counter arrival.
        lat += config_.nvmReadCycles + config_.aesCycles;
    }
    lat += mcache_.hitLatency() + config_.hashCycles + hook;

    if (config_.trackContents) {
        const bmt::CounterBlock &cb = tree_->counter(counter_idx);
        const unsigned slot =
            static_cast<unsigned>(blockOf(block) % kBlocksPerPage);

        // The HMAC entry the hardware sees: the trusted on-chip copy
        // when the block was cached, the (attackable) NVM bytes when
        // it was just fetched.
        mem::Block hmac_block;
        if (hmac_was_cached) {
            hmac_block = latestBytes(haddr);
        } else {
            nvm_->peek(haddr, hmac_block);
        }
        const std::uint64_t stored = load64le(
            hmac_block.data() + mem::MemoryMap::hmacOffsetOf(block));

        // A block is untouched iff it was never written through this
        // engine; its counter entry and HMAC entry are still zero.
        // Untouched blocks must also read back as all-zero NVM: an
        // attacker writing a never-written block is caught here, not
        // silently masked by the zero-fill below.
        const bool untouched =
            plaintext_.find(blockOf(block)) == plaintext_.end();
        if (untouched) {
            if (!blockIsZero(cipher))
                flagViolation("untouched data", block);
        } else if (dataMac(block, cipher.data()) != stored) {
            flagViolation("data hmac", block);
        }

        if (out != nullptr) {
            if (untouched) {
                std::memset(out, 0, kBlockSize);
            } else {
                dataSuite(block).enc->xorPad(block, cb.major,
                                             cb.minors[slot],
                                             cipher.data(), out);
            }
        }
    }
    if (trace_.on()) {
        trace_.complete(obs::EventClass::Op, lat, addr, 0);
        trace_.advance(lat);
    }
    return lat;
}

Cycle
MemoryEngine::writeCommon(Addr addr, const std::uint8_t *data,
                          WriteContext &ctx)
{
    const Addr block = blockAddr(blockOf(addr));
    const std::uint64_t counter_idx = map_.counterIndexOf(block);
    ctx.dataAddr = block;
    ctx.counterIdx = counter_idx;

    const Addr counter_addr =
        map_.counterBase() + counter_idx * kBlockSize;
    const Addr leaf_node_addr =
        map_.nodeAddrOf(map_.geometry().leafNodeOf(counter_idx));
    const Addr haddr = map_.hmacAddrOf(block);

    unsigned misses = 0;
    Cycle hook = 0;
    hook += ensureCounterChain(counter_idx, misses);
    hook += ensureResident(leaf_node_addr, misses);
    hook += ensureResident(haddr, misses);
    Cycle lat = misses > 0 ? config_.nvmReadCycles : 0;
    lat += mcache_.hitLatency() + config_.hashCycles + hook;

    // Architectural update: bump the counter, refresh the hash path.
    bmt::CounterBlock cb = tree_->counter(counter_idx);
    const unsigned slot =
        static_cast<unsigned>(blockOf(block) % kBlocksPerPage);
    if (cb.increment(slot)) {
        cb.overflowReset();
        tree_->setCounter(counter_idx, cb);
        ctx.overflowed = true;
    } else {
        tree_->setCounter(counter_idx, cb);
    }

    // Data to NVM (ciphertext under the fresh counter).
    if (config_.trackContents) {
        if (data == nullptr)
            panic("functional MEE write without data");
        mem::Block &plain = plaintext_[blockOf(block)];
        std::memcpy(plain.data(), data, kBlockSize);
        mem::Block cipher;
        dataSuite(block).enc->xorPad(block, cb.major, cb.minors[slot],
                                     data, cipher.data());
        writeNvm(block, cipher);
    } else {
        nvm_->touchWrite(block);
    }

    if (ctx.overflowed) {
        lat += reencryptPage(counter_idx);
    } else {
        updateHmacEntry(block);
    }

    // Default lazy (write-back) marking; protocols may write through
    // afterwards, which cleans these lines again.
    markDirty(counter_addr);
    markDirty(leaf_node_addr);
    markDirty(haddr);

    // The on-chip root register tracks the architectural root. The
    // simulator computes its value on demand (rootRegister()) and
    // snapshots it at crash(): hashing the root node on every write
    // would model the same architecture at twice the hash cost.
    return lat;
}

Cycle
MemoryEngine::write(Addr addr, const std::uint8_t *data)
{
    if (crashed_)
        panic("MEE write after crash without recovery");
    ++*dataWrites_;
    WriteContext ctx;
    Cycle lat;
    {
        // The architectural update and the protocol's persist set are
        // one commit group: an injected crash fires before anything
        // mutates, so a suppressed write never happened at all (the
        // lazily computed NV root register stays consistent with NVM).
        fault::CommitScope commit(nvm_->faultDomain());
        lat = writeCommon(addr, data, ctx);
        lat += strategy_->persist(ctx);
    }
    // Deferred, non-atomic per-write work (crashable boundaries).
    lat += strategy_->postCommit(ctx);
    mcacheDirtyOccupancy_.add(
        static_cast<double>(mcache_.dirtyLines()));
    if (trace_.on()) {
        trace_.complete(obs::EventClass::Op, lat, addr, 1);
        trace_.advance(lat);
    }
    return lat;
}

void
MemoryEngine::crash()
{
    // The NV root register survives with its last written value;
    // latch it before the architectural tree becomes unreachable
    // (recovery rebuilds tree_ from NVM and compares against this).
    refreshRootRegister();
    // The protocol's crash hook runs while the metadata cache is
    // still inspectable (dirty-line latches) but after the root
    // register latched (Volatile zeroes it here).
    strategy_->onCrash();
    // Volatile on-chip state vanishes; NVM and NV registers survive.
    mcache_.invalidateAll();
    crashed_ = true;
    trace_.instant(obs::EventClass::Crash);
}

RecoveryReport
MemoryEngine::recover()
{
    return strategy_->recover();
}

void
MemoryEngine::rebuildAndVerify(RecoveryReport &report)
{
    trace_.begin(obs::EventClass::Recovery);
    tree_ = std::make_unique<bmt::TreeState>(map_, *crypto_.hash);
    const std::uint64_t root = tree_->rebuildFromNvm(*nvm_);

    report.countersRecovered = tree_->touchedCounters();
    report.nodesRecomputed = tree_->touchedNodes();
    // The rebuild streams counters in and writes each recomputed
    // level back before computing the next (paper section 6.7).
    report.blocksRead += report.countersRecovered +
                         report.nodesRecomputed;
    report.blocksWritten += report.nodesRecomputed;

    // Recomputed nodes become the new persisted state; MACs for the
    // whole rebuilt node set go out in batched bursts.
    std::vector<Addr> naddrs;
    std::vector<const mem::Block *> nblocks;
    naddrs.reserve(tree_->touchedNodes());
    nblocks.reserve(tree_->touchedNodes());
    tree_->forEachNode([&](bmt::NodeRef ref, const mem::Block &b) {
        naddrs.push_back(map_.nodeAddrOf(ref));
        nblocks.push_back(&b);
    });
    persistBytesMany(naddrs.data(), nblocks.data(), naddrs.size());

    // Restore architectural HMAC state from (persisted) NVM.
    hmacLatest_.clear();
    nvm_->forEachBlockIn(
        map_.hmacBase(), map_.treeBase(),
        [this](Addr a, const mem::Block &b) { hmacLatest_[a] = b; });

    report.success = root == rootRegister_;
    if (report.success)
        crashed_ = false;
    trace_.end(obs::EventClass::Recovery);
}

std::vector<Addr>
MemoryEngine::staleMetadataBlocks() const
{
    std::vector<Addr> stale;
    auto check = [this, &stale](Addr maddr, const mem::Block &latest) {
        mem::Block persisted;
        nvm_->peek(maddr, persisted);
        if (persisted != latest)
            stale.push_back(maddr);
    };
    tree_->forEachCounter(
        [this, &check](std::uint64_t idx, const bmt::CounterBlock &cb) {
            check(map_.counterBase() + idx * kBlockSize, cb.serialize());
        });
    tree_->forEachNode(
        [this, &check](bmt::NodeRef ref, const mem::Block &b) {
            check(map_.nodeAddrOf(ref), b);
        });
    for (const auto &kv : hmacLatest_)
        check(kv.first, kv.second);
    return stale;
}

double
MemoryEngine::recoveryMs(std::uint64_t blocks_read,
                         std::uint64_t blocks_written) const
{
    const double read_s =
        static_cast<double>(blocks_read * kBlockSize) /
        (nvm_->timing().readBandwidthGBs * 1e9);
    const double write_s =
        static_cast<double>(blocks_written * kBlockSize) /
        (nvm_->timing().writeBandwidthGBs * 1e9);
    return 1000.0 * std::max(read_s, write_s);
}

} // namespace amnt::mee
