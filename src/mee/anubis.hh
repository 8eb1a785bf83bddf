/**
 * @file
 * Anubis [Zubair & Awad, ISCA'19], the state-of-the-art the paper
 * compares against.
 *
 * Anubis "shadows" the metadata cache in NVM: a shadow-table entry
 * mirrors every cached metadata block, so after a crash exactly the
 * blocks that were (possibly dirty) on-chip can be restored and
 * repaired — recovery time is fixed by the cache size, not memory
 * size. The cost is the slow path the paper highlights: every
 * metadata-cache miss must persist a shadow-table update before the
 * fetched block may be used, and a single authentication can take
 * several misses. The shadow table is itself integrity-protected by a
 * small shadow Merkle tree that is held entirely on-chip (volatile)
 * with a non-volatile root, so it adds no extra runtime traffic.
 */

#ifndef AMNT_MEE_ANUBIS_HH
#define AMNT_MEE_ANUBIS_HH

#include <unordered_map>

#include "mee/protocol.hh"

namespace amnt::mee
{

/** Shadow-table metadata persistence. */
class AnubisStrategy : public ProtocolStrategy
{
  public:
    Protocol id() const override { return Protocol::Anubis; }

    CrashProfile
    crashProfile() const override
    {
        return {true, false,
                "shadow-table entry commit-atomic per cache "
                "insert/update; tree fully lazy (restored from "
                "shadow)"};
    }

    Cycle
    persist(const WriteContext &) override
    {
        // Tree updates are lazy (write-back); crash consistency comes
        // from the shadow table maintained by the hooks below.
        return 0;
    }

    Cycle
    onMetaInsert(Addr maddr) override
    {
        // Slow path: the shadow entry must be persisted before the
        // newly cached block can be trusted — one ordered NVM write
        // on the critical path per miss. The shadow write is a
        // persist op: crash-point instrumented, and suppressed
        // before the entry lands (the fetched block then simply was
        // never cached).
        faultPersistPoint();
        trace().instant(obs::EventClass::Persist, maddr, 1);
        shadow_[maddr] = latestBytes(maddr);
        stats().inc("shadow_writes");
        return config().nvmWriteCycles;
    }

    void
    onMetaUpdate(Addr maddr) override
    {
        // Updates to resident blocks refresh the shadow copy; these
        // are posted (coalesced in the write-pending queue).
        faultPersistPoint();
        trace().instant(obs::EventClass::Persist, maddr, 1);
        shadow_[maddr] = latestBytes(maddr);
        stats().inc("shadow_writes");
    }

    void
    onMetaEvict(Addr maddr, bool) override
    {
        // The block leaves the cache (its latest value is written
        // back by the generic path); drop the shadow entry. Runs
        // inside the eviction commit scope, atomic with the victim's
        // write-back (see MemoryEngine::handleEviction).
        faultPersistPoint();
        shadow_.erase(maddr);
        stats().inc("shadow_writes");
    }

    RecoveryReport recover() override;

    /** Shadow-table occupancy (bounded by metadata cache lines). */
    std::size_t shadowEntries() const { return shadow_.size(); }

  private:
    /**
     * The in-NVM shadow table: latest bytes of every metadata block
     * currently resident in the metadata cache. Survives crashes.
     */
    std::unordered_map<Addr, mem::Block> shadow_;
};

} // namespace amnt::mee

#endif // AMNT_MEE_ANUBIS_HH
