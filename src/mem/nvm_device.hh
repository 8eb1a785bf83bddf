/**
 * @file
 * Non-volatile (storage-class) main-memory device model.
 *
 * Models the persistence domain of a DDR-based PCM part (Table 1:
 * 305 ns reads, 391 ns writes): any block written here survives
 * crash(); anything held only in on-chip volatile structures does not.
 * Contents are stored sparsely so terabyte-scale address spaces can be
 * simulated with memory proportional to the touched footprint.
 *
 * The device also provides the attack surface of the threat model:
 * tamper() lets tests flip persisted bytes the way a physical attacker
 * with access to the DIMM would.
 */

#ifndef AMNT_MEM_NVM_DEVICE_HH
#define AMNT_MEM_NVM_DEVICE_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>

#include "common/bitops.hh"
#include "common/flat_map.hh"
#include "common/log.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "fault/fault.hh"

namespace amnt::obs
{
class StatRegistry;
}

namespace amnt::mem
{

/** One 64 B memory block. */
using Block = std::array<std::uint8_t, kBlockSize>;

/** Timing parameters of the device (Table 1 defaults at 2 GHz). */
struct NvmTiming
{
    Cycle readCycles = 610;        ///< 305 ns at 2 GHz.
    Cycle writeCycles = 782;       ///< 391 ns at 2 GHz.
    double readBandwidthGBs = 12.0;  ///< recovery-time model (6 DIMMs).
    double writeBandwidthGBs = 12.0; ///< recovery-time model.
};

/**
 * A writer that skips work while every byte on its device is its own
 * (mee::MemoryEngine defers its persist MACs, DESIGN.md §8). A device
 * has at most one attached; it is told once, right before the first
 * content change it did not make lands, and is detached by then.
 */
class DeferringWriter
{
  public:
    /**
     * Called before a tamper or a writeBlock by anyone else changes
     * the store: the device still holds exactly what this writer
     * wrote.
     */
    virtual void beforeForeignChange() = 0;

  protected:
    ~DeferringWriter() = default;
};

/**
 * Sparse, block-granular non-volatile store. Blocks never written
 * read as zero. Every access updates traffic statistics, which the
 * benches report as NVM read/write traffic.
 */
class NvmDevice
{
  public:
    /** @param capacity Device capacity in bytes (block aligned). */
    explicit NvmDevice(std::uint64_t capacity,
                       const NvmTiming &timing = NvmTiming());

    /** Device capacity in bytes. */
    std::uint64_t capacity() const { return capacity_; }

    /** Timing parameters. */
    const NvmTiming &timing() const { return timing_; }

    /** Read the block containing @p addr into @p out. */
    void
    readBlock(Addr addr, Block &out)
    {
        checkAddr(addr);
        ++reads_;
        auto it = store_.find(blockOf(addr));
        if (it == store_.end())
            out.fill(0);
        else
            out = it->second;
    }

    /** Write @p data to the block containing @p addr (persists). */
    void
    writeBlock(Addr addr, const Block &data)
    {
        writeBlockAs(nullptr, addr, data);
    }

    /**
     * writeBlock on behalf of @p writer: a foreign change unless
     * @p writer is the attached deferring writer.
     */
    void
    writeBlockAs(const DeferringWriter *writer, Addr addr,
                 const Block &data)
    {
        checkAddr(addr);
        // Persist-op boundary: an injected crash suppresses this
        // write, leaving the previous durable contents in place.
        if (fault_ != nullptr)
            fault_->persistPoint();
        if (deferring_ != nullptr && deferring_ != writer)
            foreignChange();
        ++writes_;
        ++mutations_;
        // try_emplace + assign: fresh blocks are value-initialized
        // then overwritten, existing blocks take one probe total.
        store_.try_emplace(blockOf(addr)).first->second = data;
    }

    /** Read contents without generating device traffic (model use). */
    void
    peek(Addr addr, Block &out) const
    {
        checkAddr(addr);
        auto it = store_.find(blockOf(addr));
        if (it == store_.end())
            out.fill(0);
        else
            out = it->second;
    }

    /**
     * Account a read without touching contents (timing plane).
     * Content-free and content-full paths share the same statistics.
     */
    void
    touchRead(Addr addr)
    {
        checkAddr(addr);
        ++reads_;
    }

    /** Account a write without touching contents (timing plane). */
    void
    touchWrite(Addr addr)
    {
        checkAddr(addr);
        if (fault_ != nullptr)
            fault_->persistPoint();
        ++writes_;
    }

    /**
     * Simulate a physical attack: XOR @p mask into byte @p offset of
     * the block containing @p addr. A never-written (still all-zero)
     * block is registered in the store by the attack, so every
     * persisted-state scan (recovery sweeps, forEachBlockIn) sees the
     * tampered block exactly like one the engine had persisted — the
     * attacker's write is indistinguishable from a stale persist.
     * @p mask must be non-zero (a zero mask would "touch" the block
     * without modifying it, which no physical attack does).
     * Returns false when the block had never been written.
     */
    bool tamper(Addr addr, std::size_t offset, std::uint8_t mask);

    /**
     * Crash: non-volatile contents are retained by definition. This
     * only snapshots traffic counters so recovery traffic can be
     * reported separately.
     */
    void crash();

    /** Reads since construction. */
    std::uint64_t reads() const { return reads_; }

    /** Writes since construction. */
    std::uint64_t writes() const { return writes_; }

    /**
     * Content changes since construction: one per landed writeBlock
     * and tamper. A crash-suppressed write, touchWrite and every read
     * leave it alone. An engine built on a device with no mutations defers its
     * integrity work until someone else changes it (DESIGN.md §8).
     */
    std::uint64_t mutations() const { return mutations_; }

    /**
     * Attach @p writer as the device's deferring writer. Returns
     * false, attaching nothing, when another writer is attached.
     */
    bool attachDeferringWriter(DeferringWriter &writer);

    /** Detach @p writer; a no-op when it is not attached. */
    void detachDeferringWriter(const DeferringWriter &writer);

    /** The attached deferring writer, nullptr when none. */
    const DeferringWriter *
    deferringWriter() const
    {
        return deferring_;
    }

    /** Number of distinct blocks ever written. */
    std::uint64_t blocksTouched() const { return store_.size(); }

    /**
     * Register traffic probes (`<prefix>.reads`, `.writes`,
     * `.blocks_touched`) with a stats registry (obs/registry.hh).
     */
    void registerStats(obs::StatRegistry &reg,
                       const std::string &prefix) const;

    /**
     * Attach (or detach, with nullptr) a fault-injection domain.
     * Every writeBlock/touchWrite then reports a persist-op boundary
     * to it; disarmed domains are inert (see fault/fault.hh).
     */
    void setFaultDomain(fault::FaultDomain *domain) { fault_ = domain; }

    /** Attached fault domain, nullptr when un-instrumented. */
    fault::FaultDomain *faultDomain() const { return fault_; }

    /**
     * Visit every block ever written whose first byte address lies in
     * [lo, hi). Visitation order is unspecified. Used by recovery
     * scans; does not count as device traffic (callers account the
     * traffic they would generate explicitly).
     */
    void forEachBlockIn(
        Addr lo, Addr hi,
        const std::function<void(Addr, const Block &)> &visitor) const;

  private:
    /** Detach the deferring writer, then tell it (see DeferringWriter). */
    void foreignChange();

    void
    checkAddr(Addr addr) const
    {
        if (addr >= capacity_)
            panic("NVM access beyond capacity: %llx >= %llx",
                  static_cast<unsigned long long>(addr),
                  static_cast<unsigned long long>(capacity_));
    }

    std::uint64_t capacity_;
    NvmTiming timing_;
    FlatMap<BlockId, Block> store_;
    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
    std::uint64_t mutations_ = 0;
    fault::FaultDomain *fault_ = nullptr;
    DeferringWriter *deferring_ = nullptr;
};

} // namespace amnt::mem

#endif // AMNT_MEM_NVM_DEVICE_HH
