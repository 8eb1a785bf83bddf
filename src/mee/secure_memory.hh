/**
 * @file
 * The secure-memory unit behind the LLC, as System, the sweep and the
 * crash schedule see it. core::FlatMemory (one engine over one
 * device), core::HybridEngine (AMNT over SCM plus a volatile BMT over
 * DRAM, paper section 7.3) and shard::ShardedEngine (epoch-batched
 * slices, DESIGN.md §15) implement it. A unit has sliceCount()
 * persistent-side engines, each on its own device: one for flat and
 * hybrid units (the hybrid's SCM side), one per slice when sharded.
 */

#ifndef AMNT_MEE_SECURE_MEMORY_HH
#define AMNT_MEE_SECURE_MEMORY_HH

#include <cstdint>
#include <vector>

#include "mee/engine.hh"

namespace amnt::mee
{

class SecureMemory
{
  public:
    virtual ~SecureMemory() = default;

    /** LLC read miss of block @p addr from @p core; returns latency. */
    virtual Cycle read(Addr addr, std::uint8_t *out = nullptr,
                       unsigned core = 0) = 0;

    /** Data write-back of block @p addr from @p core. */
    virtual Cycle write(Addr addr, const std::uint8_t *data = nullptr,
                        unsigned core = 0) = 0;

    /** Apply and commit everything buffered. */
    virtual void flush() {}

    /** Add latencies accrued off the call path to @p per_core. */
    virtual void harvestLatencies(std::vector<Cycle> &) {}

    virtual void crash() = 0;
    virtual RecoveryReport recover() = 0;
    virtual std::uint64_t violations() const = 0;

    /** Attach fault injection to the persistence domain. */
    virtual void setFaultDomain(fault::FaultDomain *domain) = 0;

    /** Federate every engine and device under "mee.*" / "nvm.*". */
    virtual void registerStats(obs::StatRegistry &reg) = 0;

    virtual unsigned sliceCount() const { return 1; }

    /** Persistent-side engine of slice @p s, and its device. */
    virtual MemoryEngine &slice(unsigned s) = 0;
    virtual mem::NvmDevice &sliceDevice(unsigned s) = 0;
};

} // namespace amnt::mee

#endif // AMNT_MEE_SECURE_MEMORY_HH
