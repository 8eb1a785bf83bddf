/**
 * @file
 * The secure-memory unit behind the LLC, as System, MemoryPipe and the
 * crash schedule see it. core::FlatMemory (one engine over one
 * device) and core::HybridEngine (AMNT over SCM plus a volatile BMT
 * over DRAM, paper section 7.3) implement it. Each has one
 * persistent-side engine on its own device: the flat unit's only
 * engine, or the hybrid's SCM side.
 */

#ifndef AMNT_MEE_SECURE_MEMORY_HH
#define AMNT_MEE_SECURE_MEMORY_HH

#include <cstdint>

#include "mee/engine.hh"

namespace amnt::mee
{

class SecureMemory
{
  public:
    virtual ~SecureMemory() = default;

    /** LLC read miss of block @p addr; returns latency. */
    virtual Cycle read(Addr addr, std::uint8_t *out = nullptr) = 0;

    /** Data write-back of block @p addr; returns latency. */
    virtual Cycle write(Addr addr, const std::uint8_t *data = nullptr) = 0;

    virtual void crash() = 0;
    virtual RecoveryReport recover() = 0;
    virtual std::uint64_t violations() const = 0;

    /** Attach fault injection to the persistence domain. */
    virtual void setFaultDomain(fault::FaultDomain *domain) = 0;

    /** Federate every engine and device under "mee.*" / "nvm.*". */
    virtual void registerStats(obs::StatRegistry &reg) = 0;

    /** The persistent-side engine, and its device. */
    virtual MemoryEngine &engine() = 0;
    virtual mem::NvmDevice &device() = 0;
};

} // namespace amnt::mee

#endif // AMNT_MEE_SECURE_MEMORY_HH
