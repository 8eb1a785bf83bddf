/**
 * @file
 * Hybrid SCM+DRAM secure memory (paper section 7.3).
 *
 * "AMNT abstracts well to a hybrid SCM-DRAM machine as it does not
 * require significant protocol or hardware changes. AMNT protects
 * SCM, and a traditional BMT protects DRAM. This solution only
 * requires an additional (volatile) register for the [DRAM] BMT and
 * knowledge at the memory controller of the SCM/DRAM physical address
 * partition."
 *
 * HybridEngine implements exactly that: one AMNT engine over the
 * persistent partition and one volatile write-back engine over the
 * DRAM partition, dispatched by physical address at the controller.
 * A crash loses the DRAM partition entirely (contents and metadata —
 * by definition) while the SCM partition recovers through AMNT.
 */

#ifndef AMNT_CORE_HYBRID_HH
#define AMNT_CORE_HYBRID_HH

#include <memory>

#include "core/amnt.hh"

namespace amnt::core
{

/** Construction parameters for the hybrid controller. */
struct HybridConfig
{
    std::uint64_t scmBytes = 1ull << 30;
    std::uint64_t dramBytes = 1ull << 30;
    mee::MeeConfig mee; ///< dataBytes fields are overridden per side
    Cycle dramReadCycles = 100;  ///< ~50 ns DRAM vs 305 ns PCM
    Cycle dramWriteCycles = 100;
};

/**
 * Address-partitioned secure memory controller:
 * [0, scmBytes) is persistent SCM under AMNT; [scmBytes,
 * scmBytes+dramBytes) is DRAM under the volatile scheme. The SCM
 * side is its persistent-side engine().
 */
class HybridEngine final : public mee::SecureMemory
{
  public:
    explicit HybridEngine(const HybridConfig &config);

    /** True iff @p addr falls in the persistent (SCM) partition. */
    bool
    isScm(Addr addr) const
    {
        return addr < config_.scmBytes;
    }

    /** Read/write one block; dispatches on the partition. */
    Cycle
    read(Addr addr, std::uint8_t *out = nullptr) override
    {
        return isScm(addr) ? scm_->read(addr, out)
                           : dram_->read(addr - config_.scmBytes, out);
    }
    Cycle
    write(Addr addr, const std::uint8_t *data = nullptr) override
    {
        return isScm(addr) ? scm_->write(addr, data)
                           : dram_->write(addr - config_.scmBytes, data);
    }

    /**
     * Power failure: DRAM loses everything (contents included); the
     * SCM side loses only its volatile metadata state.
     */
    void crash() override;

    /**
     * Recover the SCM partition through AMNT; the DRAM partition
     * already restarted empty with a fresh volatile tree at crash().
     */
    mee::RecoveryReport recover() override { return scm_->recover(); }

    std::uint64_t
    violations() const override
    {
        return scm_->violations() + dram_->violations();
    }

    /**
     * Only the SCM partition has a persistence domain: DRAM device
     * writes are not persist ops and enumerate no crash points.
     */
    void
    setFaultDomain(fault::FaultDomain *domain) override
    {
        scm_->setFaultDomain(domain);
    }

    /**
     * Federate the sides as "mee.scm.*"/"nvm.scm.*" and
     * "mee.dram.*"/"nvm.dram.*". The DRAM side is rebuilt at every
     * crash(), which re-registers it: its counters restart with it.
     */
    void registerStats(obs::StatRegistry &reg) override;

    mee::MemoryEngine &engine() override { return scm_->engine(); }
    mem::NvmDevice &device() override { return scm_->device(); }

  private:
    /** Build a fresh, empty DRAM side, as every boot does. */
    void bootDram();

    HybridConfig config_;
    std::unique_ptr<FlatMemory> scm_;
    std::unique_ptr<FlatMemory> dram_;
    obs::StatRegistry *registry_ = nullptr;
};

} // namespace amnt::core

#endif // AMNT_CORE_HYBRID_HH
