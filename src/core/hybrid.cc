#include "core/hybrid.hh"

#include "common/log.hh"
#include "obs/registry.hh"

namespace amnt::core
{

HybridEngine::HybridEngine(const HybridConfig &config) : config_(config)
{
    if (config.scmBytes == 0 || config.dramBytes == 0)
        fatal("hybrid machine needs both partitions");
    mee::MeeConfig scm_cfg = config.mee;
    scm_cfg.dataBytes = config.scmBytes;
    scm_ = std::make_unique<FlatMemory>(mee::Protocol::Amnt, scm_cfg);
    bootDram();
}

void
HybridEngine::bootDram()
{
    mee::MeeConfig dram_cfg = config_.mee;
    dram_cfg.dataBytes = config_.dramBytes;
    dram_cfg.nvmReadCycles = config_.dramReadCycles;
    dram_cfg.nvmWriteCycles = config_.dramWriteCycles;
    // Independent keys per partition.
    dram_cfg.keySeed = config_.mee.keySeed ^ 0xd7a3ULL;
    dram_ = std::make_unique<FlatMemory>(
        mee::Protocol::Volatile, dram_cfg,
        mem::NvmTiming{config_.dramReadCycles, config_.dramWriteCycles,
                       25.0, 25.0});
    if (registry_ != nullptr)
        dram_->registerStats(*registry_, ".dram");
}

void
HybridEngine::crash()
{
    scm_->crash();
    // DRAM is volatile: device contents themselves are gone. Model
    // the loss by replacing device and engine wholesale, as a reboot
    // re-initializes the volatile tree from scratch.
    if (registry_ != nullptr)
        for (const char *side : {"mee.dram", "host.mee.dram", "nvm.dram"})
            registry_->remove(side);
    bootDram();
}

void
HybridEngine::registerStats(obs::StatRegistry &reg)
{
    scm_->registerStats(reg, ".scm");
    dram_->registerStats(reg, ".dram");
    registry_ = &reg;
}

} // namespace amnt::core
