/**
 * @file
 * Internal plumbing shared by the campaign suites: an engine-level
 * driver (one core::FlatMemory + FaultDomain per protocol row, in
 * the style of fault/crash_schedule.cc's Harness) plus the
 * deterministic write-pattern and per-protocol seed helpers.
 */

#ifndef AMNT_CAMPAIGN_HARNESS_HH
#define AMNT_CAMPAIGN_HARNESS_HH

#include <functional>
#include <memory>

#include "campaign/campaign.hh"
#include "core/amnt.hh"
#include "fault/fault.hh"
#include "sim/workload.hh"

namespace amnt::campaign
{

/** Base MeeConfig every campaign engine starts from. */
mee::MeeConfig baseMee(const CampaignConfig &cfg);

/** Per-protocol seed salt: row results are independent of which
 *  other protocols run (CampaignConfig::only must not change rows). */
std::uint64_t protoSalt(const CampaignConfig &cfg, mee::Protocol p);

/** Deterministic plaintext for a write to @p addr. */
mem::Block patternBlock(Addr addr, std::uint64_t salt);

/**
 * One protocol's simulator for a campaign row: a fault domain in
 * Counting mode (so armAfter can crash mid-workload) and the flat
 * memory it watches. rebuildFresh() models a cold service restart
 * after an unrecoverable crash (the volatile baseline's contract:
 * data gone, fresh device, fresh engine).
 */
struct Harness
{
    Harness(mee::Protocol p, const mee::MeeConfig &mee_cfg);

    /** Map a generator vaddr into [base, base+span), block-aligned. */
    static Addr place(Addr vaddr, Addr base, std::uint64_t span);

    /**
     * Issue one reference against the engine; returns the simulated
     * latency. Writes carry patternBlock(paddr, salt). May throw
     * fault::CrashInjected while the domain is armed.
     */
    Cycle access(const sim::MemRef &ref, Addr base, std::uint64_t span,
                 std::uint64_t salt);

    /** Tear down and rebuild device + engine from scratch. */
    void rebuildFresh();

    mee::MemoryEngine &engine() { return memory->engine(); }
    mem::NvmDevice &device() { return memory->device(); }

    mee::Protocol protocol;
    mee::MeeConfig mee;
    fault::FaultDomain domain;
    std::unique_ptr<core::FlatMemory> memory;
};

/**
 * Shared runner: one row per registry protocol (or cfg.only),
 * computed on independent simulators via sweep::parallelFor with
 * cfg.threads workers, assembled in registry order.
 */
CampaignReport runPerProtocol(
    const char *name, const CampaignConfig &cfg,
    const std::function<void(mee::Protocol, const CampaignConfig &,
                             ProtocolRow &)> &fill);

} // namespace amnt::campaign

#endif // AMNT_CAMPAIGN_HARNESS_HH
