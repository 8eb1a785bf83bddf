#include "campaign/harness.hh"

#include "common/bitops.hh"
#include "common/log.hh"
#include "core/protocol_registry.hh"
#include "sim/sweep.hh"

namespace amnt::campaign
{

mee::MeeConfig
baseMee(const CampaignConfig &cfg)
{
    mee::MeeConfig m;
    m.dataBytes = cfg.dataBytes;
    m.trackContents = true; // functional plane: tamper checks are real
    m.keySeed = cfg.seed | 1;
    m.metaCache = {"mcache", cfg.metaCacheBytes, 4, 2};
    // Small-geometry protocol knobs, matching the crash matrix: the
    // adaptive protocols must actually adapt within a few thousand ops.
    m.osirisStopLoss = 4;
    m.amntSubtreeLevel = 3;
    m.amntInterval = 16;
    m.amntHistoryEntries = 16;
    m.bmfRootCacheEntries = 16;
    m.bmfInterval = 24;
    m.phoenixEpoch = 16;
    m.stitQueueDepth = 8;
    m.stitDrain = 2;
    return m;
}

std::uint64_t
protoSalt(const CampaignConfig &cfg, mee::Protocol p)
{
    return cfg.seed ^
           (0x5bd1e9955bd1e995ull * (static_cast<unsigned>(p) + 1));
}

mem::Block
patternBlock(Addr addr, std::uint64_t salt)
{
    mem::Block b;
    std::uint64_t x = addr * 0x9e3779b97f4a7c15ull ^ salt;
    for (std::size_t i = 0; i < kBlockSize; i += 8) {
        x ^= x >> 33;
        x *= 0xff51afd7ed558ccdull;
        x ^= x >> 29;
        store64le(b.data() + i, x);
    }
    return b;
}

Harness::Harness(mee::Protocol p, const mee::MeeConfig &mee_cfg)
    : protocol(p), mee(mee_cfg)
{
    rebuildFresh();
}

void
Harness::rebuildFresh()
{
    memory.reset();
    memory = std::make_unique<core::FlatMemory>(protocol, mee);
    // Compare every skipped fetch check with the check it skips.
    memory->engine().setFetchCrossCheck(true);
    memory->setFaultDomain(&domain);
    domain.startCounting();
}

Addr
Harness::place(Addr vaddr, Addr base, std::uint64_t span)
{
    return base + blockAddr(blockOf(vaddr)) % span;
}

Cycle
Harness::access(const sim::MemRef &ref, Addr base, std::uint64_t span,
                std::uint64_t salt)
{
    const Addr paddr = place(ref.vaddr, base, span);
    if (ref.type == AccessType::Write) {
        const mem::Block data = patternBlock(paddr, salt);
        return memory->write(paddr, data.data());
    }
    return memory->read(paddr);
}

CampaignReport
runPerProtocol(
    const char *name, const CampaignConfig &cfg,
    const std::function<void(mee::Protocol, const CampaignConfig &,
                             ProtocolRow &)> &fill)
{
    CampaignReport report;
    report.name = name;
    report.config = cfg;
    const std::vector<mee::Protocol> protocols =
        cfg.only ? std::vector<mee::Protocol>{*cfg.only}
                 : core::allProtocols();
    report.rows.resize(protocols.size());
    // Campaigns tamper and crash on purpose; the resulting violation
    // warnings are expected output. Quiet is process-global, so it is
    // set once around the whole fan-out, not per phase (toggling it
    // inside concurrently running rows would race).
    setQuiet(true);
    // Rows are independent simulations writing disjoint slots:
    // bit-identical at any worker count (the sweep contract).
    sweep::parallelFor(
        protocols.size(),
        [&](std::size_t i) {
            report.rows[i].protocol = protocols[i];
            fill(protocols[i], cfg, report.rows[i]);
        },
        cfg.threads);
    setQuiet(false);
    return report;
}

} // namespace amnt::campaign
