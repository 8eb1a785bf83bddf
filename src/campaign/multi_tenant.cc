/**
 * @file
 * Multi-tenant interference campaign: several tenants co-scheduled
 * on one secure-memory engine, each with its own key domain
 * (MeeConfig::tenantKeySeeds) and page-aligned address partition,
 * each driving a different WorkloadKind generator.
 *
 * Per protocol:
 *  1. solo baselines — each tenant alone on a fresh engine for
 *     cfg.ops references: its un-contended latency distribution.
 *  2. co-run — round-robin across all tenants on one shared engine
 *     (cfg.ops references each): per-tenant latency percentiles, the
 *     p99 slowdown vs solo, and the shared metadata-cache hit rate.
 *  3. isolation probe — splice tenant i's ciphertext into tenant
 *     i+1's partition (byte-wise XOR via NvmDevice::tamper) and read
 *     it back as the victim: the per-tenant data MAC must flag every
 *     attempt, because tenant A's key never verifies tenant B's
 *     lines.
 */

#include <array>

#include "campaign/harness.hh"
#include "common/log.hh"

namespace amnt::campaign
{

namespace
{

struct TenantKind
{
    sim::WorkloadKind kind;
    const char *name;
};

/** Tenant personalities, cycled when cfg.tenants > 5. */
constexpr std::array<TenantKind, 5> kKinds{{
    {sim::WorkloadKind::Zipfian, "zipfian"},
    {sim::WorkloadKind::Stream, "stream"},
    {sim::WorkloadKind::Gups, "gups"},
    {sim::WorkloadKind::KeyValue, "kvstore"},
    {sim::WorkloadKind::PointerChase, "chase"},
}};

sim::WorkloadConfig
tenantWorkload(const CampaignConfig &cfg, std::uint64_t slice_bytes,
               unsigned tenant, std::uint64_t salt)
{
    const TenantKind &tk = kKinds[tenant % kKinds.size()];
    sim::WorkloadConfig w;
    w.name = tk.name;
    w.kind = tk.kind;
    w.footprintPages = slice_bytes / kPageSize;
    w.writeFraction = cfg.writeFraction;
    w.zipfAlpha = 0.9;
    w.spatialRun = 0.3;
    w.kvValueBlocks = 4;
    w.seed = salt ^ (7919ull * (tenant + 1));
    return w;
}

void
fillMultiTenant(mee::Protocol p, const CampaignConfig &cfg,
                ProtocolRow &row)
{
    const unsigned T = cfg.tenants;
    const std::uint64_t slice = cfg.dataBytes / T;
    const std::uint64_t salt = protoSalt(cfg, p);

    mee::MeeConfig m = baseMee(cfg);
    for (unsigned i = 0; i < T; ++i)
        m.tenantKeySeeds.push_back(tenantKeySeed(cfg, i));

    // Phase 1: solo baselines (same keyed config, one tenant active).
    std::vector<HistogramSummary> solo(T);
    for (unsigned i = 0; i < T; ++i) {
        Harness h(p, m);
        sim::Workload gen(tenantWorkload(cfg, slice, i, salt));
        Histogram lat = latencyHistogram();
        for (unsigned op = 0; op < cfg.ops; ++op)
            lat.add(static_cast<double>(
                h.access(gen.next(), i * slice, slice, salt)));
        solo[i] = lat.snapshot();
    }

    // Phase 2: co-run on one shared engine.
    Harness h(p, m);
    std::vector<std::unique_ptr<sim::Workload>> gens;
    gens.reserve(T);
    std::vector<Histogram> lats;
    std::vector<std::vector<double>> raw(T);
    std::vector<Addr> firstWrite(T, ~0ull);
    for (unsigned i = 0; i < T; ++i) {
        gens.push_back(std::make_unique<sim::Workload>(
            tenantWorkload(cfg, slice, i, salt)));
        lats.push_back(latencyHistogram());
    }
    for (unsigned op = 0; op < cfg.ops; ++op) {
        for (unsigned i = 0; i < T; ++i) {
            const sim::MemRef ref = gens[i]->next();
            const Addr paddr = Harness::place(ref.vaddr, i * slice,
                                              slice);
            if (ref.type == AccessType::Write &&
                firstWrite[i] == ~0ull)
                firstWrite[i] = paddr;
            const Cycle c = h.access(ref, i * slice, slice, salt);
            lats[i].add(static_cast<double>(c));
            if (cfg.collectSamples)
                raw[i].push_back(static_cast<double>(c));
        }
    }

    for (unsigned i = 0; i < T; ++i) {
        const HistogramSummary co = lats[i].snapshot();
        std::string t = "t";
        t += std::to_string(i);
        row.str(t + "_kind", kKinds[i % kKinds.size()].name);
        row.u64(t + "_ops", co.count);
        row.f64(t + "_solo_p50", solo[i].p50);
        row.f64(t + "_solo_p99", solo[i].p99);
        row.f64(t + "_co_p50", co.p50);
        row.f64(t + "_co_p90", co.p90);
        row.f64(t + "_co_p99", co.p99);
        row.f64(t + "_p99_slowdown",
                solo[i].p99 > 0.0 ? co.p99 / solo[i].p99 : 0.0);
        if (cfg.collectSamples)
            row.samples.emplace_back(t + "_co", std::move(raw[i]));
    }
    row.f64("co_mcache_hit_rate", h.engine().metaCache().hitRate());

    // Phase 3: cross-tenant ciphertext splice. Copy the attacker's
    // persisted ciphertext over the victim's block (byte-wise XOR via
    // tamper) and read it back under the victim's identity.
    std::uint64_t attempts = 0;
    std::uint64_t detected = 0;
    for (unsigned i = 0; i < T; ++i) {
        const unsigned j = (i + 1) % T;
        const Addr src = firstWrite[i];
        const Addr dst = firstWrite[j];
        if (src == ~0ull || dst == ~0ull)
            continue;
        mem::Block a{};
        mem::Block b{};
        h.device().peek(src, a);
        h.device().peek(dst, b);
        bool changed = false;
        for (std::size_t k = 0; k < kBlockSize; ++k) {
            const std::uint8_t mask =
                static_cast<std::uint8_t>(a[k] ^ b[k]);
            if (mask != 0)
                changed |= h.device().tamper(dst, k, mask);
        }
        if (!changed)
            continue;
        ++attempts;
        const std::uint64_t before = h.engine().violations();
        h.engine().read(dst);
        if (h.engine().violations() > before)
            ++detected;
    }
    row.u64("splice_attempts", attempts);
    row.u64("splice_detected", detected);
    row.u64("isolation_false_accepts", attempts - detected);
}

} // namespace

CampaignReport
runMultiTenant(const CampaignConfig &cfg)
{
    // Validate before the fan-out: a bad geometry is a caller error,
    // not a per-row condition.
    if (cfg.tenants == 0 ||
        cfg.dataBytes % (cfg.tenants * kPageSize) != 0)
        fatal("multi_tenant needs page-aligned equal slices: "
              "%llu bytes / %u tenants",
              static_cast<unsigned long long>(cfg.dataBytes),
              cfg.tenants);
    return runPerProtocol("multi_tenant", cfg, fillMultiTenant);
}

} // namespace amnt::campaign
