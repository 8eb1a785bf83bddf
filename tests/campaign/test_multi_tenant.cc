/**
 * Multi-tenant campaign conformance and isolation.
 *
 * Statistical conformance: with CampaignConfig::collectSamples the
 * campaign keeps every co-run latency sample per tenant, so the
 * reported percentiles can be validated two ways — against a
 * histogram rebuilt from the raw samples, and against the sorted
 * nearest-rank oracle from tests/obs/ (sorted[k-1] with
 * k = max(1, ceil(p/100 * N)), quantized to the campaign histogram's
 * bin geometry).
 *
 * Isolation: tenant A's key must never verify tenant B's lines. The
 * campaign's ciphertext-splice probe asserts it end-to-end; the
 * direct CryptoSuite check asserts the primitive underneath.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "campaign/campaign.hh"
#include "core/protocol_registry.hh"
#include "crypto/engines.hh"
#include "mee/protocol.hh"

namespace amnt
{
namespace
{

campaign::CampaignConfig
sampledConfig()
{
    campaign::CampaignConfig cfg;
    cfg.ops = 400;
    cfg.collectSamples = true;
    return cfg;
}

const campaign::CampaignReport &
sampledReport()
{
    static const campaign::CampaignReport report =
        campaign::runMultiTenant(sampledConfig());
    return report;
}

double
nearestRank(const Histogram &h, std::vector<double> sorted, double p)
{
    std::sort(sorted.begin(), sorted.end());
    const auto n = static_cast<double>(sorted.size());
    const auto k = static_cast<std::size_t>(
        std::max(1.0, std::ceil(p / 100.0 * n)));
    return h.quantize(sorted[k - 1]);
}

/** Row metrics round-trip through %.9g: compare at that precision. */
void
expectSerialized(double reported, double expect, const std::string &tag)
{
    EXPECT_NEAR(reported, expect, std::abs(expect) * 1e-8) << tag;
}

class MultiTenantConformance
    : public ::testing::TestWithParam<mee::Protocol>
{};

TEST_P(MultiTenantConformance, PercentilesMatchNearestRankOracle)
{
    const campaign::CampaignConfig cfg = sampledConfig();
    const campaign::ProtocolRow &row =
        sampledReport().row(GetParam());
    for (unsigned t = 0; t < cfg.tenants; ++t) {
        std::string tag = "t";
        tag += std::to_string(t);
        const std::vector<double> *raw = row.sampleSet(tag + "_co");
        ASSERT_NE(raw, nullptr) << tag << " kept no samples";
        ASSERT_EQ(raw->size(), cfg.ops) << tag;

        // Reported percentile == rebuilt histogram == sorted oracle.
        Histogram rebuilt = campaign::latencyHistogram();
        for (double v : *raw)
            rebuilt.add(v);
        expectSerialized(row.num(tag + "_co_p50"),
                         rebuilt.percentile(50.0), tag);
        expectSerialized(row.num(tag + "_co_p90"),
                         rebuilt.percentile(90.0), tag);
        expectSerialized(row.num(tag + "_co_p99"),
                         rebuilt.percentile(99.0), tag);
        expectSerialized(row.num(tag + "_co_p50"),
                         nearestRank(rebuilt, *raw, 50.0), tag);
        expectSerialized(row.num(tag + "_co_p99"),
                         nearestRank(rebuilt, *raw, 99.0), tag);
        EXPECT_EQ(static_cast<std::uint64_t>(row.num(tag + "_ops")),
                  raw->size())
            << tag;
    }
}

TEST_P(MultiTenantConformance, SpliceNeverVerifiesAcrossTenants)
{
    const campaign::ProtocolRow &row =
        sampledReport().row(GetParam());
    EXPECT_GT(row.num("splice_attempts"), 0.0)
        << "the isolation probe never ran";
    EXPECT_EQ(row.num("splice_detected"), row.num("splice_attempts"))
        << "a cross-tenant ciphertext splice verified";
    EXPECT_EQ(row.num("isolation_false_accepts"), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Registry, MultiTenantConformance,
    ::testing::ValuesIn(core::allProtocols()),
    [](const ::testing::TestParamInfo<mee::Protocol> &info) {
        return std::string(mee::protocolName(info.param));
    });

TEST(TenantKeys, CrossTenantMacNeverMatches)
{
    // The primitive under the splice probe: the same bytes MACed
    // under two tenants' suites (derived exactly as the campaign
    // derives them) must disagree for every block-sized tweak tried.
    const campaign::CampaignConfig cfg = sampledConfig();
    const auto a = crypto::CryptoSuite::make(
        crypto::CryptoPlane::Fast, campaign::tenantKeySeed(cfg, 0));
    const auto b = crypto::CryptoSuite::make(
        crypto::CryptoPlane::Fast, campaign::tenantKeySeed(cfg, 1));
    std::uint8_t block[kBlockSize];
    for (std::size_t i = 0; i < kBlockSize; ++i)
        block[i] = static_cast<std::uint8_t>(i * 37 + 11);
    for (std::uint64_t tweak = 0; tweak < 64; ++tweak)
        EXPECT_NE(a.hash->mac64(block, kBlockSize, tweak),
                  b.hash->mac64(block, kBlockSize, tweak))
            << "tenant keys collide at tweak " << tweak;
}

TEST(TenantKeys, EngineRejectsMisalignedSlices)
{
    // 2 MB cannot split into 3 page-aligned equal slices; the engine
    // must refuse the geometry rather than silently mis-slice.
    campaign::CampaignConfig cfg;
    cfg.tenants = 3;
    EXPECT_DEATH(
        { campaign::runMultiTenant(cfg); },
        "page-aligned equal slices");
}

TEST(MultiTenant, SlowdownMetricsPresentAndSane)
{
    const campaign::CampaignConfig cfg = sampledConfig();
    for (const campaign::ProtocolRow &row : sampledReport().rows) {
        for (unsigned t = 0; t < cfg.tenants; ++t) {
            std::string tag = "t";
            tag += std::to_string(t);
            EXPECT_GT(row.num(tag + "_solo_p50"), 0.0);
            EXPECT_GT(row.num(tag + "_p99_slowdown"), 0.0)
                << mee::protocolName(row.protocol) << " " << tag;
        }
        EXPECT_GT(row.num("co_mcache_hit_rate"), 0.0);
    }
}

} // namespace
} // namespace amnt
