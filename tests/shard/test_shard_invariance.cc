/**
 * @file
 * Shard-invariance pins at the system level: the `--shards=N` lane
 * count is pure execution policy, so a full-system run — registry
 * dump included — must be byte-identical at shard counts 1, 2 and 4,
 * under any sweep thread count, and the checked-in campaign
 * artifacts must not move either. Also pins the AMNT_SHARDS
 * environment override and the engine()-on-sharded-system guard.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "sim/presets.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"

using namespace amnt;

namespace
{

/** Set/unset an environment variable for one scope. */
struct EnvScope
{
    EnvScope(const char *name, const char *value) : name_(name)
    {
        if (value != nullptr)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ~EnvScope() { ::unsetenv(name_); }
    const char *name_;
};

sim::SystemConfig
shardedConfig(mee::Protocol p, unsigned shards)
{
    sim::SystemConfig cfg = sim::SystemConfig::singleProgram(p);
    cfg.shards = shards;
    return cfg;
}

sim::WorkloadConfig
smallWorkload()
{
    sim::WorkloadConfig w = sim::parsecPreset("bodytrack");
    w.footprintPages = 256;
    return w;
}

} // namespace

TEST(ShardInvariance, SystemRunIsByteIdenticalAcrossShardCounts)
{
    std::string baseline_stats;
    sim::RunResult baseline{};
    for (unsigned shards : {1u, 2u, 4u}) {
        sim::System system(
            shardedConfig(mee::Protocol::Amnt, shards));
        EXPECT_EQ(system.engine().sliceCount(), 4u);
        system.addProcess(smallWorkload());
        const sim::RunResult res = system.run(20000, 5000);
        const std::string stats = system.statsJson();
        if (shards == 1) {
            baseline_stats = stats;
            baseline = res;
            EXPECT_NE(stats.find("mee.shard0"), std::string::npos);
            continue;
        }
        EXPECT_EQ(stats, baseline_stats) << "shards " << shards;
        EXPECT_EQ(res.cycles, baseline.cycles) << "shards " << shards;
        EXPECT_EQ(res.memReads, baseline.memReads);
        EXPECT_EQ(res.memWrites, baseline.memWrites);
        EXPECT_EQ(res.mcacheHitRate, baseline.mcacheHitRate);
        EXPECT_EQ(res.subtreeHitRate, baseline.subtreeHitRate);
        EXPECT_EQ(res.pageFaults, baseline.pageFaults);
    }
}

TEST(ShardInvariance, SweepStatsIdenticalAcrossShardsAndThreads)
{
    // 3 jobs differing only in lane count, swept at 1 and 8 worker
    // threads: all six statsJson documents must be one byte string.
    std::vector<sweep::Job> jobs;
    for (unsigned shards : {1u, 2u, 4u}) {
        sweep::Job job;
        job.config = shardedConfig(mee::Protocol::Leaf, shards);
        job.processes = {smallWorkload()};
        job.instructions = 20000;
        job.warmup = 5000;
        jobs.push_back(std::move(job));
    }
    std::string baseline;
    for (unsigned threads : {1u, 8u}) {
        const std::vector<sweep::Outcome> out =
            sweep::run(jobs, threads);
        ASSERT_EQ(out.size(), jobs.size());
        for (std::size_t i = 0; i < out.size(); ++i) {
            ASSERT_FALSE(out[i].statsJson.empty());
            if (baseline.empty())
                baseline = out[i].statsJson;
            EXPECT_EQ(out[i].statsJson, baseline)
                << "threads " << threads << " job " << i;
        }
    }
}

TEST(ShardInvariance, CampaignArtifactsImmuneToShardEnv)
{
    // Campaign reports drive protocol engines directly; AMNT_SHARDS
    // must not leak into them from the environment, at any worker
    // thread count — the checked-in results/campaign_*.json cannot
    // move when CI turns the sharded leg on.
    campaign::CampaignConfig cfg;
    cfg.ops = 400;
    cfg.crashAfter = 11;
    std::string baseline;
    for (const char *shards : {(const char *)nullptr, "1", "4"}) {
        EnvScope env("AMNT_SHARDS", shards);
        for (unsigned threads : {1u, 8u}) {
            campaign::CampaignConfig c = cfg;
            c.threads = threads;
            const std::string json =
                campaign::runCampaign("adversarial", c).toJson();
            if (baseline.empty())
                baseline = json;
            EXPECT_EQ(json, baseline)
                << "AMNT_SHARDS=" << (shards ? shards : "(unset)")
                << " threads " << threads;
        }
    }
}

TEST(ShardInvariance, EnvOverrideEnablesShardedModel)
{
    EnvScope env("AMNT_SHARDS", "2");
    sim::SystemConfig cfg =
        sim::SystemConfig::singleProgram(mee::Protocol::Leaf);
    ASSERT_EQ(cfg.shards, 0u); // config leaves it to the env
    sim::System system(cfg);
    EXPECT_EQ(system.engine().sliceCount(), 4u);
    EXPECT_EQ(system.amnt(), nullptr);
}

TEST(ShardInvariance, ShardedSystemServesTheSecureMemoryInterface)
{
    sim::System system(shardedConfig(mee::Protocol::Amnt, 1));
    system.addProcess(smallWorkload());
    system.run(5000, 1000);
    EXPECT_EQ(system.engine().sliceCount(), 4u);
    EXPECT_EQ(system.engine().violations(), 0u);
    EXPECT_EQ(system.amnt(), nullptr);
    std::uint64_t reads = 0;
    for (unsigned s = 0; s < 4; ++s)
        reads += system.engine().slice(s).stats().get("data_reads");
    EXPECT_GT(reads, 0u);
}
