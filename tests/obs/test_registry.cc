/**
 * StatRegistry contract tests: duplicate dotted paths must panic at
 * registration, expanded-key collisions must panic at dump, the JSON
 * dump must be flat/sorted/stable, reset() must zero groups and
 * histograms in place (scalar probes are read-only views), remove()
 * must drop exactly one path subtree, and the
 * per-job snapshots the sweep runner captures must be bit-identical
 * at every AMNT_SWEEP_THREADS.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "obs/registry.hh"
#include "obs_test_util.hh"
#include "sim/presets.hh"
#include "sim/sweep.hh"

using namespace amnt;
using obstest::JsonValue;

namespace
{

TEST(StatRegistry, DuplicatePathPanics)
{
    obs::StatRegistry reg;
    StatGroup g1, g2;
    reg.addGroup("mee.mcache", &g1);
    EXPECT_DEATH(reg.addGroup("mee.mcache", &g2), "duplicate path");

    Histogram h(1.0, 10.0, 4);
    reg.addHistogram("mee.depth", &h);
    EXPECT_DEATH(reg.addHistogram("mee.depth", &h), "duplicate path");
    // Cross-kind clashes are duplicates too.
    EXPECT_DEATH(reg.addScalar("mee.depth", [] { return 0ull; }),
                 "duplicate path");
}

TEST(StatRegistry, ExpandedKeyCollisionPanicsAtDump)
{
    obs::StatRegistry reg;
    StatGroup g;
    g.inc("hits", 3);
    reg.addGroup("cache.l1", &g);
    // "cache.l1" + counter "hits" expands to the same key.
    reg.addScalar("cache.l1.hits", [] { return 7ull; });
    EXPECT_DEATH(reg.dumpJson(), "key collision");
}

TEST(StatRegistry, RemoveDropsOnlyThePrefixSubtree)
{
    obs::StatRegistry reg;
    StatGroup side, sibling;
    side.inc("writes", 2);
    sibling.inc("writes", 5);
    reg.addGroup("mee.dram", &side);
    reg.addScalar("mee.dram.violations", [] { return 0ull; });
    reg.addGroup("mee.dramx", &sibling);
    reg.remove("mee.dram");
    EXPECT_EQ(reg.dumpJson(), "{\n  \"mee.dramx.writes\": 5\n}");
    // The freed paths can be claimed again.
    reg.addGroup("mee.dram", &side);
    EXPECT_NE(reg.dumpJson().find("\"mee.dram.writes\": 2"),
              std::string::npos);
}

TEST(StatRegistry, DumpIsFlatSortedAndStable)
{
    obs::StatRegistry reg;
    StatGroup mcache;
    mcache.inc("hits", 41);
    mcache.inc("misses", 7);
    Histogram depth(1.0, 100.0, 8, Histogram::Scale::Log);
    depth.add(2.0);
    depth.add(3.0);
    depth.add(500.0);
    std::uint64_t device_writes = 99;

    // Registration order is deliberately not path order.
    reg.addScalar("nvm.writes", [&] { return device_writes; });
    reg.addHistogram("mee.persist_chain_depth", &depth);
    reg.addGroup("mee.mcache", &mcache);
    ASSERT_FALSE(reg.empty());

    const std::string dump = reg.dumpJson();
    EXPECT_EQ(dump, reg.dumpJson()) << "dump must be reproducible";

    JsonValue doc;
    ASSERT_NO_THROW(doc = obstest::parseJson(dump));
    ASSERT_TRUE(doc.isObject());

    // Flat, and keys come back in sorted order.
    std::vector<std::string> keys;
    for (const auto &kv : doc.members)
        keys.push_back(kv.first);
    const std::vector<std::string> want = {
        "mee.mcache.hits",
        "mee.mcache.misses",
        "mee.persist_chain_depth",
        "nvm.writes",
    };
    EXPECT_EQ(keys, want);

    EXPECT_EQ(doc.at("mee.mcache.hits").number, 41.0);
    EXPECT_EQ(doc.at("mee.mcache.misses").number, 7.0);
    EXPECT_EQ(doc.at("nvm.writes").number, 99.0);

    const JsonValue &h = doc.at("mee.persist_chain_depth");
    ASSERT_TRUE(h.isObject());
    for (const char *key : {"count", "mean", "p50", "p95", "p99",
                            "underflow", "overflow"})
        EXPECT_TRUE(h.has(key)) << key;
    EXPECT_EQ(h.at("count").number, 3.0);
    EXPECT_EQ(h.at("overflow").number, 1.0);
    // Doubles travel as "%.9g"; compare after the same round-trip.
    char p50[64];
    std::snprintf(p50, sizeof(p50), "%.9g", depth.percentile(50.0));
    EXPECT_EQ(h.at("p50").number, std::strtod(p50, nullptr));

    // Scalar probes are evaluated live at every dump.
    device_writes = 100;
    const JsonValue redump = obstest::parseJson(reg.dumpJson());
    EXPECT_EQ(redump.at("nvm.writes").number, 100.0);
}

TEST(StatRegistry, ResetZeroesGroupsAndHistogramsInPlace)
{
    obs::StatRegistry reg;
    StatGroup g;
    g.inc("hits", 5);
    Histogram h(1.0, 100.0, 8);
    h.add(42.0);
    std::uint64_t probe = 1234;
    reg.addGroup("mee.mcache", &g);
    reg.addHistogram("mee.depth", &h);
    reg.addScalar("nvm.reads", [&] { return probe; });

    reg.reset();

    // Matches StatGroup::reset — names survive at value zero — and
    // the components themselves were reset (non-owning, in place).
    EXPECT_EQ(g.get("hits"), 0u);
    EXPECT_EQ(h.count(), 0u);

    const JsonValue doc = obstest::parseJson(reg.dumpJson());
    EXPECT_EQ(doc.at("mee.mcache.hits").number, 0.0);
    EXPECT_EQ(doc.at("mee.depth").at("count").number, 0.0);
    // Scalar probes are views; reset must not touch the component.
    EXPECT_EQ(doc.at("nvm.reads").number, 1234.0);
}

TEST(StatRegistry, SweepSnapshotsAreThreadCountInvariant)
{
    std::vector<sweep::Job> jobs;
    for (mee::Protocol p :
         {mee::Protocol::Leaf, mee::Protocol::Amnt}) {
        sim::WorkloadConfig w = sim::parsecPreset("bodytrack");
        w.footprintPages = 256;
        sweep::Job job;
        job.config = sim::SystemConfig::singleProgram(p);
        job.processes = {w};
        job.instructions = 10000;
        job.warmup = 2000;
        jobs.push_back(std::move(job));
    }

    const std::vector<sweep::Outcome> serial = sweep::run(jobs, 1);
    ASSERT_EQ(serial.size(), jobs.size());
    for (const auto &o : serial) {
        ASSERT_FALSE(o.statsJson.empty());
        // Snapshots are well-formed JSON with the federated paths.
        JsonValue doc;
        ASSERT_NO_THROW(doc = obstest::parseJson(o.statsJson));
        EXPECT_TRUE(doc.has("nvm.writes"));
        EXPECT_TRUE(doc.has("core0.mem_reads"));
        EXPECT_TRUE(doc.has("mee.persist_chain_depth"));
    }

    for (unsigned threads : {2u, 4u}) {
        const std::vector<sweep::Outcome> parallel =
            sweep::run(jobs, threads);
        ASSERT_EQ(parallel.size(), jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            EXPECT_EQ(serial[i].statsJson, parallel[i].statsJson)
                << "job " << i << " at " << threads << " threads";
        }
    }
}

} // namespace
