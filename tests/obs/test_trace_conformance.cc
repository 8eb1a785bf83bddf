/**
 * Trace-conformance suite (DESIGN.md §11): the Chrome trace_event
 * JSON exported via AMNT_TRACE must be schema-valid (required keys on
 * every record, nondecreasing ts per track, balanced Begin/End pairs),
 * the AMNT_TRACE_CAP ring bound must hold, one event of every class
 * the workload exercises must appear, and — the zero-cost rule —
 * a traced run must produce bit-identical simulated results to an
 * untraced run of the same seed.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "mee/mee_test_util.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "obs_test_util.hh"

using namespace amnt;
using obstest::JsonValue;

namespace
{

/** 2 MB protected data -> 512 counters; level-2 subtree = 8 regions
 * of 64 counters, so shifting the hot set forces subtree movements. */
mee::MeeConfig
amntConfig()
{
    mee::MeeConfig cfg = test::smallConfig();
    cfg.dataBytes = 2ull << 20;
    cfg.amntSubtreeLevel = 2;
    cfg.amntInterval = 64;
    return cfg;
}

/**
 * Deterministic workload that touches every traced subsystem: hammers
 * region 0, migrates the hot set to region 3 (subtree movements),
 * rereads (mcache hits/misses/evictions, BMT walks), then optionally
 * crashes and recovers.
 */
void
runWorkload(mee::MemoryEngine &e, bool crash_and_recover)
{
    Rng rng(0x7ace);
    for (int i = 0; i < 300; ++i) {
        const Addr page = rng.below(64) * kPageSize;
        test::writePattern(e, page + rng.below(4) * kBlockSize, i);
    }
    for (int i = 0; i < 300; ++i) {
        const Addr page = (192 + rng.below(64)) * kPageSize;
        test::writePattern(e, page + rng.below(4) * kBlockSize,
                           1000 + i);
    }
    std::uint8_t buf[kBlockSize];
    for (int i = 0; i < 200; ++i)
        e.read(rng.below(512) * kPageSize, buf);
    if (crash_and_recover) {
        e.crash();
        const auto report = e.recover();
        ASSERT_TRUE(report.success);
    }
}

/** Structural validation of one exported Chrome trace document. */
struct TraceCheck
{
    std::set<std::string> names;
    std::map<double, std::size_t> perTrackEvents;
    double droppedEvents = 0.0;

    void
    validate(const JsonValue &doc)
    {
        ASSERT_TRUE(doc.isObject());
        ASSERT_TRUE(doc.has("traceEvents"));
        ASSERT_TRUE(doc.has("displayTimeUnit"));
        ASSERT_TRUE(doc.has("otherData"));
        droppedEvents =
            doc.at("otherData").at("dropped_events").number;

        const JsonValue &events = doc.at("traceEvents");
        ASSERT_TRUE(events.isArray());

        struct Track
        {
            bool seen = false;
            double lastTs = 0.0;
            int depth = 0;
        };
        std::map<double, Track> tracks;

        for (const JsonValue &e : events.items) {
            ASSERT_TRUE(e.isObject());
            for (const char *key :
                 {"name", "cat", "ph", "ts", "pid", "tid"}) {
                ASSERT_TRUE(e.has(key))
                    << "record missing required key " << key;
            }
            ASSERT_TRUE(e.at("name").isString());
            ASSERT_TRUE(e.at("ts").isNumber());
            const std::string ph = e.at("ph").text;
            ASSERT_TRUE(ph == "i" || ph == "B" || ph == "E" ||
                        ph == "X")
                << "unknown phase " << ph;
            if (ph == "X") {
                ASSERT_TRUE(e.has("dur"));
            }

            names.insert(e.at("name").text);
            const double tid = e.at("tid").number;
            Track &t = tracks[tid];
            ++perTrackEvents[tid];

            const double ts = e.at("ts").number;
            if (t.seen) {
                ASSERT_GE(ts, t.lastTs)
                    << "ts regressed on track " << tid;
            }
            t.seen = true;
            t.lastTs = ts;

            if (ph == "B") {
                ++t.depth;
            } else if (ph == "E") {
                --t.depth;
                ASSERT_GE(t.depth, 0)
                    << "orphaned End on track " << tid;
            }
        }
        for (const auto &kv : tracks) {
            EXPECT_EQ(kv.second.depth, 0)
                << "unbalanced Begin on track " << kv.first;
        }
    }
};

class TraceConformance : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        ::unsetenv("AMNT_TRACE");
        ::unsetenv("AMNT_TRACE_CAP");
        // enabled() turns false, so the atexit export later no-ops.
        obs::TraceSession::global().reconfigure();
    }

    /** Point the session at a fresh file (and cap) for this test. */
    std::string
    enableTrace(const char *name, std::size_t cap = 0)
    {
        const std::string path = ::testing::TempDir() + name;
        ::setenv("AMNT_TRACE", path.c_str(), 1);
        if (cap > 0)
            ::setenv("AMNT_TRACE_CAP", std::to_string(cap).c_str(), 1);
        else
            ::unsetenv("AMNT_TRACE_CAP");
        obs::TraceSession::global().reconfigure();
        return path;
    }
};

TEST_F(TraceConformance, ExportedTraceIsSchemaValid)
{
    const std::string path = enableTrace("amnt_conformance.json");
    ASSERT_TRUE(obs::TraceSession::global().enabled());

    test::Rig rig(mee::Protocol::Amnt, amntConfig());
    ASSERT_TRUE(rig.engine->tracer().on());
    runWorkload(*rig.engine, true);
    obs::TraceSession::global().exportNow();

    JsonValue doc;
    ASSERT_NO_THROW(doc = obstest::parseJson(obstest::readFile(path)));
    TraceCheck check;
    check.validate(doc);
    if (::testing::Test::HasFatalFailure())
        return;

    // Every class this workload exercises must show up at least once.
    for (const char *cls :
         {"op", "persist", "mcache_hit", "mcache_miss",
          "mcache_evict", "bmt_walk", "subtree_move", "crypto_batch",
          "crash", "recovery"}) {
        EXPECT_TRUE(check.names.count(cls))
            << "no '" << cls << "' event in exported trace";
    }
    EXPECT_EQ(check.perTrackEvents.size(), 1u);
}

TEST_F(TraceConformance, RingCapIsHonored)
{
    constexpr std::size_t kCap = 64;
    const std::string path = enableTrace("amnt_cap.json", kCap);
    ASSERT_EQ(obs::TraceSession::global().cap(), kCap);

    test::Rig rig(mee::Protocol::Amnt, amntConfig());
    runWorkload(*rig.engine, true);
    obs::TraceSession::global().exportNow();

    JsonValue doc;
    ASSERT_NO_THROW(doc = obstest::parseJson(obstest::readFile(path)));
    TraceCheck check;
    check.validate(doc);
    if (::testing::Test::HasFatalFailure())
        return;

    // This workload overflows a 64-event ring by orders of magnitude.
    EXPECT_GT(check.droppedEvents, 0.0);
    for (const auto &kv : check.perTrackEvents) {
        // Export may synthesize a few closing Ends past the cap; the
        // spans here (subtree_move, recovery) never nest deeply.
        EXPECT_LE(kv.second, kCap + 8)
            << "track " << kv.first << " exceeds the ring cap";
    }
}

TEST_F(TraceConformance, TracingIsObservationOnly)
{
    auto run = [](bool traced) {
        test::Rig rig(mee::Protocol::Amnt, amntConfig());
        EXPECT_EQ(rig.engine->tracer().on(), traced);
        runWorkload(*rig.engine, true);

        obs::StatRegistry reg;
        rig.engine->registerStats(reg, "mee");
        rig.nvm->registerStats(reg, "nvm");
        return reg.dumpJson();
    };

    // Baseline with tracing off (the fixture guarantees a clean env).
    obs::TraceSession::global().reconfigure();
    ASSERT_FALSE(obs::TraceSession::global().enabled());
    const std::string untraced = run(false);

    enableTrace("amnt_zero_cost.json");
    const std::string traced = run(true);
    obs::TraceSession::global().exportNow();

    // Identical registry snapshots: every counter, histogram summary
    // and latency-derived statistic matches byte for byte.
    EXPECT_EQ(untraced, traced);
}

} // namespace
