#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "sim/system.hh"
#include "sim/traceio/reader.hh"
#include "sim/traceio/writer.hh"

namespace amnt::sim
{
namespace
{

using traceio::TraceReader;
using traceio::TraceRecord;
using traceio::TraceWriter;
using traceio::recordTrace;

std::string
tempTracePath(const char *tag)
{
    return std::string(::testing::TempDir()) + "/amnt_trace_" + tag +
           ".bin";
}

WorkloadConfig
sourceConfig()
{
    WorkloadConfig w;
    w.footprintPages = 512;
    w.memIntensity = 0.5;
    w.writeFraction = 0.4;
    w.flushWriteFraction = 0.1;
    w.seed = 77;
    return w;
}

TEST(Trace, RecordReplayRoundTrip)
{
    const std::string path = tempTracePath("roundtrip");
    Workload source(sourceConfig());
    std::vector<MemRef> expected;
    {
        TraceWriter writer(path);
        for (int i = 0; i < 500; ++i) {
            const MemRef r = source.next();
            writer.append(r);
            expected.push_back(r);
        }
        EXPECT_EQ(writer.count(), 500ull);
    }
    TraceReader reader(path);
    ASSERT_TRUE(reader.ok()) << reader.error();
    EXPECT_EQ(reader.version(), 2u);
    TraceRecord got;
    for (const MemRef &want : expected) {
        ASSERT_TRUE(reader.next(got));
        EXPECT_EQ(got.ref.vaddr, want.vaddr);
        EXPECT_EQ(got.ref.type, want.type);
        EXPECT_EQ(got.ref.flush, want.flush);
        EXPECT_EQ(got.gap, 1ull);
    }
    EXPECT_FALSE(reader.next(got));
    EXPECT_TRUE(reader.ok()) << reader.error();
    EXPECT_EQ(reader.recordsRead(), 500ull);
    std::remove(path.c_str());
}

TEST(Trace, RewindRestartsStream)
{
    const std::string path = tempTracePath("rewind");
    Workload source(sourceConfig());
    recordTrace(source, 10, path);

    TraceReader reader(path);
    ASSERT_TRUE(reader.ok()) << reader.error();
    TraceRecord first;
    ASSERT_TRUE(reader.next(first));
    TraceRecord r;
    while (reader.next(r))
        ;
    ASSERT_TRUE(reader.ok()) << reader.error();
    reader.rewind();
    ASSERT_TRUE(reader.next(r));
    EXPECT_EQ(r.ref.vaddr, first.ref.vaddr);
    std::remove(path.c_str());
}

TEST(Trace, WorkloadReplayMatchesGenerator)
{
    const std::string path = tempTracePath("replay");
    {
        Workload source(sourceConfig());
        recordTrace(source, 1000, path);
    }
    Workload source(sourceConfig());
    WorkloadConfig replay_cfg = sourceConfig();
    replay_cfg.traceFile = path;
    Workload replay(replay_cfg);
    for (int i = 0; i < 1000; ++i) {
        const MemRef a = source.next();
        const MemRef b = replay.next();
        ASSERT_EQ(a.vaddr, b.vaddr) << i;
        ASSERT_EQ(a.type, b.type) << i;
    }
    std::remove(path.c_str());
}

TEST(Trace, WorkloadReplayWrapsAround)
{
    const std::string path = tempTracePath("wrap");
    {
        Workload source(sourceConfig());
        recordTrace(source, 10, path);
    }
    WorkloadConfig cfg = sourceConfig();
    cfg.traceFile = path;
    Workload replay(cfg);
    std::vector<Addr> first_pass;
    for (int i = 0; i < 10; ++i)
        first_pass.push_back(replay.next().vaddr);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(replay.next().vaddr,
                  first_pass[static_cast<std::size_t>(i)]);
    std::remove(path.c_str());
}

TEST(Trace, DeltaEncodingHandlesChurnAndGaps)
{
    const std::string path = tempTracePath("churn");
    {
        TraceWriter writer(path);
        MemRef a;
        a.vaddr = 0x1000;
        writer.append(a, 7);
        MemRef b;
        b.vaddr = 0x40; // negative delta
        b.type = AccessType::Write;
        b.flush = true;
        b.churnPage = true;
        b.churnVictim = 4242;
        writer.append(b, 123456789ull);
    }
    TraceReader reader(path);
    ASSERT_TRUE(reader.ok()) << reader.error();
    TraceRecord r;
    ASSERT_TRUE(reader.next(r));
    EXPECT_EQ(r.ref.vaddr, 0x1000ull);
    EXPECT_EQ(r.gap, 7ull);
    ASSERT_TRUE(reader.next(r));
    EXPECT_EQ(r.ref.vaddr, 0x40ull);
    EXPECT_EQ(r.gap, 123456789ull);
    EXPECT_EQ(r.ref.type, AccessType::Write);
    EXPECT_TRUE(r.ref.flush);
    EXPECT_TRUE(r.ref.churnPage);
    EXPECT_EQ(r.ref.churnVictim, 4242ull);
    EXPECT_FALSE(reader.next(r));
    EXPECT_TRUE(reader.ok()) << reader.error();
    std::remove(path.c_str());
}

TEST(Trace, DrivesAFullSystem)
{
    const std::string path = tempTracePath("system");
    {
        Workload source(sourceConfig());
        recordTrace(source, 5000, path);
    }
    SystemConfig cfg = SystemConfig::singleProgram(mee::Protocol::Amnt);
    cfg.mee.dataBytes = 64ull << 20;
    System sys(cfg);
    WorkloadConfig w = sourceConfig();
    w.traceFile = path;
    sys.addProcess(w);
    const RunResult r = sys.run(20000);
    EXPECT_GT(r.dataAccesses, 0ull);
    EXPECT_EQ(sys.engine().violations(), 0ull);
    std::remove(path.c_str());
}

} // namespace
} // namespace amnt::sim
