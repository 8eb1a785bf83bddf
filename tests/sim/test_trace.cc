#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "sim/system.hh"
#include "sim/traceio/format.hh"
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

/** Byte range of one encoded field, laid out like TraceWriter. */
struct EncodedField
{
    std::uint64_t begin, end; ///< file offsets, end exclusive
    std::string name;         ///< as in the reader's diagnostics
    std::uint64_t record;     ///< index of the record it belongs to
};

/** Bytes putVarint() spends on @p v. */
std::uint64_t
varintBytes(std::uint64_t v)
{
    std::uint8_t buf[traceio::kMaxVarintBytes];
    return traceio::putVarint(buf, v);
}

/**
 * Mixed-length records that span more than two reader blocks: short
 * sequential reads, 10-byte gaps, 10-byte address deltas and 10-byte
 * churn victims, in a seeded order. Returns the records and fills
 * @p fields with the file offset of every field, end marker included.
 */
std::vector<TraceRecord>
blockSpanningRecords(std::vector<EncodedField> &fields)
{
    Rng rng(2718);
    std::vector<TraceRecord> out;
    std::uint64_t pos = traceio::kHeaderBytes;
    Addr prev = 0;
    auto field = [&](std::uint64_t bytes, const char *name) {
        fields.push_back({pos, pos + bytes, name, out.size()});
        pos += bytes;
    };
    while (pos < traceio::kHeaderBytes +
                     5 * TraceReader::kBlockBytes / 2) {
        TraceRecord r;
        r.ref.vaddr = prev + kBlockSize;
        const std::uint64_t pick = rng.below(4);
        if (pick == 1)
            r.gap = (1ull << 63) + rng.below(1000);
        if (pick == 2) {
            r.ref.vaddr = rng.next();
            r.ref.type = AccessType::Write;
            r.ref.flush = true;
        }
        if (pick == 3) {
            r.ref.type = AccessType::Write;
            r.ref.churnPage = true;
            r.ref.churnVictim = ~0ull - rng.below(1000);
        }
        field(1, "flags");
        field(varintBytes(r.gap), "gap");
        field(varintBytes(traceio::zigzagEncode(
                  static_cast<std::int64_t>(r.ref.vaddr - prev))),
              "address-delta");
        if (r.ref.churnPage)
            field(varintBytes(r.ref.churnVictim), "churn-victim");
        prev = r.ref.vaddr;
        out.push_back(r);
    }
    field(1, "flags");
    field(1, "tail-gap");
    return out;
}

void
writeRecords(const std::string &path,
             const std::vector<TraceRecord> &records)
{
    TraceWriter writer(path);
    for (const TraceRecord &r : records)
        writer.append(r.ref, r.gap);
}

void
expectSameRecord(const TraceRecord &got, const TraceRecord &want,
                 std::size_t i)
{
    EXPECT_EQ(got.ref.vaddr, want.ref.vaddr) << "record " << i;
    EXPECT_EQ(got.gap, want.gap) << "record " << i;
    EXPECT_EQ(got.ref.type, want.ref.type) << "record " << i;
    EXPECT_EQ(got.ref.flush, want.ref.flush) << "record " << i;
    EXPECT_EQ(got.ref.churnPage, want.ref.churnPage) << "record " << i;
    EXPECT_EQ(got.ref.churnVictim, want.ref.churnVictim)
        << "record " << i;
}

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

TEST(Trace, RecordsStraddlingBlockEdgesDecodeExactly)
{
    const std::string path = tempTracePath("blocks");
    std::vector<EncodedField> fields;
    const std::vector<TraceRecord> written =
        blockSpanningRecords(fields);
    writeRecords(path, written);
    {
        std::ifstream in(path, std::ios::binary | std::ios::ate);
        ASSERT_EQ(static_cast<std::uint64_t>(in.tellg()),
                  fields.back().end);
    }
    // Both block edges inside the trace fall within a multi-byte
    // varint, so decoding crosses a refill mid-field.
    for (std::uint64_t k = 1; k <= 2; ++k) {
        const std::uint64_t edge =
            traceio::kHeaderBytes + k * TraceReader::kBlockBytes;
        bool straddled = false;
        for (const EncodedField &f : fields)
            straddled |= f.begin < edge && edge < f.end;
        EXPECT_TRUE(straddled) << "block edge " << k;
    }

    TraceReader reader(path);
    ASSERT_TRUE(reader.ok()) << reader.error();
    TraceRecord got;
    for (std::size_t i = 0; i < written.size(); ++i) {
        ASSERT_TRUE(reader.next(got)) << reader.error();
        expectSameRecord(got, written[i], i);
    }
    EXPECT_FALSE(reader.next(got));
    EXPECT_TRUE(reader.ok()) << reader.error();
    EXPECT_EQ(reader.recordsRead(), written.size());

    // Rewind from the middle of the second block: the stream restarts
    // at the first record, not at the block the reader holds.
    reader.rewind();
    const std::size_t mid = written.size() / 2;
    for (std::size_t i = 0; i < mid; ++i)
        ASSERT_TRUE(reader.next(got));
    reader.rewind();
    for (std::size_t i = 0; i < written.size(); ++i) {
        ASSERT_TRUE(reader.next(got)) << reader.error();
        expectSameRecord(got, written[i], i);
    }
    EXPECT_FALSE(reader.next(got));
    EXPECT_TRUE(reader.ok()) << reader.error();
    std::remove(path.c_str());
}

TEST(Trace, TruncationOnABlockEdgeNamesTheCutField)
{
    const std::string path = tempTracePath("blockcut");
    std::vector<EncodedField> fields;
    const std::vector<TraceRecord> written =
        blockSpanningRecords(fields);
    writeRecords(path, written);
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    for (std::uint64_t k = 1; k <= 2; ++k) {
        const std::uint64_t edge =
            traceio::kHeaderBytes + k * TraceReader::kBlockBytes;
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out.write(bytes.data(), static_cast<std::streamsize>(edge));
        }
        // The reader's message for a file that ends inside field f,
        // or at the flags byte that would start the next record.
        std::string expect;
        for (const EncodedField &f : fields) {
            if (f.begin <= edge && edge < f.end) {
                expect = f.name == "flags"
                             ? "truncated trace (missing end-of-trace "
                               "marker)"
                             : "truncated " + f.name +
                                   " varint in record " +
                                   std::to_string(f.record);
                break;
            }
        }
        SCOPED_TRACE(expect);
        TraceReader reader(path);
        ASSERT_TRUE(reader.ok()) << reader.error();
        TraceRecord got;
        std::size_t n = 0;
        while (reader.next(got)) {
            expectSameRecord(got, written[n], n);
            ++n;
        }
        EXPECT_EQ(reader.error(), "'" + path + "': " + expect);
    }
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
