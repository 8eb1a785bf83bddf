/**
 * The harnesses' --json document: one {"bench", "peak_rss_mb", "rows"}
 * object whose peak_rss_mb is this process's own VmHWM.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "bench_util.hh"

namespace amnt
{
namespace
{

TEST(BenchJson, PeakRssIsThisProcessHighWaterMark)
{
    const std::optional<double> before = bench::peakRssMb();
    if (!before)
        GTEST_SKIP() << "no VmHWM in /proc/self/status on this platform";
    EXPECT_GT(*before, 0.0);
    // Touch every page of 32 MB: the high-water mark must cover it.
    {
        constexpr std::size_t kBytes = 32u << 20;
        const std::unique_ptr<char[]> big(new char[kBytes]);
        volatile char *page = big.get();
        for (std::size_t i = 0; i < kBytes; i += 4096)
            page[i] = 1;
    }
    const std::optional<double> after = bench::peakRssMb();
    ASSERT_TRUE(after);
    EXPECT_GE(*after, 32.0);
    EXPECT_GE(*after, *before);
}

TEST(BenchJson, DocumentCarriesTopLevelPeakRss)
{
    const std::string path =
        std::string(::testing::TempDir()) + "/amnt_bench_json.json";
    {
        const char *argv[] = {"harness", "--json", path.c_str()};
        bench::JsonSink sink(3, const_cast<char **>(argv), "unit");
        ASSERT_TRUE(sink.enabled());
        bench::JsonRow row;
        row.field("label", std::string("only"));
        sink.add(row);
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string doc = buf.str();
    std::remove(path.c_str());

    const std::string head = "{\"bench\": \"unit\", \"peak_rss_mb\": ";
    ASSERT_EQ(doc.rfind(head, 0), 0u) << doc;
    const std::string rest = doc.substr(head.size());
    if (bench::peakRssMb()) {
        EXPECT_GT(std::stod(rest), 0.0) << doc;
    } else {
        EXPECT_EQ(rest.rfind("null", 0), 0u) << doc;
    }
    EXPECT_NE(doc.find(", \"rows\": [\n  {\"label\": \"only\"}\n]}\n"),
              std::string::npos)
        << doc;
}

} // namespace
} // namespace amnt
