/**
 * Malformed-input hardening: every defective trace in
 * tests/sim/data/ must produce a clean, descriptive error through
 * TraceReader's non-fatal error model (or importChampSim's returned
 * string) — never UB, never a crash. The whole suite runs under
 * ASan/UBSan in the CI trace job. Regenerate the corpus with
 * tests/sim/data/gen_corpus.py.
 */

#include <gtest/gtest.h>

#include <string>

#include "sim/traceio/champsim.hh"
#include "sim/traceio/reader.hh"

namespace amnt::sim::traceio
{
namespace
{

std::string
corpusPath(const std::string &name)
{
    return std::string(AMNT_SOURCE_ROOT) + "/tests/sim/data/" + name;
}

struct Defect
{
    const char *file;
    const char *expect; ///< substring of the reader's error()
    bool opensClean;    ///< defect only surfaces on next()
};

const Defect kDefects[] = {
    {"empty.trc", "truncated header", false},
    {"truncated_header.trc", "truncated header", false},
    {"bad_magic.trc", "bad magic", false},
    {"wrong_version.trc", "does not match magic", false},
    {"mismatch_version.trc", "does not match magic", false},
    {"zero_records.trc", "holds no records", false},
    {"truncated_record.trc", "truncated gap varint", true},
    {"truncated_delta.trc", "truncated address-delta varint", true},
    {"truncated_victim.trc", "truncated churn-victim varint", true},
    {"overlong_varint.trc", "overlong or non-canonical gap varint",
     true},
    {"varint_too_long.trc", "overlong or non-canonical gap varint",
     true},
    {"reserved_flags.trc", "reserved flag bits", true},
    {"bad_kind.trc", "invalid op kind", true},
    {"truncated_tail.trc", "truncated tail-gap varint", true},
    {"data_after_end.trc", "data after end-of-trace marker", true},
    {"missing_end_marker.trc",
     "truncated trace (missing end-of-trace marker)", true},
    // The retired v1 generation is rejected by its magic.
    {"v1_truncated_record.trc", "bad magic", false},
};

TEST(TraceMalformed, CorpusProducesDescriptiveErrors)
{
    for (const Defect &d : kDefects) {
        SCOPED_TRACE(d.file);
        TraceReader reader(corpusPath(d.file));
        EXPECT_EQ(reader.ok(), d.opensClean);
        TraceRecord rec;
        // next() must never succeed past the defect; draining the
        // stream is what trips record-level corruption.
        while (reader.next(rec)) {
        }
        EXPECT_FALSE(reader.ok());
        EXPECT_NE(reader.error().find(d.expect), std::string::npos)
            << "got: " << reader.error();
        // The failed state is sticky and harmless.
        EXPECT_FALSE(reader.next(rec));
        reader.rewind();
        EXPECT_FALSE(reader.next(rec));
        EXPECT_NE(reader.error().find(d.expect), std::string::npos);
    }
}

TEST(TraceMalformed, MissingFileReportsCannotOpen)
{
    TraceReader reader(corpusPath("does_not_exist.trc"));
    EXPECT_FALSE(reader.ok());
    EXPECT_NE(reader.error().find("cannot open"), std::string::npos);
    TraceRecord rec;
    EXPECT_FALSE(reader.next(rec));
}

TEST(TraceMalformed, VersionReflectsHeaderOutcome)
{
    // A rejected header leaves version() at 0; a mismatched version
    // byte must not half-initialise the reader.
    EXPECT_EQ(TraceReader(corpusPath("bad_magic.trc")).version(), 0u);
    EXPECT_EQ(TraceReader(corpusPath("mismatch_version.trc")).version(),
              0u);
    EXPECT_EQ(TraceReader(corpusPath("truncated_record.trc")).version(),
              2u);
    EXPECT_EQ(
        TraceReader(corpusPath("v1_truncated_record.trc")).version(),
        0u);
}

struct ImportDefect
{
    const char *file;
    const char *expect;
};

const ImportDefect kImportDefects[] = {
    {"does_not_exist.trace", "cannot open"},
    {"champsim_empty.trace", "holds no instructions"},
    {"champsim_truncated.trace", "truncated ChampSim instruction"},
    {"champsim_no_mem.trace", "holds no memory references"},
};

TEST(TraceMalformed, ChampSimImportRejectsDefectiveInput)
{
    for (const ImportDefect &d : kImportDefects) {
        SCOPED_TRACE(d.file);
        const std::string out = std::string(::testing::TempDir()) +
                                "/amnt_import_reject.trc";
        ImportStats stats;
        const std::string err =
            importChampSim(corpusPath(d.file), out, &stats);
        EXPECT_NE(err.find(d.expect), std::string::npos)
            << "got: " << err;
        // A failed import must not leave a partial output behind.
        std::FILE *f = std::fopen(out.c_str(), "rb");
        EXPECT_EQ(f, nullptr);
        if (f != nullptr)
            std::fclose(f);
    }
}

} // namespace
} // namespace amnt::sim::traceio
