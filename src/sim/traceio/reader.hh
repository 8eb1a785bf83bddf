/**
 * @file
 * Streaming trace reader: sequentially decodes v2 (varint) traces
 * with O(1) memory.
 *
 * Malformed input never aborts the process: every defect — missing
 * file, short or alien header, unsupported version, truncated record,
 * overlong or non-canonical varint, reserved flag bits, zero records
 * — parks the reader in a failed state with a descriptive error()
 * string; next() then simply returns false. Callers that cannot
 * proceed (Workload replay) turn that into fatal() themselves.
 */

#ifndef AMNT_SIM_TRACEIO_READER_HH
#define AMNT_SIM_TRACEIO_READER_HH

#include <cstdio>
#include <string>

#include "sim/traceio/format.hh"
#include "sim/workload.hh"

namespace amnt::sim::traceio
{

/** One decoded trace record. */
struct TraceRecord
{
    MemRef ref;

    /** Instructions since the previous reference, inclusive (>= 1). */
    std::uint64_t gap = 1;
};

/** Reads a trace file sequentially; see file comment for error model. */
class TraceReader
{
  public:
    /** Opens @p path and validates the header. Check ok() after. */
    explicit TraceReader(const std::string &path);
    ~TraceReader();

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    /** False once any defect has been found (see error()). */
    bool ok() const { return error_.empty(); }

    /** Human-readable description of the first defect; empty if ok. */
    const std::string &error() const { return error_; }

    /** Format generation: 2 (0 when the header was rejected). */
    unsigned version() const { return version_; }

    /**
     * Decode the next record. Returns false at end of trace or on a
     * defect; distinguish with ok().
     */
    bool next(TraceRecord &out);

    /** Restart from the first record (no-op in the failed state). */
    void rewind();

    /** Records decoded since construction (not reset by rewind). */
    std::uint64_t recordsRead() const { return recordsRead_; }

    /**
     * Instructions after the final reference, from the end-of-trace
     * marker (0 until the marker has been reached). Wrap-around
     * replay delays the first wrapped reference by this much.
     */
    std::uint64_t tailGap() const { return tailGap_; }

  private:
    void fail(const std::string &what);
    bool readVarint(std::uint64_t &out, const char *field);

    std::FILE *file_ = nullptr;
    std::string path_;
    std::string error_;
    unsigned version_ = 0;
    long dataStart_ = 0;
    Addr prevVaddr_ = 0;
    std::uint64_t recordsRead_ = 0;
    std::uint64_t tailGap_ = 0;
    bool atEnd_ = false; ///< end marker reached (clears on rewind)
};

} // namespace amnt::sim::traceio

#endif // AMNT_SIM_TRACEIO_READER_HH
