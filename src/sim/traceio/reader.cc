#include "sim/traceio/reader.hh"

#include <cstring>

#include "common/log.hh"
#include "sim/traceio/format.hh"

namespace amnt::sim::traceio
{

TraceReader::TraceReader(const std::string &path)
    : file_(std::fopen(path.c_str(), "rb")), path_(path)
{
    if (file_ == nullptr) {
        fail("cannot open trace");
        return;
    }
    // The block is the only buffer: stdio's own would copy each
    // byte twice.
    std::setvbuf(file_, nullptr, _IONBF, 0);
    std::uint8_t header[kHeaderBytes];
    if (std::fread(header, 1, sizeof(header), file_) != sizeof(header)) {
        fail("truncated header");
        return;
    }
    if (std::memcmp(header, kMagicV2, sizeof(kMagicV2)) != 0) {
        fail("not an AMNT trace (bad magic)");
        return;
    }
    version_ = kVersion2;
    if (header[8] != version_) {
        fail(strfmt("header version %u does not match magic "
                    "generation %u",
                    header[8], version_));
        version_ = 0;
        return;
    }
    block_ = std::make_unique<std::uint8_t[]>(kBlockBytes);
    // A replayable trace needs at least one record; diagnosing the
    // empty file here keeps every consumer's error path uniform.
    if (!refill())
        fail("trace holds no records");
}

TraceReader::~TraceReader()
{
    if (file_ != nullptr)
        std::fclose(file_);
}

bool
TraceReader::refill()
{
    pos_ = 0;
    end_ = std::fread(block_.get(), 1, kBlockBytes, file_);
    return end_ > 0;
}

void
TraceReader::fail(const std::string &what)
{
    if (!error_.empty())
        return;
    error_ = "'" + path_ + "': " + what;
}

bool
TraceReader::readVarint(std::uint64_t &out, const char *field)
{
    std::uint8_t buf[kMaxVarintBytes];
    std::size_t n = 0;
    while (n < kMaxVarintBytes) {
        const int c = getByte();
        if (c == EOF) {
            fail(strfmt("truncated %s varint in record %llu", field,
                        static_cast<unsigned long long>(
                            recordsRead_)));
            return false;
        }
        buf[n++] = static_cast<std::uint8_t>(c);
        if ((buf[n - 1] & 0x80) == 0)
            break;
    }
    if (getVarint(buf, n, out) != n) {
        fail(strfmt("overlong or non-canonical %s varint in record "
                    "%llu",
                    field,
                    static_cast<unsigned long long>(recordsRead_)));
        return false;
    }
    return true;
}

bool
TraceReader::next(TraceRecord &out)
{
    if (!ok() || atEnd_)
        return false;
    const int first = getByte();
    if (first == EOF) {
        // A well-formed stream always ends with its marker; a
        // hard EOF here means the file was cut short.
        fail("truncated trace (missing end-of-trace marker)");
        return false;
    }
    const auto flags = static_cast<std::uint8_t>(first);
    if ((flags & kReservedFlags) != 0) {
        fail(strfmt("reserved flag bits 0x%02x set in record %llu",
                    flags & kReservedFlags,
                    static_cast<unsigned long long>(recordsRead_)));
        return false;
    }
    if (flags == kKindEnd) {
        if (!readVarint(tailGap_, "tail-gap"))
            return false;
        if (getByte() != EOF) {
            fail("data after end-of-trace marker");
            return false;
        }
        atEnd_ = true;
        return false; // clean end of trace
    }
    const std::uint8_t kind = flags & kKindMask;
    if (kind > kKindFlush) {
        // Kind 3 is only valid as the bare end marker checked above.
        fail(strfmt("invalid op kind %u in record %llu", kind,
                    static_cast<unsigned long long>(recordsRead_)));
        return false;
    }

    out = TraceRecord{};
    std::uint64_t delta_zz = 0;
    if (!readVarint(out.gap, "gap") ||
        !readVarint(delta_zz, "address-delta"))
        return false;
    out.ref.vaddr =
        prevVaddr_ +
        static_cast<std::uint64_t>(zigzagDecode(delta_zz));
    out.ref.type = kind == kKindRead ? AccessType::Read
                                     : AccessType::Write;
    out.ref.flush = kind == kKindFlush;
    if ((flags & kFlagChurn) != 0) {
        std::uint64_t victim = 0;
        if (!readVarint(victim, "churn-victim"))
            return false;
        out.ref.churnPage = true;
        out.ref.churnVictim = victim;
    }
    prevVaddr_ = out.ref.vaddr;
    ++recordsRead_;
    return true;
}

void
TraceReader::rewind()
{
    if (!ok())
        return;
    std::clearerr(file_);
    std::fseek(file_, kHeaderBytes, SEEK_SET);
    pos_ = end_ = 0;
    prevVaddr_ = 0;
    atEnd_ = false;
}

} // namespace amnt::sim::traceio
