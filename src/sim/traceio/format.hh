/**
 * @file
 * On-disk memory-trace format (DESIGN.md §12).
 *
 * A trace is a 16-byte header followed by a stream of variable-length
 * records. The one supported generation is
 *
 *   v2 ("AMNTTRC2", version byte 2): varint records. Each record is
 *        flags      1 B   bits 0-1 op kind (0 read, 1 write,
 *                         2 flushed write, 3 end-of-trace marker),
 *                         bit 2 page churn, bits 3-7 reserved (must
 *                         be zero)
 *        gap        varint  instructions since the previous
 *                           reference, inclusive of the referencing
 *                           instruction (>= 1; 0 replays as 1)
 *        delta      varint  zigzag(vaddr - previous record's vaddr);
 *                           the first record's base address is 0
 *        victim     varint  churn victim PageId; present only when
 *                           the churn bit is set
 *      The stream ends with exactly one end-of-trace marker: a bare
 *      kind-3 flags byte (no churn bit) followed by one varint — the
 *      tail gap, i.e. instructions executed after the final
 *      reference (0 when the run ended on one). The marker makes
 *      truncation detectable and lets wrap-around replay reproduce
 *      the recording's silent tail: the first wrapped reference
 *      fires tail + firstGap instructions after the last real one.
 *      Timed: replay reproduces the exact instruction positions of
 *      the recorded references, which is what makes a replayed run's
 *      StatRegistry dump bit-identical to the live run's.
 *
 * Varints are LEB128 (7 data bits per byte, high bit continues), at
 * most 10 bytes for a u64. Readers reject non-canonical encodings
 * (a continuation into a zero final byte, a 10th byte above 1, or
 * more than 10 bytes) so every valid value has exactly one encoding.
 */

#ifndef AMNT_SIM_TRACEIO_FORMAT_HH
#define AMNT_SIM_TRACEIO_FORMAT_HH

#include <cstddef>
#include <cstdint>

namespace amnt::sim::traceio
{

/** Header: magic (8 B) + version (1 B) + 7 reserved zero bytes. */
inline constexpr std::size_t kHeaderBytes = 16;

inline constexpr char kMagicV2[8] = {'A', 'M', 'N', 'T',
                                     'T', 'R', 'C', '2'};

inline constexpr std::uint8_t kVersion2 = 2;

/** Record flag byte layout. */
inline constexpr std::uint8_t kKindMask = 0x03;
inline constexpr std::uint8_t kKindRead = 0x00;
inline constexpr std::uint8_t kKindWrite = 0x01;
inline constexpr std::uint8_t kKindFlush = 0x02; ///< flushed write
inline constexpr std::uint8_t kKindEnd = 0x03;   ///< end-of-trace marker
inline constexpr std::uint8_t kFlagChurn = 0x04;
inline constexpr std::uint8_t kReservedFlags = 0xf8;

/** Longest LEB128 encoding of a u64. */
inline constexpr std::size_t kMaxVarintBytes = 10;

/** Map a signed delta onto the unsigned varint domain. */
constexpr std::uint64_t
zigzagEncode(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

/** Inverse of zigzagEncode. */
constexpr std::int64_t
zigzagDecode(std::uint64_t v)
{
    return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/**
 * LEB128-encode @p v into @p buf (at least kMaxVarintBytes long).
 * @return bytes written (1..10); always the canonical encoding.
 */
inline std::size_t
putVarint(std::uint8_t *buf, std::uint64_t v)
{
    std::size_t n = 0;
    while (v >= 0x80) {
        buf[n++] = static_cast<std::uint8_t>(v) | 0x80;
        v >>= 7;
    }
    buf[n++] = static_cast<std::uint8_t>(v);
    return n;
}

/**
 * Decode one canonical LEB128 varint from @p buf (of @p len bytes).
 * @return bytes consumed, or 0 when the buffer is truncated or the
 *         encoding is non-canonical / longer than a u64.
 */
inline std::size_t
getVarint(const std::uint8_t *buf, std::size_t len, std::uint64_t &out)
{
    std::uint64_t v = 0;
    for (std::size_t n = 0; n < len && n < kMaxVarintBytes; ++n) {
        const std::uint8_t byte = buf[n];
        if (n == kMaxVarintBytes - 1 && byte > 1)
            return 0; // would overflow 64 bits
        if (n > 0 && byte == 0)
            return 0; // non-canonical: trailing zero group
        v |= static_cast<std::uint64_t>(byte & 0x7f) << (7 * n);
        if ((byte & 0x80) == 0) {
            out = v;
            return n + 1;
        }
    }
    return 0; // truncated or more than kMaxVarintBytes
}

} // namespace amnt::sim::traceio

#endif // AMNT_SIM_TRACEIO_FORMAT_HH
