#!/usr/bin/env python3
"""Regenerate the malformed-trace corpus used by test_trace_malformed.

Each file below is intentionally defective in exactly one way; the
table in tests/sim/test_trace_malformed.cc pairs every file with the
error substring the reader must produce. Run from this directory:

    python3 gen_corpus.py
"""

import os

HDR_V1 = b"AMNTTRC1" + bytes([1]) + bytes(7)
HDR_V2 = b"AMNTTRC2" + bytes([2]) + bytes(7)


def w(name, payload):
    with open(os.path.join(os.path.dirname(__file__) or ".", name),
              "wb") as f:
        f.write(payload)
    print(f"{name}: {len(payload)} bytes")


# --- native traces -----------------------------------------------------
w("empty.trc", b"")
w("truncated_header.trc", b"AMNTTRC2")
w("bad_magic.trc", b"NOTATRACE" + bytes(7))
# Right magic, unsupported version byte.
w("wrong_version.trc", b"AMNTTRC2" + bytes([9]) + bytes(7))
# v2 magic paired with the v1 version byte.
w("mismatch_version.trc", b"AMNTTRC2" + bytes([1]) + bytes(7))
w("zero_records.trc", HDR_V2)
# Flags byte present, gap varint missing.
w("truncated_record.trc", HDR_V2 + bytes([0x00]))
# Gap present (1), address delta missing.
w("truncated_delta.trc", HDR_V2 + bytes([0x00, 0x01]))
# Churn bit set, victim varint missing.
w("truncated_victim.trc", HDR_V2 + bytes([0x04, 0x01, 0x02]))
# Gap encoded as 0x80 0x00: two bytes for the value 0.
w("overlong_varint.trc", HDR_V2 + bytes([0x00, 0x80, 0x00, 0x02]))
# Gap of eleven continuation bytes: no u64 is that long.
w("varint_too_long.trc",
  HDR_V2 + bytes([0x00]) + bytes([0xFF] * 10) + bytes([0x00]))
# Reserved flag bit 3 set.
w("reserved_flags.trc", HDR_V2 + bytes([0x08, 0x01, 0x02]))
# Kind 3 with the churn bit: only the bare end marker may use kind 3.
w("bad_kind.trc", HDR_V2 + bytes([0x07, 0x01, 0x02]))
# End marker present but its tail-gap varint missing.
w("truncated_tail.trc", HDR_V2 + bytes([0x00, 0x01, 0x02, 0x03]))
# Bytes after the end marker.
w("data_after_end.trc",
  HDR_V2 + bytes([0x00, 0x01, 0x02, 0x03, 0x05, 0x00]))
# A record but no end marker: the file was cut short.
w("missing_end_marker.trc", HDR_V2 + bytes([0x00, 0x01, 0x02]))
# A v1 header (the retired fixed-width generation, no longer read)
# and a record cut short: rejected as bad magic.
w("v1_truncated_record.trc", HDR_V1 + bytes(5))

# --- ChampSim imports --------------------------------------------------
w("champsim_empty.trace", b"")
# One full instruction record then a 1-byte stub of the next.
rec = bytearray(64)
rec[32:40] = (0x1000).to_bytes(8, "little")  # one source operand
w("champsim_truncated.trace", bytes(rec) + b"\x00")
# Valid-length records whose memory operand slots are all zero.
w("champsim_no_mem.trace", bytes(64) * 3)
