#!/usr/bin/env python3
"""Build a tiny pcap in memory, ingest its UDP payloads, and segment them.

Shows the capture path end to end without needing a real trace file:
classic pcap framing, Ethernet/IPv4/UDP decapsulation, deduplication,
and the null-bytes segmenter over the extracted messages.
"""

import os
import struct
import tempfile

from protoseg.model import segments_of
from protoseg.refine import null_segmenter
from protoseg.traceio import TraceSpec, load_trace


def udp_frame(payload, dport):
    udp = struct.pack(">HHHH", 40000, dport, 8 + len(payload), 0) + payload
    ip = struct.pack(">BBHHHBBH4s4s", 0x45, 0, 20 + len(udp), 0, 0, 64, 17, 0,
                     bytes([192, 168, 0, 1]), bytes([192, 168, 0, 2])) + udp
    return b"\x02" * 6 + b"\x04" * 6 + b"\x08\x00" + ip


payloads = [
    bytes.fromhex("0001000361626300ff01"),
    bytes.fromhex("0002000474657374000a02"),
    bytes.fromhex("0001000361626300ff01"),  # duplicate, dropped by dedupe
]

blob = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
for i, p in enumerate(payloads):
    frame = udp_frame(p, dport=9000)
    blob += struct.pack("<IIII", 1_700_000_000 + i, 0, len(frame), len(frame))
    blob += frame

with tempfile.NamedTemporaryFile(suffix=".pcap", delete=False) as fh:
    fh.write(blob)
    path = fh.name
try:
    messages = load_trace(TraceSpec(path, format="pcap", layer="udp_payload", port=9000,
                                    dedupe=True))
finally:
    os.unlink(path)
print(f"{len(payloads)} frames in the capture, {len(messages)} unique messages loaded\n")

for msg in messages:
    seg = null_segmenter(msg)
    parts = " | ".join(value.hex(" ") for value in segments_of(seg, msg))
    print(f"message {msg.id} ({msg.source}):")
    print(f"  {parts}")
