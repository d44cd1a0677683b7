"""Trace ingestion and the JSON formats for segmentations and ground truth.

Supported captures are classic pcap (both endiannesses, micro- and
nanosecond timestamp variants) with Ethernet / IPv4 / UDP-or-TCP
encapsulation; anything else is rejected rather than guessed.  The
hex-line format (one even-length hex message per line in ASCII, `#`
comments in any text) is the canonical fixture format: deterministic and diffable.

Segmentations and ground truth are UTF-8 JSON objects mapping message
ids, written in ASCII decimal digits, to arrays of interior cut offsets;
ground truth may instead map to arrays of {"start", "end"} field
records that tile the message in order, from whose ends the cuts are
derived; a record's other keys are ignored.  `load_json` reads every
JSON input, and a file that holds no JSON value is an error naming its
line and column.

Every artifact is written atomically: a temporary file renamed into
place.  `write_json_atomic` is the one JSON encoder: an artifact holds
the compact `json.dumps(obj, separators=(",", ":"))` of its value and a
newline.  `save_segmentation` (`segments.json`) and `save_ground_truth`
(`truth.json`) pass it their cut maps in message-id order; `cli` passes
it `edits.json`, `report.json` and the `clusters.json` value of
`cluster.tree_to_json`.  `write_text_atomic` writes everything else,
`comparison.csv` and the hex-line traces of `save_hexlines`.
"""

from __future__ import annotations

import json
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

from .model import (GroundTruth, IngestionError, Message, Segmentation, UsageError,
                    cut_offset, validate_cuts)

FORMAT_PCAP = "pcap"
FORMAT_HEXLINES = "hexlines"

LAYER_UDP = "udp_payload"
LAYER_TCP = "tcp_payload"
LAYER_RAW = "raw_frame"

# classic pcap magic -> (byte order, timestamp divisor); pcapng is rejected
_PCAP_MAGICS = {
    b"\xa1\xb2\xc3\xd4": ">",
    b"\xd4\xc3\xb2\xa1": "<",
    b"\xa1\xb2\x3c\x4d": ">",
    b"\x4d\x3c\xb2\xa1": "<",
}
_LINKTYPE_ETHERNET = 1


@dataclass(frozen=True)
class TraceSpec:
    """What to load from a capture or hexline file."""

    path: str
    format: str = FORMAT_HEXLINES
    layer: str = LAYER_UDP
    port: Optional[int] = None
    max_messages: Optional[int] = None
    dedupe: bool = True

    def __post_init__(self):
        if self.format not in (FORMAT_PCAP, FORMAT_HEXLINES):
            raise UsageError(f"unknown trace format {self.format!r}")
        if self.layer not in (LAYER_UDP, LAYER_TCP, LAYER_RAW):
            raise UsageError(f"unknown layer filter {self.layer!r}")
        if self.port is not None and self.layer == LAYER_RAW:
            raise UsageError("a port filter needs a udp_payload or tcp_payload layer")
        if self.port is not None and not 0 <= self.port <= 65535:
            raise UsageError(f"port {self.port} is outside 0-65535")
        if self.max_messages is not None and self.max_messages < 1:
            raise UsageError("max_messages must be at least 1")


def sniff_format(path: str) -> str:
    """Guess the trace format from the file name."""
    return FORMAT_PCAP if str(path).lower().endswith((".pcap", ".cap")) else FORMAT_HEXLINES


def _ipv4_payload(frame: bytes, layer: str, port: Optional[int]) -> Optional[bytes]:
    """Transport payload of one Ethernet frame, or None when it doesn't match."""
    if len(frame) < 14 or frame[12:14] != b"\x08\x00":
        return None
    ip = frame[14:]
    if len(ip) < 20 or ip[0] >> 4 != 4:
        return None
    ihl = (ip[0] & 0x0F) * 4
    total_len = int.from_bytes(ip[2:4], "big")
    if ihl < 20 or len(ip) < ihl or total_len < ihl:
        return None
    if int.from_bytes(ip[6:8], "big") & 0x3FFF:
        return None  # fragmented; reassembly is out of scope
    transport = ip[ihl:min(total_len, len(ip))]
    proto = ip[9]

    if layer == LAYER_UDP and proto == 17:
        if len(transport) < 8:
            return None
        sport = int.from_bytes(transport[0:2], "big")
        dport = int.from_bytes(transport[2:4], "big")
        if port is not None and port not in (sport, dport):
            return None
        udp_len = int.from_bytes(transport[4:6], "big")
        return transport[8:min(udp_len, len(transport))]
    if layer == LAYER_TCP and proto == 6:
        if len(transport) < 20:
            return None
        sport = int.from_bytes(transport[0:2], "big")
        dport = int.from_bytes(transport[2:4], "big")
        if port is not None and port not in (sport, dport):
            return None
        offset = (transport[12] >> 4) * 4
        if offset < 20 or len(transport) < offset:
            return None
        return transport[offset:]
    return None


def _iter_pcap(path: str, layer: str, port: Optional[int]):
    with open(path, "rb") as fh:
        header = fh.read(24)
        if len(header) < 24:
            raise IngestionError(f"{path}: truncated pcap global header")
        order = _PCAP_MAGICS.get(header[:4])
        if order is None:
            raise IngestionError(f"{path}: unknown pcap magic {header[:4].hex()}")
        snaplen, linktype = struct.unpack(order + "II", header[16:24])
        if linktype != _LINKTYPE_ETHERNET:
            raise IngestionError(f"{path}: unsupported link type {linktype} (only Ethernet)")

        frame_no = 0
        while True:
            record = fh.read(16)
            if not record:
                return
            frame_no += 1
            if len(record) < 16:
                raise IngestionError(f"{path}: truncated record header at frame {frame_no}")
            _, _, incl_len, _ = struct.unpack(order + "IIII", record)
            if incl_len > max(snaplen, 262144):  # 262 144: libpcap's largest snapshot length
                raise IngestionError(f"{path}: frame {frame_no} claims {incl_len} bytes,"
                                     f" more than the snaplen {snaplen} and 262144")
            frame = fh.read(incl_len)
            if len(frame) < incl_len:
                raise IngestionError(f"{path}: truncated packet data at frame {frame_no}")
            if layer == LAYER_RAW:
                payload = frame
            else:
                payload = _ipv4_payload(frame, layer, port)
            if payload:
                yield payload, f"{path}:frame {frame_no}"


def _iter_hexlines(path: str):
    # undecodable bytes become lone surrogates, so they are reported by line
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0]  # a comment may hold any bytes
            if not body.isascii():
                raise IngestionError(f"{path}:{lineno}: non-ASCII byte in a hex-line file")
            body = "".join(body.split())
            if not body:
                continue
            if len(body) % 2:
                raise IngestionError(f"{path}:{lineno}: odd-length hex message")
            try:
                payload = bytes.fromhex(body)
            except ValueError:
                raise IngestionError(f"{path}:{lineno}: invalid hex digits") from None
            yield payload, f"{path}:{lineno}"


def load_trace(spec: TraceSpec) -> list:
    """Messages from a capture in order, deduplicated and truncated per the spec."""
    if not os.path.exists(spec.path):
        raise IngestionError(f"{spec.path}: no such file")
    if spec.format == FORMAT_PCAP:
        source = _iter_pcap(spec.path, spec.layer, spec.port)
    else:
        source = _iter_hexlines(spec.path)

    messages = []
    seen = set()
    for payload, origin in source:
        if spec.dedupe:
            if payload in seen:
                continue
            seen.add(payload)
        messages.append(Message(id=len(messages), payload=payload, source=origin))
        if spec.max_messages is not None and len(messages) >= spec.max_messages:
            break
    return messages


def _parse_cut_map(data, path: str, allow_records: bool, messages=None):
    """Decode {"<id>": [cuts] | [field records]} with JSON-path errors.

    Field records must tile their message in order: the first starts at
    0, each starts where the previous one ended and ends after it
    starts, and, with messages given, the last ends at the payload length.
    """
    if not isinstance(data, dict):
        raise IngestionError(f"{path}: $: expected an object at the top level")
    cuts_by_id = {}
    key_of = {}  # message id -> the key that named it
    lengths = {m.id: len(m.payload) for m in messages or ()}
    for key in data:
        where = f"{path}: $.{key}"
        try:
            mid = int(key) if key.isascii() and key.isdigit() else None
        except ValueError:  # more digits than int() converts
            mid = None
        if mid is None:
            raise IngestionError(f"{where}: key is not a decimal message id")
        if mid in key_of:
            raise IngestionError(
                f"{where}: keys {key_of[mid]!r} and {key!r} both name message {mid}")
        key_of[mid] = key
        entries = data[key]
        if not isinstance(entries, list):
            raise IngestionError(f"{where}: expected an array")
        if entries and all(isinstance(e, dict) for e in entries):
            if not allow_records:
                raise IngestionError(f"{where}: field records are only valid in ground truth")
            end = 0
            for i, rec in enumerate(entries):
                if not {"start", "end"} <= rec.keys():
                    raise IngestionError(f"{where}[{i}]: field record needs start and end")
                start, stop = (_offset(rec[k], f"{where}[{i}]: {k}") for k in ("start", "end"))
                if start != end:
                    raise IngestionError(
                        f"{where}[{i}]: field record starts at {start}, expected {end}")
                if stop <= end:
                    raise IngestionError(
                        f"{where}[{i}]: field record ends at {stop}, not after its start")
                end = stop
            if end != lengths.get(mid, end):
                raise IngestionError(f"{where}[{len(entries) - 1}]: last field record ends at"
                                     f" {end}, not at the payload length {lengths[mid]}")
            cuts_by_id[mid] = tuple(rec["start"] for rec in entries[1:])
        else:
            cuts_by_id[mid] = tuple(_offset(c, f"{where}[{i}]") for i, c in enumerate(entries))
    return cuts_by_id


@contextmanager
def _ingesting(what: str):
    """A UsageError raised inside becomes an IngestionError naming what is read."""
    try:
        yield
    except UsageError as exc:
        raise IngestionError(f"{what}: {exc}") from None


def _offset(value, where: str) -> int:
    """value as `cut_offset` takes it; an IngestionError naming where it is if it is none."""
    try:
        return cut_offset(value)
    except UsageError as exc:
        raise IngestionError(f"{where}: {exc}") from None


def _distinct_keys(pairs) -> dict:
    """A JSON object as a dict; a ValueError when it repeats a key."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        raise ValueError(f"duplicate key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


def load_json(path: str, error=IngestionError):
    """The value of a UTF-8 JSON file; `error`, naming the line and column, if it holds none."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return json.loads(raw.decode("utf-8"), object_pairs_hook=_distinct_keys)
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        column = exc.start - raw.rfind(b"\n", 0, exc.start)
        raise error(f"{path}:{line}:{column}: not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise error(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # a repeated key, a huge integer, deep nesting
        raise error(f"{path}: invalid JSON: {exc}") from None


def load_ground_truth(path: str, messages=None) -> GroundTruth:
    """Ground truth JSON, validated against the trace when given."""
    cuts_by_id = _parse_cut_map(load_json(path), path, True, messages)
    with _ingesting(f"{path}: ground truth"):
        truth = GroundTruth(cuts=cuts_by_id)
        if messages is not None:
            truth.validate_against(messages)
    return truth


def load_segmentation(path: str, messages=None) -> list:
    """Segmentation JSON as a list ordered by message id, validated against the trace when given."""
    cuts_by_id = _parse_cut_map(load_json(path), path, allow_records=False)
    with _ingesting(f"{path}: segmentation"):
        segs = [Segmentation(mid, cuts_by_id[mid]) for mid in sorted(cuts_by_id)]
        if messages is not None:
            validate_cuts(cuts_by_id, messages)
    return segs


def write_text_atomic(path: str, *texts: str) -> None:
    """Write the texts one after another to a temporary file and rename it into place.

    The temporary file is created with mode 0o666 less the umask, as
    `open` creates a file, so the artifact gets the usual permissions.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    while True:
        tmp = os.path.join(directory, f"{os.path.basename(path)}.{os.urandom(6).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(texts)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path: str, obj) -> None:
    """Write `json.dumps(obj, separators=(",", ":"))` and a newline atomically.

    This is the one encoder of every JSON artifact: compact, keys in the
    order the value holds them.  obj must hold no reference cycle: every
    artifact value is a tree the program builds afresh, so the encoder's
    circular-reference check, which gives the same bytes, is skipped.
    """
    write_text_atomic(path, json.dumps(obj, separators=(",", ":"), check_circular=False), "\n")


def save_segmentation(path: str, segmentations) -> None:
    """Write segmentations as {"<id>": [cuts]} in message-id order."""
    cuts_by_id = {seg.message_id: seg.cuts for seg in segmentations}
    write_json_atomic(path, dict(sorted(cuts_by_id.items())))


def save_ground_truth(path: str, truth: GroundTruth) -> None:
    """Write the cuts of ground truth in the segmentation format."""
    write_json_atomic(path, dict(sorted(truth.cuts.items())))


def save_hexlines(path: str, messages) -> None:
    """Write a trace in the hex-line fixture format (atomic)."""
    write_text_atomic(path, "".join(msg.payload.hex() + "\n" for msg in messages))
