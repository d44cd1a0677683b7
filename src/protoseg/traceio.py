"""Trace ingestion and the JSON formats for segmentations and ground truth.

Supported captures are classic pcap (both endiannesses, micro- and
nanosecond timestamp variants) with Ethernet / IPv4 / UDP-or-TCP
encapsulation; anything else is rejected rather than guessed.  The
hex-line format (one even-length hex message per line, `#` comments) is
the canonical fixture format: deterministic and diffable.

Segmentations and ground truth are JSON objects mapping decimal
message-id strings to arrays of interior cut offsets; ground truth may
instead map to arrays of {"start", "end", "type"} field records, from
whose ends the cuts are derived.

Every artifact is written atomically: a temporary file renamed into
place.  A JSON artifact holds the text of
`json.dumps(obj, indent=1, separators=(",", ": "))` and a newline.
`save_segmentation` (`segments.json`) and
`save_ground_truth` (`truth.json`) render their cut maps as that text
through one renderer; `write_json_atomic` writes any other JSON value,
such as `edits.json` and `report.json`, with the C encoder wherever it
can; and `write_text_atomic` writes text rendered elsewhere, such as
`cluster.tree_to_json`'s `clusters.json`, `comparison.csv` and the
hex-line traces of `save_hexlines`.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import secrets
import struct
from dataclasses import dataclass
from typing import Optional

from .model import (FIELD_TYPES, GroundTruth, IngestionError, Message,
                    Segmentation, UsageError)

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
        linktype = struct.unpack(order + "I", header[20:24])[0]
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
            if not line.isascii():
                raise IngestionError(f"{path}:{lineno}: non-ASCII byte in a hex-line file")
            body = line.split("#", 1)[0]
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


def _parse_cut_map(data, path: str, allow_records: bool):
    """Decode {"<id>": [cuts] | [field records]} with JSON-path errors."""
    if not isinstance(data, dict):
        raise IngestionError(f"{path}: $: expected an object at the top level")
    cuts_by_id = {}
    labels_by_id = {}
    for key in data:
        where = f"{path}: $.{key}"
        try:
            mid = int(key)
        except ValueError:
            raise IngestionError(f"{where}: key is not a decimal message id") from None
        entries = data[key]
        if not isinstance(entries, list):
            raise IngestionError(f"{where}: expected an array")
        if entries and all(isinstance(e, dict) for e in entries):
            if not allow_records:
                raise IngestionError(f"{where}: field records are only valid in ground truth")
            records = []
            for i, rec in enumerate(entries):
                if not {"start", "end"} <= rec.keys():
                    raise IngestionError(f"{where}[{i}]: field record needs start and end")
                if not (isinstance(rec["start"], int) and isinstance(rec["end"], int)):
                    raise IngestionError(f"{where}[{i}]: start and end must be integers")
                records.append(rec)
            records.sort(key=lambda r: r["start"])
            ends = [r["end"] for r in records]
            cuts_by_id[mid] = tuple(sorted(set(ends[:-1])))
            labels = tuple(str(r.get("type", "unknown")) for r in records)
            if not set(labels) <= FIELD_TYPES:
                bad = sorted(set(labels) - FIELD_TYPES)
                raise IngestionError(f"{where}: unknown field type {bad[0]!r}")
            labels_by_id[mid] = labels
        else:
            for i, c in enumerate(entries):
                if not isinstance(c, int) or isinstance(c, bool):
                    raise IngestionError(f"{where}[{i}]: expected an integer cut offset")
            cuts_by_id[mid] = tuple(entries)
    return cuts_by_id, labels_by_id


def _validate_cuts(cuts_by_id: dict, messages, what: str) -> list:
    """Segmentations of a cut map by message id, checked against the trace when given."""
    try:
        segs = [Segmentation(mid, cuts_by_id[mid]) for mid in sorted(cuts_by_id)]
        if messages is not None:
            GroundTruth(cuts=cuts_by_id).validate_against(messages)
    except UsageError as exc:
        raise IngestionError(f"{what}: {exc}") from None
    return segs


def load_ground_truth(path: str, messages=None) -> GroundTruth:
    """Ground truth JSON, validated against the trace when given."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    cuts_by_id, labels_by_id = _parse_cut_map(data, path, allow_records=True)
    _validate_cuts(cuts_by_id, messages, f"{path}: ground truth")
    return GroundTruth(cuts=cuts_by_id, labels=labels_by_id)


def load_segmentation(path: str, messages=None) -> list:
    """Segmentation JSON as a list ordered by message id."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    cuts_by_id, _ = _parse_cut_map(data, path, allow_records=False)
    return _validate_cuts(cuts_by_id, messages, f"{path}: segmentation")


def _write_atomic(path: str, pieces) -> None:
    """Write an iterable of strings to a temporary file and rename it into place.

    The temporary file is created with mode 0o666 less the umask, as
    `open` creates a file, so the artifact gets the usual permissions.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    while True:
        tmp = os.path.join(directory, f"{os.path.basename(path)}.{secrets.token_hex(6)}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text_atomic(path: str, *texts: str) -> None:
    """Write the texts one after another and rename into place."""
    _write_atomic(path, texts)


# JSON values the C encoder writes without a nested container
_SCALARS = (str, int, float, type(None))


def _flat(items) -> bool:
    return all(map(isinstance, items, itertools.repeat(_SCALARS)))


def _records(items) -> bool:
    """True for a list of non-empty plain dicts with scalar values only.

    Any other list, dict subclasses included, goes through `_walk`,
    which writes the same text.
    """
    return (isinstance(items, (list, tuple)) and set(map(type, items)) == {dict}
            and all(items) and _flat(itertools.chain.from_iterable(map(dict.values, items))))


@functools.lru_cache(maxsize=64)
def _c_encoder(indent: str) -> json.JSONEncoder:
    """The C encoder, compact except that items are separated by ",\n" + indent."""
    return json.JSONEncoder(separators=(",\n" + indent, ": "))


def _json_key(key) -> str:
    """A dict key as `json.dumps` turns it into a string."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _inline(obj, level: int):
    """Indented text of obj when the C encoder writes it in one call, else None.

    That is a scalar, an empty container, a container of scalars, or a
    list of non-empty flat dicts; the C encoder's item separator then
    carries the indent of the container's items.  With ensure_ascii no
    string holds a raw newline, so "},\n" + indent + "{" in its output
    is always a record boundary.
    """
    is_list = isinstance(obj, (list, tuple))
    if not (is_list or isinstance(obj, dict)):
        return _c_encoder("").encode(obj)
    if not obj:
        return "[]" if is_list else "{}"
    outer = "\n" + " " * level
    inner = outer + " "
    if _flat(obj if is_list else obj.values()):
        text = _c_encoder(inner[1:]).encode(obj)
        return text[0] + inner + text[1:-1] + outer + text[-1]
    if _records(obj):
        field = inner + " "
        text = _c_encoder(field[1:]).encode(obj)
        text = text[2:-2].replace("}," + field + "{", inner + "}," + inner + "{" + field)
        return "[" + inner + "{" + field + text + inner + "}" + outer + "]"
    return None


def _walk(obj, level: int):
    """Pieces of a container that `_inline` does not write, item by item."""
    is_list = isinstance(obj, (list, tuple))
    outer = "\n" + " " * level
    inner = outer + " "
    items = enumerate(obj) if is_list else obj.items()
    for i, (key, value) in enumerate(items):
        head = ("[" if is_list else "{") if i == 0 else ","
        head += inner if is_list else (
            inner + json.encoder.encode_basestring_ascii(_json_key(key)) + ": ")
        text = _inline(value, level + 1)
        if text is None:
            yield head
            yield from _walk(value, level + 1)
        else:
            yield head + text
    yield outer + ("]" if is_list else "}")


def _json_pieces(obj):
    """Pieces of `json.dumps(obj, indent=1, separators=(",", ": "))`.

    That call runs the pure-Python encoder because of the indent; here
    the C encoder writes every part that `_inline` accepts.
    """
    text = _inline(obj, 0)
    if text is None:
        return _walk(obj, 0)
    return (text,)


def write_json_atomic(path: str, obj) -> None:
    """Serialize deterministically and rename into place.

    The file holds `json.dumps(obj, indent=1, separators=(",", ": "))`
    and a newline.
    """
    _write_atomic(path, itertools.chain(_json_pieces(obj), ("\n",)))


def _cut_map_text(cuts_by_id: dict) -> str:
    """`json.dumps` text (indent=1) of {"<id>": [cuts]} in message-id order."""
    if not cuts_by_id:
        return "{}"
    entries = ['"%d": [\n  %s\n ]' % (mid, ",\n  ".join(map(str, cuts))) if cuts
               else '"%d": []' % mid
               for mid, cuts in sorted(cuts_by_id.items())]
    return "{\n " + ",\n ".join(entries) + "\n}"


def save_segmentation(path: str, segmentations) -> None:
    """Write segmentations with canonical (numeric) key order."""
    write_text_atomic(path, _cut_map_text({seg.message_id: seg.cuts for seg in segmentations}),
                      "\n")


def save_ground_truth(path: str, truth: GroundTruth) -> None:
    """Write the cuts of ground truth in the segmentation format."""
    write_text_atomic(path, _cut_map_text(truth.cuts), "\n")


def save_hexlines(path: str, messages) -> None:
    """Write a trace in the hex-line fixture format (atomic)."""
    write_text_atomic(path, "".join(msg.payload.hex() + "\n" for msg in messages))
