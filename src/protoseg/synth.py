"""Synthetic binary-protocol traces with exact ground truth.

Deterministic under the spec's seed, so fixtures and acceptance runs
are reproducible bit for bit.  Numeric fields default to big-endian
(network byte order), which makes small values carry leading null
bytes, the structure the null-byte rules key on.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass
from importlib import resources
from itertools import accumulate

from .model import GroundTruth, Message, Segmentation, SpecError, UsageError
from .traceio import load_json

KIND_CONST = "const"
KIND_UINT = "uint"
KIND_ENUM = "enum"
KIND_FLAGS = "flags"
KIND_CHARS = "chars"
KIND_PADDING = "padding"
KIND_LENGTH_OF = "length_of"
KIND_PAYLOAD = "payload"

_VARIABLE_KINDS = (KIND_CHARS, KIND_PAYLOAD)

_KINDS = frozenset({KIND_CONST, KIND_UINT, KIND_ENUM, KIND_FLAGS, KIND_CHARS, KIND_PADDING,
                    KIND_LENGTH_OF, KIND_PAYLOAD})

_DEFAULT_CHARSET = string.ascii_letters + string.digits

# most bytes one field may emit: a flags or padding width, a chars or
# payload hi (the bundled specs use at most 12)
MAX_FIELD_BYTES = 65_535


@dataclass(frozen=True)
class FieldSpec:
    """One field of a synthetic protocol.

    kind-specific settings: const uses `value` (bytes); uint uses
    `width` and the value range [lo, hi]; enum draws one byte from
    `values`; flags emits `width` random bytes; chars draws a length
    from [lo, hi] over `charset` (plus a terminator when
    null_terminated); padding emits `width` nulls; length_of emits the
    byte length of the earlier field named `ref`; payload draws random
    bytes with length in [lo, hi].
    """

    name: str
    kind: str
    value: bytes = b""
    width: int = 1
    lo: int = 0
    hi: int = 0
    values: tuple = ()
    charset: str = _DEFAULT_CHARSET
    null_terminated: bool = False
    ref: str = ""
    optional: bool = False


@dataclass(frozen=True)
class ProtocolSpec:
    name: str
    fields: tuple
    message_count: int = 100
    rng_seed: int = 1
    endianness: str = "big"

    def __post_init__(self):
        _validate_spec(self)


def _validate_spec(spec: ProtocolSpec) -> None:
    """Every setting has its type and range; an integer is an int, never a bool."""
    if not (type(spec.message_count) is int and spec.message_count >= 0):
        raise SpecError(f"message_count must be a non-negative integer: {spec.message_count!r}")
    if type(spec.rng_seed) is not int:
        raise SpecError(f"rng_seed must be an integer: {spec.rng_seed!r}")
    if spec.endianness not in ("big", "little"):
        raise SpecError("endianness must be 'big' or 'little'")
    seen = {}
    non_const = False
    for f in spec.fields:
        if f.kind not in _KINDS:
            raise SpecError(f"field {f.name!r}: unknown kind {f.kind!r}")
        if not {int}.issuperset(map(type, (f.width, f.lo, f.hi, *f.values))):
            raise SpecError(f"field {f.name!r}: width, lo, hi and values must be integers")
        if not {bool}.issuperset(map(type, (f.optional, f.null_terminated))):
            raise SpecError(f"field {f.name!r}: optional and null_terminated must be booleans")
        if f.kind != KIND_CONST:
            non_const = True
        if f.kind == KIND_CONST and len(f.value) == 0:
            raise SpecError(f"field {f.name!r}: const needs a non-empty value")
        if f.kind in (KIND_UINT, KIND_LENGTH_OF) and not (1 <= f.width <= 4):
            raise SpecError(f"field {f.name!r}: width must be in 1..4")
        if f.kind in (KIND_FLAGS, KIND_PADDING) and not (1 <= f.width <= MAX_FIELD_BYTES):
            raise SpecError(f"field {f.name!r}: width must be in 1..{MAX_FIELD_BYTES}")
        if f.kind == KIND_UINT:
            if not (0 <= f.lo <= f.hi < 256 ** f.width):
                raise SpecError(f"field {f.name!r}: uint range incompatible with width {f.width}")
        if f.kind == KIND_ENUM:
            if not f.values or not all(0 <= v <= 255 for v in f.values):
                raise SpecError(f"field {f.name!r}: enum needs byte values")
        if f.kind == KIND_CHARS and not (1 <= f.lo <= f.hi <= MAX_FIELD_BYTES):
            raise SpecError(f"field {f.name!r}: chars needs 1 <= lo <= hi <= {MAX_FIELD_BYTES}")
        if f.kind == KIND_CHARS and not (isinstance(f.charset, str) and f.charset
                                         and max(map(ord, f.charset)) < 256):
            raise SpecError(f"field {f.name!r}: charset must be a non-empty string of"
                            " code points below 256")
        if f.kind == KIND_PAYLOAD and not (0 <= f.lo <= f.hi <= MAX_FIELD_BYTES):
            raise SpecError(f"field {f.name!r}: payload needs 0 <= lo <= hi <= {MAX_FIELD_BYTES}")
        if f.kind == KIND_LENGTH_OF:
            target = seen.get(f.ref)
            if target is None or target.kind not in _VARIABLE_KINDS:
                raise SpecError(
                    f"field {f.name!r}: length_of must reference an earlier variable-length field")
            if target.hi + (target.kind == KIND_CHARS and target.null_terminated) >= 256 ** f.width:
                raise SpecError(f"field {f.name!r}: width {f.width} cannot hold the length of"
                                f" {f.ref!r}")
        seen[f.name] = f
    if spec.fields and not non_const:
        raise SpecError("a protocol of only const fields has no variance to analyze")


def _emit(f: FieldSpec, rng: random.Random, emitted: dict, endianness: str) -> bytes:
    if f.kind == KIND_CONST:
        return f.value
    if f.kind == KIND_UINT:
        return rng.randint(f.lo, f.hi).to_bytes(f.width, endianness)
    if f.kind == KIND_ENUM:
        return bytes([rng.choice(f.values)])
    if f.kind == KIND_FLAGS:
        return bytes(rng.randrange(256) for _ in range(f.width))
    if f.kind == KIND_CHARS:
        n = rng.randint(f.lo, f.hi)
        text = bytes(ord(rng.choice(f.charset)) for _ in range(n))
        return text + b"\x00" if f.null_terminated else text
    if f.kind == KIND_PADDING:
        return b"\x00" * f.width
    if f.kind == KIND_LENGTH_OF:
        return len(emitted.get(f.ref, b"")).to_bytes(f.width, endianness)
    if f.kind == KIND_PAYLOAD:
        # bytes 0x01..0xff: an opaque body must not fake null delimiters
        return bytes(rng.randint(1, 255) for _ in range(rng.randint(f.lo, f.hi)))
    raise SpecError(f"unknown kind {f.kind!r}")


def generate(spec: ProtocolSpec) -> tuple:
    """Deterministic trace plus ground truth whose cuts are the field ends."""
    rng = random.Random(spec.rng_seed)
    messages = []
    cuts_by_id = {}
    for mid in range(spec.message_count):
        emitted = {}
        parts = []
        for f in spec.fields:
            if f.optional and rng.random() < 0.5:
                continue
            data = _emit(f, rng, emitted, spec.endianness)
            emitted[f.name] = data
            if data:
                parts.append(data)
        payload = b"".join(parts)
        if not payload:
            raise SpecError(f"spec {spec.name!r} generated an empty message (id {mid})")
        cuts_by_id[mid] = tuple(accumulate(map(len, parts[:-1])))
        messages.append(Message(id=mid, payload=payload, source=f"synth:{spec.name}:{mid}"))
    return messages, GroundTruth(cuts=cuts_by_id)


def perturb(truth: GroundTruth, messages, delta: int, fraction: float,
            seed: int = 0) -> list:
    """Copy the true cuts, shifting a seeded fraction of them by delta.

    A shift is skipped when it would leave the payload range or collide
    with another cut of the working set; that cut stays unshifted.
    Returns one Segmentation per message, ordered by id.
    """
    if not 0.0 <= fraction <= 1.0:
        raise UsageError("fraction must lie in [0, 1]")
    lengths = {m.id: len(m.payload) for m in messages}
    rng = random.Random(seed)
    out = []
    for mid in sorted(truth.cuts):
        cuts = list(truth.cuts[mid])
        working = set(cuts)
        for c in cuts:
            if rng.random() >= fraction:
                continue
            target = c + delta
            if not (0 < target < lengths[mid]) or target in working:
                continue
            working.discard(c)
            working.add(target)
        out.append(Segmentation(mid, tuple(sorted(working))))
    return out


def spec_from_json(data: dict) -> ProtocolSpec:
    try:
        fields = []
        for entry in data["fields"]:
            kwargs = dict(entry)
            if "value" in kwargs:
                kwargs["value"] = bytes.fromhex(kwargs["value"])
            if "values" in kwargs:
                kwargs["values"] = tuple(kwargs["values"])
            fields.append(FieldSpec(**kwargs))
        return ProtocolSpec(
            name=data["name"],
            fields=tuple(fields),
            message_count=data.get("message_count", 100),
            rng_seed=data.get("rng_seed", 1),
            endianness=data.get("endianness", "big"),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SpecError(f"malformed protocol spec: {exc}") from None


def load_spec(path: str) -> ProtocolSpec:
    return spec_from_json(load_json(path, SpecError))


def reference_specs() -> dict:
    """The bundled reference protocols, keyed by name.

    Six specs spanning the usual protocol properties: fixed structure,
    mixed fixed/variable, embedded char sequences, null-separated
    fields, tightly packed fields, and optional fields.
    """
    out = {}
    base = resources.files(__package__) / "specs"
    for entry in sorted(base.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            spec = spec_from_json(json.loads(entry.read_text(encoding="utf-8")))
            out[spec.name] = spec
    return out
