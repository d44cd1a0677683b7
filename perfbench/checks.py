"""Correctness checks on the three artifacts of one `protoseg segment` call.

A trace passes when segments.json loads and validates against the
trace, clusters.json parses, and replaying edits.json over the preset's
base segmentation reproduces segments.json exactly, with every edit
valid at the moment it is applied.  The base segmentation is recomputed
here from the public segmenters, so the replay does not trust the
pipeline's own bookkeeping.
"""

from __future__ import annotations

import hashlib
import json
import os

from protoseg import refine, traceio
from protoseg.model import ProtosegError

ARTIFACTS = ("segments.json", "edits.json", "clusters.json")


def artifact_digests(out_dir: str) -> dict:
    """SHA-256 and size of each artifact; None for a missing file."""
    out = {}
    for name in ARTIFACTS:
        path = os.path.join(out_dir, name)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError:
            out[name] = None
            continue
        out[name] = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    return out


def base_segmentation(messages, preset: str) -> dict:
    """Cut sets of the preset's default base segmenter, keyed by message id."""
    base = refine.PRESETS[preset][0]
    if base == refine.BASE_NULL_BYTES:
        segs = [refine.null_segmenter(m) for m in messages]
    elif base == refine.BASE_BIT_CONGRUENCE:
        sigma = refine.PipelineConfig().sigma
        segs = [refine.bit_congruence_segmenter(m, sigma) for m in messages]
    else:
        raise ValueError(f"preset {preset!r} has no built-in base segmenter")
    return {s.message_id: s.cuts for s in segs}


def replay(base: dict, edits, lengths: dict) -> tuple:
    """Apply an edit log in order; returns (cuts by message id, error or None).

    An add needs a free interior offset, a move needs its source cut
    present and its target free, a remove needs its cut present.
    """
    cuts = {mid: set(c) for mid, c in base.items()}
    if not isinstance(edits, list):
        return cuts, "edits.json is not a list"
    for i, edit in enumerate(edits):
        try:
            mid, offset, kind = edit["message"], edit["offset"], edit["kind"]
            old = edit.get("old_offset")
        except (KeyError, TypeError, AttributeError):
            return cuts, f"edit {i}: malformed record"
        current = cuts.get(mid)
        if current is None:
            return cuts, f"edit {i}: unknown message {mid}"
        if not isinstance(offset, int) or not 0 < offset < lengths[mid]:
            return cuts, f"edit {i}: offset {offset} not interior to message {mid}"
        if kind == "add":
            if offset in current:
                return cuts, f"edit {i}: add on existing cut {offset} of message {mid}"
            current.add(offset)
        elif kind == "move":
            if old not in current or offset in current:
                return cuts, f"edit {i}: invalid move {old}->{offset} in message {mid}"
            current.discard(old)
            current.add(offset)
        elif kind == "remove":
            if offset not in current:
                return cuts, f"edit {i}: remove of absent cut {offset} of message {mid}"
            current.discard(offset)
        else:
            return cuts, f"edit {i}: unknown kind {kind!r}"
    return cuts, None


def check_trace(out_dir: str, messages, preset: str, base: dict):
    """Check one trace's artifacts; returns (failures, segmentations or None)."""
    failures = []
    segs = None
    try:
        segs = traceio.load_segmentation(os.path.join(out_dir, "segments.json"), messages)
    except (ProtosegError, OSError, ValueError) as exc:
        failures.append(f"segments.json: {exc}")
    if segs is not None and [s.message_id for s in segs] != [m.id for m in messages]:
        failures.append("segments.json: message ids differ from the trace")
        segs = None

    try:
        with open(os.path.join(out_dir, "clusters.json"), "r", encoding="utf-8") as fh:
            json.load(fh)
    except (OSError, ValueError) as exc:
        failures.append(f"clusters.json: {exc}")

    try:
        with open(os.path.join(out_dir, "edits.json"), "r", encoding="utf-8") as fh:
            edits = json.load(fh)
    except (OSError, ValueError) as exc:
        failures.append(f"edits.json: {exc}")
        return failures, segs
    lengths = {m.id: len(m.payload) for m in messages}
    replayed, error = replay(base, edits, lengths)
    if error:
        failures.append(f"edits.json: {error}")
    elif segs is not None:
        for seg in segs:
            if tuple(sorted(replayed[seg.message_id])) != seg.cuts:
                failures.append(f"edits.json: replay differs from segments.json "
                                f"at message {seg.message_id}")
                break
    return failures, segs
