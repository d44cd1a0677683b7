"""Base segmenters, static refinement passes, and the pipeline presets.

Two segmenters produce the coarse base segmentation: a null-byte
transition segmenter (null runs delimit fields in binary protocols) and
a bit-congruence delta segmenter (value-change heuristic over adjacent
bytes).  A chain of refinement passes then edits the cut sets; the
variance-analysis pass (pca) is the dynamic one, the rest are static
rules.  Two presets wire the chains:

    nullpca   null_bytes base; crop_chars, pca, crop_distinct, split_fixed
    nemepca   bit_congruence (or external) base; entropy_merge,
              null_bytes_refine, crop_chars, pca, crop_distinct, split_fixed

The per-message passes keep their signatures, but `run_pipeline` hands
two of them a table of what a whole run shares: the bit-congruence
segmenter reads its Gaussian kernel from a table keyed by sigma, and
`entropy_merge` reads segment entropies from a table keyed by the byte
counts in byte-value order.  Each table is keyed by all its values
depend on, so an entry always fits the call that reads it, and
`run_pipeline` creates both empty for each run, so nothing outlives the
call.  Null runs and printable runs are found by regular expressions on
the payload bytes.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cluster import DEFAULT_MAX_DEPTH, PCA_SUITABLE, recursive_cluster
from .model import (AnalysisParams, Message, ProtosegError, Segmentation,
                    UsageError, segments_of)
from .rules import (ADD, MOVE, REMOVE, BoundaryEdit, apply_edits, cluster_edits,
                    common_aligned_cuts, contribution, rule_a, rule_b)

logger = logging.getLogger(__name__)

CHAR_BYTES = frozenset({0x09, 0x0A, 0x0D} | set(range(0x20, 0x7F)))
# the same bytes as a regular-expression class
_CHAR_CLASS = b"[" + re.escape(bytes(sorted(CHAR_BYTES))) + b"]"

BASE_NULL_BYTES = "null_bytes"
BASE_BIT_CONGRUENCE = "bit_congruence"
BASE_EXTERNAL = "external"

PASS_ENTROPY_MERGE = "entropy_merge"
PASS_NULL_REFINE = "null_bytes_refine"
PASS_MERGE_CHARS = "merge_chars"
PASS_CROP_CHARS = "crop_chars"
PASS_PCA = "pca"
PASS_CROP_DISTINCT = "crop_distinct"
PASS_SPLIT_FIXED = "split_fixed"

KNOWN_PASSES = (PASS_ENTROPY_MERGE, PASS_NULL_REFINE, PASS_MERGE_CHARS,
                PASS_CROP_CHARS, PASS_PCA, PASS_CROP_DISTINCT, PASS_SPLIT_FIXED)


def char_heuristic(data: bytes) -> bool:
    """True for byte sequences that look like embedded text.

    Requires length >= 3 and every byte printable ASCII or tab/LF/CR.
    """
    if len(data) == 0:
        raise UsageError("char heuristic needs a non-empty byte sequence")
    return len(data) >= 3 and all(b in CHAR_BYTES for b in data)


_NULL_RUN = re.compile(rb"\x00+")


def _null_runs(payload: bytes):
    """Maximal runs of 0x00 as (start, end) pairs."""
    return [m.span() for m in _NULL_RUN.finditer(payload)]


def _null_run_target(payload: bytes, run, prev_end: int) -> Optional[int]:
    """Allocation boundary for a null run: run end after text, run start otherwise.

    Text keeps its terminator (the nulls merge left); in front of a
    number the nulls are its unset most significant bytes (merge right).
    Returns None when the boundary would not be an interior offset.
    """
    a, b = run
    if a == 0:
        return None  # leading nulls always merge right
    target = b if char_heuristic(payload[prev_end:a]) else a
    return target if 0 < target < len(payload) else None


def _null_run_targets(payload: bytes):
    """Each null run of the payload, in order, with its `_null_run_target`."""
    prev_end = 0
    for run in _null_runs(payload):
        yield run, _null_run_target(payload, run, prev_end)
        prev_end = run[1]


def null_segmenter(msg: Message) -> Segmentation:
    """Coarse segmentation at null-byte transitions.

    Each maximal null run contributes exactly one boundary, allocated by
    _null_run_target, so the nulls always stay attached to one of their
    neighboring segments.
    """
    # a target lies within its run and runs never touch, so the targets ascend
    cuts = [target for _, target in _null_run_targets(msg.payload) if target is not None]
    return Segmentation(msg.id, tuple(cuts))


def null_refine(seg: Segmentation, msg: Message) -> Segmentation:
    """Relocate cuts near null runs to the run edge the nulls belong to.

    Only moves existing cuts (the nearest one within one byte of the
    run); never adds or removes any.
    """
    cuts = set(seg.cuts)
    moved = False
    for (a, b), target in _null_run_targets(msg.payload):
        if target is None or target in cuts:
            continue
        candidates = [c for c in cuts if a - 1 <= c <= b + 1]
        if not candidates:
            continue
        nearest = min(candidates, key=lambda c: (abs(c - target), c))
        cuts.discard(nearest)
        cuts.add(target)
        moved = True
    if not moved:
        return seg
    return Segmentation(msg.id, tuple(sorted(cuts)))


# set bits of every byte value
_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.intp)


def gaussian_kernel(sigma: float) -> np.ndarray:
    """Normalized Gaussian smoothing kernel of std sigma and radius ceil(3 sigma)."""
    if sigma <= 0:
        raise UsageError("sigma must be positive")
    radius = math.ceil(3 * sigma)
    support = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 * (support / sigma) ** 2)
    kernel /= kernel.sum()
    return kernel


def bit_congruence_segmenter(msg: Message, sigma: float = 0.9,
                             kernels: Optional[dict] = None) -> Segmentation:
    """Cut where the smoothed bit-congruence delta bottoms out before rising.

    Bit congruence of adjacent bytes is the fraction of equal bits; its
    delta series is smoothed with a Gaussian kernel (std sigma, radius
    ceil(3 sigma)) and a cut is placed after every local minimum that is
    followed by a rising edge.  The kernel is read from `kernels`, which
    maps sigma to its `gaussian_kernel`; a missing entry is built and
    added, so one table can serve every message of a trace.  Without
    one, the kernel is built for this message only.
    """
    if kernels is None:
        kernels = {}
    kernel = kernels.get(sigma)
    if kernel is None:
        kernel = kernels[sigma] = gaussian_kernel(sigma)
    payload = msg.payload
    if len(payload) < 3:
        return Segmentation(msg.id, ())
    bits = _POPCOUNT.take(np.bitwise_xor(
        np.frombuffer(payload, dtype=np.uint8, count=len(payload) - 1),
        np.frombuffer(payload, dtype=np.uint8, offset=1)))
    # delta[j] = bc[j+1] - bc[j] with bc = (8 - bits) / 8 is the
    # congruence change at byte j+1; every value is a multiple of 1/8,
    # so this difference has the same bits.  It is written into a
    # zero-padded buffer so the smoothed series aligns index-for-index
    # with delta even when the kernel is longer than the series.
    radius = kernel.size // 2
    padded = np.zeros(len(payload) - 2 + 2 * radius)
    np.divide(bits[:-1] - bits[1:], 8.0, out=padded[radius:radius + len(payload) - 2])
    smoothed = np.convolve(padded, kernel, mode="valid")

    # a cut after delta[j] (at j + 2) where the series rises next and
    # j is the first index or no higher than its predecessor
    turn = smoothed[1:] > smoothed[:-1]
    turn[1:] &= smoothed[1:-1] <= smoothed[:-2]
    return Segmentation(msg.id, tuple((np.flatnonzero(turn) + 2).tolist()))


def _byte_counts(data: bytes) -> tuple:
    """Nonzero counts of the byte values of data, in byte-value order."""
    return tuple(map(data.count, sorted(set(data))))


def _entropy(data: bytes, table: dict) -> float:
    """Shannon entropy of the byte values, normalized to [0, 1].

    It depends only on the data's `_byte_counts`, so it is read from
    `table`, which maps those counts to the entropy; a missing entry is
    computed and added.
    """
    if len(data) <= 1:
        return 0.0
    key = _byte_counts(data)
    h = table.get(key)
    if h is None:
        counts = np.array(key, dtype=np.intp)
        n = int(counts.sum())
        p = counts / n
        h = table[key] = float(-(p * np.log2(p)).sum()) / math.log2(min(n, 256))
    return h


def entropy_merge(seg: Segmentation, msg: Message,
                  floor: float = 0.6, diff: float = 0.1,
                  table: Optional[dict] = None) -> Segmentation:
    """Merge adjacent segments of similar, high local entropy.

    Left-to-right greedy; the merged segment is re-evaluated.  The floor
    keeps distinct constant fields (both entropy 0) apart.

    Entropies are read from and added to `table` (see `_entropy`), so
    one table can serve every message of a trace.  Without one, a table
    of this message's segments is used.
    """
    if not seg.cuts:
        return seg
    payload = msg.payload
    if table is None:
        table = {}

    bounds = [0, *seg.cuts, len(payload)]
    i = 0
    h_a = _entropy(payload[:bounds[1]], table)
    while i + 2 < len(bounds):
        h_b = _entropy(payload[bounds[i + 1]:bounds[i + 2]], table)
        if h_a >= floor and h_b >= floor and abs(h_a - h_b) <= diff:
            del bounds[i + 1]
            h_a = _entropy(payload[bounds[i]:bounds[i + 1]], table)
        else:
            i += 1
            h_a = h_b
    if len(bounds) == len(seg.cuts) + 2:  # nothing merged
        return seg
    return Segmentation(msg.id, tuple(bounds[1:-1]))


def merge_chars(seg: Segmentation, msg: Message) -> Segmentation:
    """Merge adjacent segments whose concatenation still looks like text."""
    payload = msg.payload
    bounds = [0] + list(seg.cuts) + [len(payload)]
    i = 0
    while i + 1 < len(bounds) - 1:
        if char_heuristic(payload[bounds[i]:bounds[i + 2]]):
            del bounds[i + 1]
        else:
            i += 1
    return Segmentation(msg.id, tuple(bounds[1:-1]))


def _with_added(seg: Segmentation, cuts: set) -> Segmentation:
    """The result of an add-only pass that grew seg's cuts to `cuts`: seg when it added none."""
    if len(cuts) == len(seg.cuts):
        return seg
    return Segmentation(seg.message_id, tuple(sorted(cuts)))


def crop_chars(seg: Segmentation, msg: Message, min_run: int = 6) -> Segmentation:
    """Cut embedded text runs out of larger segments.

    Within each segment of at least min_run bytes, maximal runs of
    printable bytes of at least min_run length are carved out; a single
    terminating null stays with the run.
    """
    payload = msg.payload
    cuts = set(seg.cuts)
    bounds = [0, *seg.cuts, len(payload)]
    runs = re.compile(_CHAR_CLASS + b"{%d,}" % min_run)
    for s, e in zip(bounds, bounds[1:]):
        if e - s < min_run:
            continue
        for run in runs.finditer(payload, s, e):
            run_start, run_end = run.span()
            if run_end < e and payload[run_end] == 0:
                run_end += 1  # keep the terminator with the text
            for cut in (run_start, run_end):
                if s < cut < e:
                    cuts.add(cut)
    return _with_added(seg, cuts)


def crop_distinct(segmentations: list, messages: list,
                  min_fraction: float = 0.10, min_messages: int = 3) -> list:
    """Carve trace-wide frequent segment values out of larger segments.

    A value of length >= 2 is distinct-frequent when it occurs as a
    segment in at least max(min_fraction of the messages, min_messages)
    messages.  Longest values first, leftmost non-overlapping
    occurrences.
    """
    by_id = {m.id: m for m in messages}
    occurs = {}
    for seg in segmentations:
        msg = by_id[seg.message_id]
        seg.validate_against(msg)
        payload = msg.payload
        bounds = (0,) + seg.cuts + (len(payload),)
        for a, b in zip(bounds, bounds[1:]):
            if b - a >= 2:
                occurs.setdefault(payload[a:b], set()).add(msg.id)
    threshold = max(min_fraction * len(messages), min_messages)
    frequent = sorted((v for v, ids in occurs.items() if len(ids) >= threshold),
                      key=lambda v: (-len(v), v))
    if not frequent:
        return list(segmentations)

    out = []
    for seg in segmentations:
        payload = by_id[seg.message_id].payload
        cuts = set(seg.cuts)
        bounds = [0] + list(seg.cuts) + [len(payload)]
        for s, e in zip(bounds, bounds[1:]):
            data = payload[s:e]
            claimed = []
            for value in frequent:
                if len(value) >= e - s:
                    continue
                pos = 0
                while True:
                    o = data.find(value, pos)
                    if o < 0:
                        break
                    span = (o, o + len(value))
                    if any(span[0] < c[1] and c[0] < span[1] for c in claimed):
                        pos = o + 1
                        continue
                    claimed.append(span)
                    for cut in (s + span[0], s + span[1]):
                        if s < cut < e:
                            cuts.add(cut)
                    pos = span[1]
        out.append(_with_added(seg, cuts))
    return out


def split_fixed(seg: Segmentation, msg: Message, chunk: int = 2) -> Segmentation:
    """Split a non-text first segment into fixed-size chunks.

    A trailing piece shorter than the chunk size stays attached to the
    last chunk, so no fragment shorter than the chunk size is emitted.
    """
    if chunk < 1:
        raise UsageError("chunk size must be at least 1")
    payload = msg.payload
    first_end = seg.cuts[0] if seg.cuts else len(payload)
    if char_heuristic(payload[:first_end]):
        return seg
    cuts = set(seg.cuts)
    for pos in range(chunk, first_end, chunk):
        if first_end - pos >= chunk:
            cuts.add(pos)
    return _with_added(seg, cuts)


@dataclass(frozen=True)
class PipelineConfig:
    """Per-pass knobs plus the shared analysis thresholds."""

    analysis: AnalysisParams = field(default_factory=AnalysisParams)
    max_depth: int = DEFAULT_MAX_DEPTH
    sigma: float = 0.9
    chunk: int = 2
    entropy_floor: float = 0.6
    entropy_diff: float = 0.1
    char_min_run: int = 6
    distinct_min_fraction: float = 0.10
    distinct_min_messages: int = 3

    def __post_init__(self):
        for name, low in (("max_depth", 0), ("chunk", 1), ("char_min_run", 1),
                          ("distinct_min_messages", 1)):
            if not (isinstance(getattr(self, name), int) and getattr(self, name) >= low):
                raise UsageError(f"{name} must be an integer of at least {low}")
        if not 0.0 < self.sigma < math.inf:
            raise UsageError("sigma must be a positive finite number")
        for name in ("entropy_floor", "entropy_diff", "distinct_min_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise UsageError(f"{name} must lie in [0, 1]")


@dataclass(frozen=True)
class Pipeline:
    """A base segmenter plus an ordered list of refinement passes."""

    base: str
    passes: tuple
    config: PipelineConfig = field(default_factory=PipelineConfig)

    def __post_init__(self):
        if self.base not in (BASE_NULL_BYTES, BASE_BIT_CONGRUENCE, BASE_EXTERNAL):
            raise UsageError(f"unknown base segmenter {self.base!r}")
        for p in self.passes:
            if p not in KNOWN_PASSES:
                raise UsageError(f"unknown pass {p!r}")
        if list(self.passes).count(PASS_PCA) > 1:
            raise UsageError("the pca pass may appear at most once")


PRESETS = {
    "nullpca": (BASE_NULL_BYTES,
                (PASS_CROP_CHARS, PASS_PCA, PASS_CROP_DISTINCT, PASS_SPLIT_FIXED)),
    "nemepca": (BASE_BIT_CONGRUENCE,
                (PASS_ENTROPY_MERGE, PASS_NULL_REFINE, PASS_CROP_CHARS,
                 PASS_PCA, PASS_CROP_DISTINCT, PASS_SPLIT_FIXED)),
}


def preset(name: str, config: PipelineConfig = None, base: str = None) -> Pipeline:
    """Built-in pipeline by name; `base` overrides the default base segmenter."""
    if name not in PRESETS:
        raise UsageError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    default_base, passes = PRESETS[name]
    return Pipeline(base=base or default_base, passes=passes,
                    config=config or PipelineConfig())


@dataclass(frozen=True)
class PipelineResult:
    segmentations: list
    edits: list
    tree: Optional[list] = None


def _diff_edits(old: Segmentation, new: Segmentation, provenance: str) -> list:
    if old.cuts == new.cuts:
        return []
    added = sorted(set(new.cuts) - set(old.cuts))
    removed = sorted(set(old.cuts) - set(new.cuts))
    edits = []
    # a static pass only adds, only removes or only moves cuts (null_refine),
    # so equal counts of added and removed cuts are moves, paired in order
    if len(added) == len(removed):
        for src, dst in zip(removed, added):
            edits.append(BoundaryEdit(new.message_id, dst, MOVE,
                                      old_offset=src, provenance=provenance))
        return edits
    for c in added:
        edits.append(BoundaryEdit(new.message_id, c, ADD, provenance=provenance))
    for c in removed:
        edits.append(BoundaryEdit(new.message_id, c, REMOVE, provenance=provenance))
    return edits


def _pca_pass(messages: list, segmentations: list, config: PipelineConfig):
    refs = []
    for msg, seg in zip(messages, segmentations):
        refs.extend(segments_of(seg, msg))
    params = config.analysis
    roots = recursive_cluster(refs, params, config.max_depth)

    segs_by_id = {seg.message_id: seg for seg in segmentations}
    len_by_id = {msg.id: len(msg.payload) for msg in messages}
    boundaries = {
        seg.message_id: {0, len_by_id[seg.message_id]} | set(seg.cuts)
        for seg in segmentations
    }

    proposals = []
    for root in roots:
        for leaf in root.leaves():
            if leaf.verdict != PCA_SUITABLE:
                continue
            if leaf.spectrum.n_sig < 1:
                continue  # nothing varies; nothing to interpret
            try:
                contrib = contribution(leaf.spectrum)
                positions = []
                column_map = leaf.matrix.column_map
                for k in rule_a(contrib, params):
                    positions.append((int(column_map[k]), "rule_a"))
                for k in rule_b(contrib, params):
                    positions.append((int(column_map[k]), "rule_b"))
                for k in common_aligned_cuts(leaf.overlay, boundaries):
                    positions.append((k, "common_aligned"))
                proposals.extend(cluster_edits(leaf, positions, segs_by_id, len_by_id))
            except ProtosegError as exc:
                logger.warning("skipping cluster of %d segments: %s", len(leaf.members), exc)
    new_segs, applied = apply_edits(proposals, segmentations)
    return new_segs, applied, roots


def run_pipeline(messages: list, pipeline: Pipeline,
                 external: Optional[list] = None) -> PipelineResult:
    """Run a base segmenter and refinement chain over a trace.

    Per-message pass failures are logged and leave that message's
    segmentation unchanged; they never abort the trace.
    """
    cfg = pipeline.config
    if not messages:
        return PipelineResult(segmentations=[], edits=[], tree=None)

    if pipeline.base == BASE_NULL_BYTES:
        segs = [null_segmenter(m) for m in messages]
    elif pipeline.base == BASE_BIT_CONGRUENCE:
        kernels = {}  # this run's kernel table; see bit_congruence_segmenter
        segs = [bit_congruence_segmenter(m, cfg.sigma, kernels) for m in messages]
    else:
        if external is None:
            raise UsageError("external base requires a segmentation list")
        by_id = {s.message_id: s for s in external}
        segs = []
        for m in messages:
            seg = by_id.get(m.id, Segmentation(m.id, ()))
            seg.validate_against(m)
            segs.append(seg)

    entropies = {}  # this run's entropy table; see entropy_merge
    per_message = {
        PASS_ENTROPY_MERGE: lambda seg, msg: entropy_merge(
            seg, msg, cfg.entropy_floor, cfg.entropy_diff, entropies),
        PASS_NULL_REFINE: null_refine,
        PASS_MERGE_CHARS: merge_chars,
        PASS_CROP_CHARS: lambda seg, msg: crop_chars(seg, msg, cfg.char_min_run),
        PASS_SPLIT_FIXED: lambda seg, msg: split_fixed(seg, msg, cfg.chunk),
    }
    provenance_of = {PASS_NULL_REFINE: "nullbytes"}

    edits: list = []
    tree = None
    for pass_name in pipeline.passes:
        if pass_name == PASS_PCA:
            segs, applied, tree = _pca_pass(messages, segs, cfg)
            edits.extend(applied)
        elif pass_name == PASS_CROP_DISTINCT:
            new = crop_distinct(segs, messages,
                                cfg.distinct_min_fraction, cfg.distinct_min_messages)
            for old, cur in zip(segs, new):
                edits.extend(_diff_edits(old, cur, "crop_distinct"))
            segs = new
        else:
            op = per_message[pass_name]
            provenance = provenance_of.get(pass_name, pass_name)
            new = []
            for msg, seg in zip(messages, segs):
                try:
                    cur = op(seg, msg)
                except ProtosegError as exc:
                    logger.warning("pass %s failed on message %d: %s", pass_name, msg.id, exc)
                    cur = seg
                edits.extend(_diff_edits(seg, cur, provenance))
                new.append(cur)
            segs = new
    return PipelineResult(segmentations=segs, edits=edits, tree=tree)
