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

The base segmenters map one message.  Every static pass maps a whole
trace, `(segmentations, messages, knobs...) -> segmentations`, where
segmentations[i] is the cut set of messages[i], and returns a message's
`Segmentation` object itself when it leaves its cuts as they are.
`run_pipeline` calls each pass once per trace; when a pass raises, it
calls the same pass again on one message at a time, and a message that
still fails keeps its cuts.  `entropy_merge` finds the entropies of all
segments, and of the spans each greedy step merges, with one sort per
step (`_span_entropies`).  Each entropy still comes from its key, the
byte counts in byte-value order, through one formula, so it has the
bits a per-span computation gives.  The bit-congruence segmenter reads
its Gaussian kernel from a table keyed by sigma that `run_pipeline`
creates empty for each run.  Null runs and printable runs are found by
regular expressions on the payload bytes.
"""

from __future__ import annotations

import logging
import math
import re
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional

import numpy as np

from .cluster import DEFAULT_MAX_DEPTH, PCA_SUITABLE, recursive_cluster
from .model import (AnalysisParams, Message, ProtosegError, Segmentation,
                    UsageError, segments_of)
from .rules import (ADD, MOVE, REMOVE, BoundaryEdit, apply_edits, cluster_edits,
                    common_aligned_cuts, contribution, rule_a, rule_b)

logger = logging.getLogger(__name__)

CHAR_BYTES = frozenset({0x09, 0x0A, 0x0D} | set(range(0x20, 0x7F)))
_CHARS = bytes(sorted(CHAR_BYTES))
# the same bytes as a regular-expression class
_CHAR_CLASS = b"[" + re.escape(_CHARS) + b"]"

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
    return len(data) >= 3 and not data.translate(None, _CHARS)


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


def null_refine(segmentations: list, messages: list) -> list:
    """Relocate cuts near null runs to the run edge the nulls belong to.

    Only moves existing cuts (the nearest one within one byte of the
    run); never adds or removes any.  A message without cuts or without
    a null byte is left as it is.
    """
    out = list(segmentations)
    for k, (seg, msg) in enumerate(zip(segmentations, messages)):
        if not seg.cuts or 0 not in msg.payload:
            continue
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
        if moved:
            out[k] = Segmentation(msg.id, tuple(sorted(cuts)))
    return out


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


class _Entropies(dict):
    """Normalized byte entropy by `_byte_counts` key, each computed on first use.

    The entropy depends only on the counts, and their byte-value order
    fixes the order of the sum, so one key always gives the same bits.
    """

    def __missing__(self, key: tuple) -> float:
        counts = np.array(key, dtype=np.intp)
        n = int(counts.sum())
        h = 0.0
        if n > 1:
            p = counts / n
            h = float(-(p * np.log2(p)).sum()) / math.log2(min(n, 256))
        self[key] = h
        return h


def _entropy(data: bytes) -> float:
    """Shannon entropy of the byte values, normalized to [0, 1]; 0 for one byte or none."""
    return _Entropies()[_byte_counts(data)]


def _span_entropies(data: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                    entropies: _Entropies) -> np.ndarray:
    """The entropy of each span data[starts[k]:ends[k]], read from `entropies`.

    One sort of span index * 256 + byte groups each span's bytes by
    value, so the run lengths of the sorted keys are every span's
    `_byte_counts`.  The key of a span of distinct bytes is (1,) * its
    length, so only spans with a repeated byte build theirs one by one.
    Spans may overlap.
    """
    lengths = ends - starts
    span = np.repeat(np.arange(starts.size), lengths)
    offset = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths - starts, lengths)
    keys = np.sort(span * 256 + data[offset])
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    distinct = np.bincount(keys[first] >> 8, minlength=starts.size)
    h = np.empty(starts.size)
    plain = distinct == lengths
    sizes, size_of = np.unique(lengths[plain], return_inverse=True)
    h[plain] = np.array([entropies[(1,) * n] for n in sizes.tolist()])[size_of]
    counts = np.diff(np.r_[first, keys.size]).tolist()
    rest = np.flatnonzero(~plain)
    h[rest] = [entropies[tuple(counts[a:a + d])] for a, d in
               zip((np.cumsum(distinct) - distinct)[rest].tolist(), distinct[rest].tolist())]
    return h


def entropy_merge(segmentations: list, messages: list,
                  floor: float = 0.6, diff: float = 0.1) -> list:
    """Merge adjacent segments of similar, high local entropy.

    Left-to-right greedy within each message; the merged segment is
    re-evaluated.  The floor keeps distinct constant fields (both
    entropy 0) apart.

    A merge needs both sides at or above the floor, so the greedy splits
    into independent chains: maximal runs of adjacent segments of one
    message whose entropies reach the floor.  All chains of the trace
    take their greedy steps together, and each step finds the entropies
    of its merged spans with one `_span_entropies` call.
    """
    out = list(segmentations)
    if not any(seg.cuts for seg in segmentations):
        return out
    ncuts = np.array([len(seg.cuts) for seg in segmentations])
    cuts = np.fromiter(chain.from_iterable(seg.cuts for seg in segmentations),
                       dtype=np.intp, count=int(ncuts.sum()))
    lengths = np.array([len(msg.payload) for msg in messages])
    data = np.frombuffer(b"".join(msg.payload for msg in messages), dtype=np.uint8)

    # every segment of the trace in order, as offsets into data;
    # a segment other than its message's first starts at a cut
    starts = np.repeat(np.cumsum(lengths) - lengths, ncuts + 1)
    at_cut = np.ones(starts.size, dtype=bool)
    at_cut[np.cumsum(ncuts + 1) - (ncuts + 1)] = False
    starts[at_cut] += cuts
    ends = np.r_[starts[1:], data.size]
    entropies = _Entropies()
    h = _span_entropies(data, starts, ends, entropies)

    # chain j runs over segments lo[j]..hi[j] of one message
    pair = (h[:-1] >= floor) & (h[1:] >= floor) & at_cut[1:]
    edge = np.diff(np.r_[0, pair.view(np.int8), 0])
    lo, hi = np.flatnonzero(edge == 1), np.flatnonzero(edge == -1)
    merged = np.zeros(starts.size, dtype=bool)  # the segment joined the one before it
    h_a, span_start, nxt = h[lo], starts[lo], lo + 1
    while nxt.size:
        h_b = h[nxt]  # every segment of a chain is at the floor or above
        merge = (h_a >= floor) & (np.abs(h_a - h_b) <= diff)
        if merge.any():
            joined = nxt[merge]
            merged[joined] = True
            h_b[merge] = _span_entropies(data, span_start[merge], ends[joined], entropies)
        h_a = h_b  # the merged span's entropy, or the next segment's
        span_start = np.where(merge, span_start, starts[nxt])
        nxt += 1
        live = nxt <= hi
        h_a, span_start, nxt, hi = h_a[live], span_start[live], nxt[live], hi[live]

    gone = merged[at_cut]  # one flag per cut, in the order of `cuts`
    owner = np.repeat(np.arange(ncuts.size), ncuts)
    kept = cuts[~gone].tolist()
    kept_end = np.cumsum(ncuts - np.bincount(owner[gone], minlength=ncuts.size)).tolist()
    for k in np.unique(owner[gone]).tolist():
        start = kept_end[k - 1] if k else 0
        out[k] = Segmentation(out[k].message_id, tuple(kept[start:kept_end[k]]))
    return out


def merge_chars(segmentations: list, messages: list) -> list:
    """Merge adjacent segments whose concatenation still looks like text."""
    out = []
    for seg, msg in zip(segmentations, messages):
        payload = msg.payload
        bounds = [0, *seg.cuts, len(payload)]
        i = 0
        while i + 1 < len(bounds) - 1:
            if char_heuristic(payload[bounds[i]:bounds[i + 2]]):
                del bounds[i + 1]
            else:
                i += 1
        out.append(seg if len(bounds) == len(seg.cuts) + 2
                   else Segmentation(msg.id, tuple(bounds[1:-1])))
    return out


def _with_added(seg: Segmentation, cuts: set) -> Segmentation:
    """The result of an add-only pass that grew seg's cuts to `cuts`: seg when it added none."""
    if len(cuts) == len(seg.cuts):
        return seg
    return Segmentation(seg.message_id, tuple(sorted(cuts)))


def crop_chars(segmentations: list, messages: list, min_run: int = 6) -> list:
    """Cut embedded text runs out of larger segments.

    Within each segment of at least min_run bytes, maximal runs of
    printable bytes of at least min_run length are carved out; a single
    terminating null stays with the run.

    One scan of the joined payloads finds each message's maximal runs;
    a segment's runs are those runs clipped to it.
    """
    out = list(segmentations)
    bases = [0]  # where each payload starts in the joined scan, after a null separator
    for msg in messages:
        bases.append(bases[-1] + len(msg.payload) + 1)
    runs = defaultdict(list)
    pattern = re.compile(_CHAR_CLASS + b"{%d,}" % min_run)
    for run in pattern.finditer(b"\x00".join(m.payload for m in messages)):
        a, b = run.span()
        k = bisect_right(bases, a) - 1
        runs[k].append((a - bases[k], b - bases[k]))
    for k, spans in runs.items():
        seg, payload = segmentations[k], messages[k].payload
        cuts = set(seg.cuts)
        bounds = (0, *seg.cuts, len(payload))
        for run_start, run_end in spans:
            i = bisect_right(bounds, run_start)  # the run starts in bounds[i - 1]:bounds[i]
            while bounds[i - 1] < run_end:
                s, e = bounds[i - 1], bounds[i]
                i += 1
                start, end = max(run_start, s), min(run_end, e)
                if end - start < min_run:
                    continue
                if start > s:
                    cuts.add(start)
                if end < e and payload[end] == 0:
                    end += 1  # keep the terminator with the text
                if end < e:
                    cuts.add(end)
        out[k] = _with_added(seg, cuts)
    return out


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


def split_fixed(segmentations: list, messages: list, chunk: int = 2) -> list:
    """Split a non-text first segment into fixed-size chunks.

    A trailing piece shorter than the chunk size stays attached to the
    last chunk, so no fragment shorter than the chunk size is emitted.
    """
    if chunk < 1:
        raise UsageError("chunk size must be at least 1")
    out = []
    for seg, msg in zip(segmentations, messages):
        first_end = seg.cuts[0] if seg.cuts else len(msg.payload)
        new = range(chunk, first_end - chunk + 1, chunk)
        if new and not char_heuristic(msg.payload[:first_end]):
            seg = Segmentation(seg.message_id, (*new, *seg.cuts))
        out.append(seg)
    return out


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


def _diff_edits(old_segs: list, new_segs: list, provenance: str) -> list:
    """The edits of one static pass, per message in trace order.

    A message the pass left as it was keeps its `Segmentation` object
    and gets none.
    """
    edits = []
    for old, new in zip(old_segs, new_segs):
        if new is old:
            continue
        added = sorted(set(new.cuts).difference(old.cuts))
        removed = sorted(set(old.cuts).difference(new.cuts))
        mid = new.message_id
        # a static pass only adds, only removes or only moves cuts (null_refine),
        # so equal counts of added and removed cuts are moves, paired in order
        if len(added) == len(removed):
            edits += [BoundaryEdit(mid, dst, MOVE, src, provenance)
                      for src, dst in zip(removed, added)]
        else:
            edits += [BoundaryEdit(mid, c, ADD, None, provenance) for c in added]
            edits += [BoundaryEdit(mid, c, REMOVE, None, provenance) for c in removed]
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


def _isolated(pass_name: str, op, args: list, segs: list, messages: list) -> list:
    """op(segs, messages, *args), or, when that raises, op on one message at a time.

    A message the pass fails on keeps its segmentation, and the failure
    is logged.
    """
    try:
        return op(segs, messages, *args)
    except ProtosegError:
        pass
    out = []
    for seg, msg in zip(segs, messages):
        try:
            out.extend(op([seg], [msg], *args))
        except ProtosegError as exc:
            logger.warning("pass %s failed on message %d: %s", pass_name, msg.id, exc)
            out.append(seg)
    return out


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

    knobs = {  # built per call, so a pass replaced on the module is the one called
        PASS_ENTROPY_MERGE: (entropy_merge, cfg.entropy_floor, cfg.entropy_diff),
        PASS_NULL_REFINE: (null_refine,),
        PASS_MERGE_CHARS: (merge_chars,),
        PASS_CROP_CHARS: (crop_chars, cfg.char_min_run),
        PASS_SPLIT_FIXED: (split_fixed, cfg.chunk),
    }
    provenance_of = {PASS_NULL_REFINE: "nullbytes"}

    edits: list = []
    tree = None
    for pass_name in pipeline.passes:
        if pass_name == PASS_PCA:
            segs, applied, tree = _pca_pass(messages, segs, cfg)
            edits.extend(applied)
            continue
        if pass_name == PASS_CROP_DISTINCT:
            new = crop_distinct(segs, messages,
                                cfg.distinct_min_fraction, cfg.distinct_min_messages)
        else:
            op, *args = knobs[pass_name]
            new = _isolated(pass_name, op, args, segs, messages)
        edits.extend(_diff_edits(segs, new, provenance_of.get(pass_name, pass_name)))
        segs = new
    return PipelineResult(segmentations=segs, edits=edits, tree=tree)
