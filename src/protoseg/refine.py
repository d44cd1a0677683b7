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

The base segmenters map one message.  `run_pipeline` then lays the
trace out once, as a `JoinedTrace` (`join_trace`): the payloads joined
in trace order, each message's offset and every segment's edges in
them, and a flag per position that marks the cuts.  Every pass maps
that layout to a new one, `(trace, knobs...) -> trace`, by setting and
clearing cut flags (`JoinedTrace.recut` derives the rest), so a pass's
edits (`_diff_edits`) are the positions whose flags changed, and the
segmentations are read from the last layout.  `run_pipeline` calls each
pass once per trace; when a pass raises, it calls the same pass again
on each message's own layout, and a message that still fails keeps its
cuts.

`entropy_merge` finds the entropies of all segments, and of the spans
each greedy step merges, with one sort per step (`_span_entropies`; one
`bincount` when a step merges one span).  Each entropy still comes from
its key, the byte counts in byte-value order, through one formula, so
it has the bits a per-span computation gives.  `crop_distinct` counts
segment values once over the trace and finds each frequent value's
occurrences in the joined payloads.  The PCA pass clusters the bytes of
every segment and hands each suitable leaf to the rules; the rules and
`clusters.json` read a member's message and bounds back from the layout
by the member's segment index.

The bit-congruence segmenter builds its Gaussian kernel once per
sigma (`gaussian_kernel` is memoized and hands out one read-only
array).  Null runs and printable runs are found by regular expressions
on the payload bytes.
"""

from __future__ import annotations

import functools
import logging
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import attrgetter
from typing import NamedTuple, Optional

import numpy as np

from .cluster import _POPCOUNT, DEFAULT_MAX_DEPTH, PCA_SUITABLE, recursive_cluster
from .dissim import distinct_values
from .model import (AnalysisParams, Message, ProtosegError, Segmentation, UsageError,
                    refuse_non_numbers)
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


def null_refine(trace: JoinedTrace) -> JoinedTrace:
    """Relocate cuts near null runs to the run edge the nulls belong to.

    Only moves existing cuts (the nearest one within one byte of the
    run); never adds or removes any.  Only the messages with a cut and
    a null byte are scanned.
    """
    offsets = trace.offsets
    nulls = np.frombuffer(trace.joined, dtype=np.uint8) == 0
    rows = np.unique(offsets.searchsorted(nulls.nonzero()[0], "right") - 1)
    is_cut = trace.is_cut.copy()
    for r in rows[np.diff(trace.first)[rows] > 1].tolist():
        base, end = offsets[r:r + 2].tolist()
        for (a, b), target in _null_run_targets(trace.joined[base:end]):
            if target is None or is_cut[base + target]:
                continue
            lo = base + a - 1  # a run that leaves a target starts at 1 or later
            near = (lo + is_cut[lo:min(base + b + 2, end)].nonzero()[0]).tolist()
            if near:
                is_cut[min(near, key=lambda c: (abs(c - base - target), c))] = False
                is_cut[base + target] = True
    return trace.recut(is_cut)


@functools.lru_cache
def gaussian_kernel(sigma: float) -> np.ndarray:
    """Normalized Gaussian kernel of std sigma and radius ceil(3 sigma); one read-only array."""
    if sigma <= 0:
        raise UsageError("sigma must be positive")
    radius = math.ceil(3 * sigma)
    support = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 * (support / sigma) ** 2)
    kernel /= kernel.sum()
    kernel.flags.writeable = False
    return kernel


def bit_congruence_segmenter(msg: Message, sigma: float = 0.9) -> Segmentation:
    """Cut where the smoothed bit-congruence delta bottoms out before rising.

    Bit congruence of adjacent bytes is the fraction of equal bits; its
    delta series is smoothed with a Gaussian kernel (std sigma, radius
    ceil(3 sigma)) and a cut is placed after every local minimum that is
    followed by a rising edge.
    """
    kernel = gaussian_kernel(sigma)
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


class _Entropies(dict):
    """Normalized byte entropy by key, each computed on first use.

    A key is the nonzero counts of a span's byte values, in byte-value
    order.  The entropy depends only on the counts, and their order
    fixes the order of the sum, so one key always gives the same bits.
    """

    def __missing__(self, key: tuple) -> float:
        n = sum(key)
        p = np.array(key, dtype=np.intp) / n
        h = float(-np.add.reduce(p * np.log2(p))) / math.log2(min(n, 256)) if n > 1 else 0.0
        self[key] = h
        return h


def _span_entropies(data: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                    entropies: _Entropies):
    """The entropy of each span data[starts[k]:ends[k]], read from `entropies`.

    One sort of span index * 256 + byte groups each span's bytes by
    value, so the run lengths of the sorted keys are every span's key.
    The key of a span of distinct bytes is (1,) * its length, so only
    spans with a repeated byte build theirs one by one.
    Spans may overlap.  A single span, as most greedy steps of a short
    trace merge, takes its counts from one `bincount` of its bytes and
    comes back as a one-element list.
    """
    if starts.size == 1:
        (a,), (b,) = starts.tolist(), ends.tolist()
        counts = np.bincount(data[a:b])
        return [entropies[tuple(counts[counts > 0].tolist())]]
    lengths = ends - starts
    bounds = np.cumsum(lengths)  # where each span's bytes end once gathered
    gather = np.arange(bounds[-1]) + np.repeat(starts - bounds + lengths, lengths)
    keys = np.repeat(np.arange(0, 256 * starts.size, 256), lengths) + data[gather]
    keys.sort()
    change = np.empty(keys.size, dtype=bool)
    change[0] = True
    np.not_equal(keys[1:], keys[:-1], out=change[1:])
    first = change.nonzero()[0]  # the first byte of each (span, value) run
    distinct = np.bincount(keys[first] >> 8, minlength=starts.size)
    runs = np.empty(first.size, dtype=np.intp)
    np.subtract(first[1:], first[:-1], out=runs[:-1])
    runs[-1] = keys.size - first[-1]
    h = np.empty(starts.size)
    plain = distinct == lengths
    sizes = lengths[plain].tolist()
    by_size = {n: entropies[(1,) * n] for n in set(sizes)}
    h[plain] = list(map(by_size.__getitem__, sizes))
    rest = (~plain).nonzero()[0]
    if rest.size:
        counts = runs.tolist()
        h[rest] = [entropies[tuple(counts[a:a + d])] for a, d in
                   zip((np.cumsum(distinct) - distinct)[rest].tolist(), distinct[rest].tolist())]
    return h


class JoinedTrace(NamedTuple):
    """A trace's segments as positions in its payloads joined in trace order.

    Message r (its index in the trace) covers offsets[r] up to
    offsets[r + 1] of `joined`, and its segments are first[r] up to
    first[r + 1]; segment k covers edges[k] up to edges[k + 1].  Both
    offsets and first end with a sentinel, so consecutive messages share
    the edge between them.  is_cut flags the cuts, positions of `joined`
    (with one more position, its end), so a position inside one message
    never reads another's cut; at_cut[k] tells whether segment k starts
    at a cut rather than at its message's first byte.  ids[r] is message
    r's id.  is_cut is the state a pass changes: `recut` derives edges,
    first and at_cut from it, and a pass never writes into the arrays of
    the trace it is given.
    """

    joined: bytes
    offsets: np.ndarray
    edges: np.ndarray
    first: np.ndarray
    at_cut: np.ndarray
    is_cut: np.ndarray
    ids: np.ndarray

    def recut(self, is_cut: np.ndarray) -> JoinedTrace:
        """The same payloads cut where is_cut is set, which holds no message start."""
        starts = is_cut.copy()
        starts[self.offsets] = True
        edges = starts.nonzero()[0]
        return self._replace(edges=edges, first=edges.searchsorted(self.offsets),
                             at_cut=is_cut[edges[:-1]], is_cut=is_cut)

    def message(self, r: int) -> JoinedTrace:
        """The layout of message r alone."""
        a, b = self.offsets[r:r + 2].tolist()
        return JoinedTrace(self.joined[a:b], self.offsets[r:r + 2] - a, None, None, None, None,
                           self.ids[r:r + 1]).recut(self.is_cut[a:b + 1])

    def segmentations(self) -> list:
        """One `Segmentation` per message, in trace order."""
        row = np.repeat(np.arange(self.ids.size), np.diff(self.first))
        cuts = (self.edges[:-1] - self.offsets[row])[self.at_cut].tolist()
        ends = np.cumsum(np.bincount(row[self.at_cut], minlength=self.ids.size)).tolist()
        return list(map(Segmentation, self.ids.tolist(),
                        map(tuple, map(cuts.__getitem__, map(slice, [0] + ends[:-1], ends)))))

    def segments(self, index) -> tuple:
        """(message rows, starts, ends) of the segments at index, the positions in `joined`."""
        index = np.asarray(index, dtype=np.intp)
        rows = self.first.searchsorted(index, "right") - 1
        return rows, self.edges[index], self.edges[index + 1]


def join_trace(segmentations: list, messages: list) -> JoinedTrace:
    """The segments of segmentations[i] over messages[i], for every i, as one `JoinedTrace`.

    A cut at or beyond its payload's end raises the `UsageError` of
    `Segmentation.validate_against`.
    """
    n = len(messages)
    payloads = [msg.payload for msg in messages]
    sizes = np.fromiter(map(len, payloads), np.intp, n)
    offsets = np.zeros(n + 1, np.intp)
    np.cumsum(sizes, out=offsets[1:])
    ncuts = np.fromiter(map(len, map(attrgetter("cuts"), segmentations)), np.intp, n)
    cuts = np.fromiter(chain.from_iterable(seg.cuts for seg in segmentations),
                       dtype=np.intp, count=int(ncuts.sum()))
    row = np.repeat(np.arange(n), ncuts)
    beyond = np.flatnonzero(cuts >= sizes[row])
    if beyond.size:
        k = int(row[beyond[0]])
        segmentations[k].validate_against(messages[k])
    is_cut = np.zeros(offsets[-1] + 1, dtype=bool)
    is_cut[offsets[row] + cuts] = True
    return JoinedTrace(b"".join(payloads), offsets, None, None, None, None,
                       np.fromiter(map(attrgetter("id"), messages), np.intp, n)).recut(is_cut)


def entropy_merge(trace: JoinedTrace, floor: float = 0.6, diff: float = 0.1) -> JoinedTrace:
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
    if not trace.at_cut.any():
        return trace
    starts, ends, at_cut = trace.edges[:-1], trace.edges[1:], trace.at_cut
    data = np.frombuffer(trace.joined, dtype=np.uint8)
    entropies = _Entropies()
    h = _span_entropies(data, starts, ends, entropies)

    # chain j runs over segments lo[j]..hi[j] of one message and takes
    # hi[j] - lo[j] steps; longest first, so the chains still stepping
    # are always the first `live` ones
    pair = (h[:-1] >= floor) & (h[1:] >= floor) & at_cut[1:]
    edge = np.diff(pair.view(np.int8), prepend=0, append=0)
    lo, hi = np.flatnonzero(edge == 1), np.flatnonzero(edge == -1)
    order = np.argsort(lo - hi, kind="stable")
    lo, steps = lo[order], (hi - lo)[order].tolist()
    h_a, span_start, nxt = h[lo], starts[lo], lo + 1
    joins = []  # the segments that joined the span before them
    live = len(steps)
    for step in range(1, steps[0] + 1 if steps else 1):
        if steps[live - 1] < step:
            while steps[live - 1] < step:
                live -= 1
            h_a, span_start, nxt = h_a[:live], span_start[:live], nxt[:live]
        # h_a is -inf for a merged span below the floor, which then merges
        # with nothing; every segment of a chain is at the floor or above
        h_b = h[nxt]
        merge = np.abs(h_a - h_b) <= diff
        joined = nxt[merge]
        if joined.size:
            joins.append(joined)
            h_b[merge] = [x if x >= floor else -np.inf for x in
                          _span_entropies(data, span_start[merge], ends[joined], entropies)]
        if joined.size < live:  # a chain that did not merge starts a span at nxt
            span_start = np.where(merge, span_start, starts[nxt])
        h_a = h_b  # the merged span's entropy, or the next segment's
        nxt += 1

    if not joins:
        return trace
    is_cut = trace.is_cut.copy()
    is_cut[starts[np.concatenate(joins)]] = False  # a merged segment's cut goes
    return trace.recut(is_cut)


def merge_chars(trace: JoinedTrace) -> JoinedTrace:
    """Merge adjacent segments whose concatenation still looks like text."""
    is_cut = trace.is_cut.copy()
    edges, first = trace.edges.tolist(), trace.first.tolist()
    for r in np.flatnonzero(np.diff(trace.first) > 1).tolist():
        bounds = edges[first[r]:first[r + 1] + 1]
        i = 0
        while i + 1 < len(bounds) - 1:
            if char_heuristic(trace.joined[bounds[i]:bounds[i + 2]]):
                is_cut[bounds.pop(i + 1)] = False
            else:
                i += 1
    return trace.recut(is_cut)


def crop_chars(trace: JoinedTrace, min_run: int = 6) -> JoinedTrace:
    """Cut embedded text runs out of larger segments.

    Within each segment of at least min_run bytes, maximal runs of
    printable bytes of at least min_run length are carved out; a single
    terminating null stays with the run.

    One scan of the joined payloads finds the maximal runs, and a
    segment's runs are those runs clipped to it; segments end where
    their messages do, so the clipping also splits a run that crosses
    from one message into the next.
    """
    pattern = re.compile(_CHAR_CLASS + b"{%d,}" % min_run)
    spans = [run.span() for run in pattern.finditer(trace.joined)]
    if not spans:
        return trace
    run_start, run_end = np.array(spans, dtype=np.intp).T
    edges = trace.edges
    # each run against every segment it overlaps
    lo = edges.searchsorted(run_start, "right") - 1
    count = edges.searchsorted(run_end) - lo
    ends = np.cumsum(count)
    segment = np.arange(ends[-1]) + np.repeat(lo - ends + count, count)
    s, e = edges[segment], edges[segment + 1]
    start = np.maximum(np.repeat(run_start, count), s)
    end = np.minimum(np.repeat(run_end, count), e)
    keep = end - start >= min_run
    data = np.frombuffer(trace.joined, dtype=np.uint8)
    end += (end < e) & (data.take(end, mode="clip") == 0)  # keep the terminator with the text
    is_cut = trace.is_cut.copy()
    is_cut[start[keep & (start > s)]] = True
    is_cut[end[keep & (end < e)]] = True
    return trace.recut(is_cut)


def crop_distinct(trace: JoinedTrace, min_fraction: float = 0.10,
                  min_messages: int = 3) -> JoinedTrace:
    """Carve trace-wide frequent segment values out of larger segments.

    A value of length >= 2 is distinct-frequent when it occurs as a
    segment in at least max(min_fraction of the messages, min_messages)
    messages.  Longest values first, leftmost non-overlapping
    occurrences.

    The values are counted once over the trace, and each frequent
    value's occurrences are then found in the joined payloads at once.
    """
    edges = trace.edges
    sizes = np.diff(edges)
    pieces = np.flatnonzero(sizes >= 2)
    values = list(map(trace.joined.__getitem__, map(slice, edges[pieces].tolist(),
                                                     edges[pieces + 1].tolist())))
    distinct, inverse = distinct_values(values)
    owner = trace.first.searchsorted(pieces, "right") - 1  # each piece's message row
    order = np.lexsort((owner, inverse))  # each value's owners, ascending
    held, owner = inverse[order], owner[order]
    new = np.ones(order.size, dtype=bool)  # the first time a message holds the value
    new[1:] = (held[1:] != held[:-1]) | (owner[1:] != owner[:-1])
    holders = np.bincount(held[new], minlength=len(distinct))
    threshold = max(min_fraction * trace.ids.size, min_messages)
    frequent = sorted(map(distinct.__getitem__, np.flatnonzero(holders >= threshold).tolist()),
                      key=lambda v: (-len(v), v))
    if not frequent:
        return trace

    # Each value, longest first, claims its occurrences left to right that
    # lie inside a longer segment and overlap no claim made before; claims
    # are positions in the joined payloads, so they never meet across
    # segments, and the ones made so far are disjoint and kept in order.
    data = np.frombuffer(trace.joined, dtype=np.uint8)
    claim_start = claim_end = np.zeros(0, dtype=np.intp)
    is_cut = trace.is_cut.copy()
    for value in frequent:
        size = len(value)
        at = np.flatnonzero(data[:data.size - size + 1] == value[0])
        for j in range(1, size):
            at = at[data[at + j] == value[j]]
        segment = edges.searchsorted(at, "right") - 1
        inside = (at + size <= edges[segment + 1]) & (sizes[segment] > size)
        at, segment = at[inside], segment[inside]
        if claim_start.size:  # the first claim ending after `at` starts at its end or later
            later = claim_end.searchsorted(at, "right")
            free = (later == claim_start.size) | (claim_start.take(later, mode="clip")
                                                  >= at + size)
            at, segment = at[free], segment[free]
        if at.size > 1 and np.diff(at).min() < size:  # occurrences of this value overlap
            last, keep = -size, []
            for p in at.tolist():
                keep.append(p >= last + size)
                if keep[-1]:
                    last = p
            at, segment = at[keep], segment[keep]
        claim_start = np.concatenate((claim_start, at))
        order = np.argsort(claim_start, kind="stable")
        claim_start, claim_end = claim_start[order], np.concatenate((claim_end, at + size))[order]
        is_cut[at[at > edges[segment]]] = True
        is_cut[(at + size)[at + size < edges[segment + 1]]] = True
    return trace.recut(is_cut)


def split_fixed(trace: JoinedTrace, chunk: int = 2) -> JoinedTrace:
    """Split a non-text first segment into fixed-size chunks.

    A trailing piece shorter than the chunk size stays attached to the
    last chunk, so no fragment shorter than the chunk size is emitted.
    """
    if chunk < 1:
        raise UsageError("chunk size must be at least 1")
    start, end = trace.offsets[:-1], trace.edges[trace.first[:-1] + 1]
    rows = np.flatnonzero(end - start >= 2 * chunk)
    text = np.fromiter(map(char_heuristic, map(trace.joined.__getitem__, map(
        slice, start[rows].tolist(), end[rows].tolist()))), bool, rows.size)
    rows = rows[~text]
    # the cuts chunk, 2 chunk, ... of each first segment, numbered across the trace
    count = (end - start)[rows] // chunk - 1
    origin = start[rows] - chunk * (np.cumsum(count) - count)
    is_cut = trace.is_cut.copy()
    is_cut[chunk * np.arange(1, count.sum() + 1) + np.repeat(origin, count)] = True
    return trace.recut(is_cut)


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
        refuse_non_numbers(self)
        if not isinstance(self.analysis, AnalysisParams):
            raise UsageError(f"analysis must be an AnalysisParams, not {self.analysis!r}")
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
    """Refined segmentations and edit log; a pca pass's tree indexes the segments of trace."""

    segmentations: list
    edits: list
    tree: Optional[list] = None
    trace: Optional[JoinedTrace] = None


def _diff_edits(old: JoinedTrace, new: JoinedTrace, provenance: str) -> list:
    """The edits of one static pass, per message in trace order.

    old and new lay out the same payloads; the positions where their
    cut flags differ are the added and the removed cuts, both ascending
    by message and offset.
    """
    changed = np.flatnonzero(old.is_cut != new.is_cut)
    if not changed.size:
        return []
    rows = new.offsets.searchsorted(changed, "right") - 1
    cut = changed - new.offsets[rows]
    added = new.is_cut[changed]
    add_row, add_cut = rows[added], cut[added]
    rm_row, rm_cut = rows[~added], cut[~added]
    # a static pass only adds, only removes or only moves cuts (null_refine),
    # so equal counts of added and removed cuts are moves, paired in order
    n = new.ids.size
    move = np.bincount(add_row, minlength=n) == np.bincount(rm_row, minlength=n)
    moved, kept = move[add_row], ~move[rm_row]
    src = np.zeros(add_cut.size, np.intp)  # 0 for an add: a cut is never at offset 0
    src[moved] = rm_cut[~kept]
    # per message: its moves or adds, in cut order, then its removes
    row = np.concatenate((add_row, rm_row[kept]))
    order = np.argsort(row * 2 + (np.arange(row.size) >= add_row.size), kind="stable")
    srcs = np.concatenate((src, np.full(int(kept.sum()), -1)))[order].tolist()
    return list(map(BoundaryEdit, new.ids[row[order]].tolist(),
                    np.concatenate((add_cut, rm_cut[kept]))[order].tolist(),
                    [MOVE if o > 0 else ADD if o == 0 else REMOVE for o in srcs],
                    [o if o > 0 else None for o in srcs], repeat(provenance)))


def _pca_pass(trace: JoinedTrace, config: PipelineConfig):
    edges = trace.edges.tolist()
    values = list(map(trace.joined.__getitem__, map(slice, edges[:-1], edges[1:])))
    params = config.analysis
    roots = recursive_cluster(values, params, config.max_depth)

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
                for k in common_aligned_cuts(leaf, trace):
                    positions.append((k, "common_aligned"))
                proposals.extend(cluster_edits(leaf, positions, trace))
            except ProtosegError as exc:
                logger.warning("skipping cluster of %d segments: %s", len(leaf.members), exc)
    new, applied = apply_edits(proposals, trace)
    return new, applied, roots


def _isolated(pass_name: str, op, args: list, trace: JoinedTrace) -> JoinedTrace:
    """op(trace, *args), or, when that raises, op on one message at a time.

    A message the pass fails on keeps its cuts, and the failure is
    logged.
    """
    try:
        return op(trace, *args)
    except ProtosegError:
        pass
    flags = []
    for r, mid in enumerate(trace.ids.tolist()):
        one = trace.message(r)
        try:
            one = op(one, *args)
        except ProtosegError as exc:
            logger.warning("pass %s failed on message %d: %s", pass_name, mid, exc)
        flags.append(one.is_cut[:-1])
    flags.append(trace.is_cut[-1:])
    return trace.recut(np.concatenate(flags))


def run_pipeline(messages: list, pipeline: Pipeline,
                 external: Optional[list] = None) -> PipelineResult:
    """Run a base segmenter and refinement chain over a trace.

    The trace is laid out once, after the base segmenter, and every pass
    maps that `JoinedTrace` to a new one; the segmentations are read
    from the last.  Per-message pass failures are logged and leave that
    message's cuts unchanged; they never abort the trace.  A message id
    that occurs twice, in the trace or in `external`, is refused, and so
    is an external segmentation of a message the trace does not hold.
    """
    cfg = pipeline.config
    if not messages:
        return PipelineResult(segmentations=[], edits=[], tree=None)
    ids = Counter(m.id for m in messages)
    if len(ids) < len(messages):
        repeated = next(mid for mid, count in ids.items() if count > 1)
        raise UsageError(f"message id {repeated} occurs more than once in the trace")

    if pipeline.base == BASE_NULL_BYTES:
        segs = [null_segmenter(m) for m in messages]
    elif pipeline.base == BASE_BIT_CONGRUENCE:
        segs = [bit_congruence_segmenter(m, cfg.sigma) for m in messages]
    else:
        if external is None:
            raise UsageError("external base requires a segmentation list")
        for mid, count in Counter(s.message_id for s in external).items():
            if count > 1 or mid not in ids:
                why = "more than once" if count > 1 else "but the trace does not hold it"
                raise UsageError(f"the external segmentation names message id {mid} {why}")
        by_id = {s.message_id: s for s in external}
        segs = [by_id.get(m.id, Segmentation(m.id, ())) for m in messages]
    trace = join_trace(segs, messages)  # refuses a cut at or beyond its payload's end

    knobs = {  # built per call, so a pass replaced on the module is the one called
        PASS_ENTROPY_MERGE: (entropy_merge, cfg.entropy_floor, cfg.entropy_diff),
        PASS_NULL_REFINE: (null_refine,),
        PASS_MERGE_CHARS: (merge_chars,),
        PASS_CROP_CHARS: (crop_chars, cfg.char_min_run),
        PASS_SPLIT_FIXED: (split_fixed, cfg.chunk),
    }
    provenance_of = {PASS_NULL_REFINE: "nullbytes"}

    edits: list = []
    tree = clustered = None
    for pass_name in pipeline.passes:
        if pass_name == PASS_PCA:
            clustered = trace
            trace, applied, tree = _pca_pass(trace, cfg)
            edits.extend(applied)
            continue
        if pass_name == PASS_CROP_DISTINCT:
            new = crop_distinct(trace, cfg.distinct_min_fraction, cfg.distinct_min_messages)
        else:
            op, *args = knobs[pass_name]
            new = _isolated(pass_name, op, args, trace)
        edits.extend(_diff_edits(trace, new, provenance_of.get(pass_name, pass_name)))
        trace = new
    return PipelineResult(segmentations=trace.segmentations(), edits=edits, tree=tree,
                          trace=clustered)
