"""Boundary inference from a suitable cluster's eigen spectrum.

The loadings of the significant PCs are condensed into the
maximum-loading vector

    m_k = max over significant PCs i of |w_{i,k}|,

one value per overlaid byte position.  Two predicates on m mark field
boundaries:

  rule A (field end)    a relevant contribution followed by a steep
                        relative drop: m_{k-1} > contrib_floor,
                        m_k <= contrib_floor, and
                        (m_{k-1} - m_k) / m_{k-1} > delta_min.

  rule B (field start)  a variance surge after a prolonged quiet run:
                        m_{k-j} < near_zero for j = 1..quiet_len,
                        m_k > notable, and
                        (m_k - m_{k-1}) / m_k > delta_min.

A third, PCA-independent condition cuts at relative offsets where the
aligned starts and ends of the members' raw segments pile up more than
at the direct neighbors.  All relative positions are finally translated
back to absolute per-message offsets; an existing cut one byte away is
moved (the dominant near-match error of coarse segmenters is exactly
one byte), otherwise a cut is added.

The bookkeeping around a cluster works on trace-wide arrays, not member
by member.  It takes the cluster's leaf: its members, segment indices
into the trace's `refine.JoinedTrace`, and its overlay, one shift per
member.  The layout is the one the PCA pass slices its segments from:
every message's boundaries as positions in the payloads joined end to
end, with a flag per position that marks the cuts.  Each member's
message row, start and end are read from it.  `common_aligned_cuts`
counts the boundaries of all members with one `bincount`,
`cluster_edits` decides every (member, position) pair of a members x
positions grid at once, and `apply_edits` sets and clears those flags
and returns the layout recut.

Every pass logs its edits as one `EDIT` array, a row per edit, and
`edit_records` turns a pipeline's whole log into `edits.json` records.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise
from typing import TYPE_CHECKING

import numpy as np

from .cluster import ClusterNode
from .model import AnalysisParams, NoSignalError
from .pca import PcaResult

if TYPE_CHECKING:  # refine imports this module
    from .refine import JoinedTrace

# in the order `apply_edits` settles a conflict: a move before an add before a remove
KINDS = ("move", "add", "remove")
MOVE, ADD, REMOVE = range(len(KINDS))

# an edit: its message id, offset, index into KINDS, old offset (0 for no
# move: a cut is never at 0) and provenance, the rule or pass that made it
EDIT = np.dtype([("message", np.int64), ("offset", np.int64), ("kind", np.int8),
                 ("old_offset", np.int64), ("provenance", object)])


@dataclass(frozen=True)
class ContributionVector:
    """Per-position maximum absolute loading over the significant PCs."""

    m: np.ndarray
    n_sig: int


def edit_log(message, offset, kind, old_offset, provenance) -> np.ndarray:
    """An `EDIT` array from its columns; a scalar fills its column."""
    log = np.empty(np.size(offset), EDIT)
    log["message"], log["offset"], log["kind"] = message, offset, kind
    log["old_offset"], log["provenance"] = old_offset, provenance
    return log


def edit_records(log: np.ndarray) -> list:
    """The `edits.json` records of an `EDIT` array, in order: kinds by name, None for no move."""
    return [{"message": m, "offset": o, "kind": KINDS[k], "old_offset": old or None,
             "provenance": p} for m, o, k, old, p in zip(*(log[f].tolist() for f in EDIT.names))]


def contribution(spectrum: PcaResult) -> ContributionVector:
    """Maximum-loading vector over the significant PCs."""
    if spectrum.n_sig < 1:
        raise NoSignalError("cluster has no significant principal component")
    significant = spectrum.loadings[:spectrum.n_sig]
    return ContributionVector(m=np.max(np.abs(significant), axis=0), n_sig=spectrum.n_sig)


def rule_a(contrib: ContributionVector, params: AnalysisParams = AnalysisParams()) -> list:
    """Positions where a relevant contribution drops off: suspected field ends."""
    m = contrib.m
    out = []
    for k in range(1, m.size):
        if m[k - 1] > params.contrib_floor and m[k] <= params.contrib_floor \
                and (m[k - 1] - m[k]) / m[k - 1] > params.delta_min:
            out.append(k)
    return out


def rule_b(contrib: ContributionVector, params: AnalysisParams = AnalysisParams()) -> list:
    """Positions where variance surges after a quiet run: suspected field starts."""
    m = contrib.m
    if m.size < params.quiet_len + 1:
        return []
    out = []
    for k in range(params.quiet_len, m.size):
        if all(m[k - j] < params.near_zero for j in range(1, params.quiet_len + 1)) \
                and m[k] > params.notable \
                and (m[k] - m[k - 1]) / m[k] > params.delta_min:
            out.append(k)
    return out


def _members(node: ClusterNode, trace: JoinedTrace) -> tuple:
    """(message rows, joined position of each member's relative 0, member starts, ends there)."""
    rows, start, end = trace.segments(node.members)
    return rows, start - np.array(node.overlay.shifts, dtype=np.intp), start, end


def common_aligned_cuts(node: ClusterNode, trace: JoinedTrace) -> list:
    """Relative offsets where member boundaries pile up above both neighbors.

    The members are node's, placed at its overlay's shifts.  A member's
    boundaries are those of its message, 0 and the payload length
    included.  A position is reported when it is a strict local maximum
    of the boundary count and at least half the members share it.  Each
    member's boundaries within relative 0..width are one run of
    `trace.edges`, clipped to its message, so one `bincount` of all
    these runs counts them.
    """
    n, width = len(node.members), node.overlay.width
    rows, origin, _, _ = _members(node, trace)
    edges, first = trace.edges, trace.first
    lo = np.maximum(edges.searchsorted(origin), first[rows])
    # the member's own start and end lie in its run, so none is empty
    count = np.minimum(edges.searchsorted(origin + width, "right"), first[rows + 1] + 1) - lo
    ends = np.cumsum(count)
    rel = edges[np.arange(ends[-1]) + np.repeat(lo - ends + count, count)]
    rel -= np.repeat(origin, count)
    padded = np.bincount(rel + 1, minlength=width + 3)  # counts[k] at k + 1, a zero either side
    counts = padded[1:-1]
    peak = (counts > np.maximum(padded[:-2], padded[2:])) & (counts >= (n + 1) // 2)
    return peak.nonzero()[0].tolist()


def cluster_edits(node: ClusterNode, positions, trace: JoinedTrace) -> np.ndarray:
    """Translate relative boundary positions into per-message edits, an `EDIT` array.

    positions is a list of (relative position, provenance).  For a
    member with shift d and start s, position k maps to offset
    a = s - d + k.  An existing cut exactly one byte away is moved to a;
    an absent cut is added; edits outside (0, len) or at positions the
    member does not observe are dropped.  One members x positions grid
    decides every pair at once, and the edits come out member by member,
    each member's in the order of `positions`.
    """
    if not positions:
        return np.empty(0, EDIT)
    ks, provenances = zip(*positions)
    rows, origin, start, end = _members(node, trace)
    offsets, is_cut = trace.offsets, trace.is_cut
    base = offsets[rows]
    # the member observes a = start..end, and a must be interior to its message
    lo = np.maximum(start, base + 1)
    hi = np.minimum(end, offsets[rows + 1] - 1)
    target = origin[:, None] + np.array(ks, dtype=np.intp)
    # a target outside its message is clipped for the read, then dropped
    keep = (target >= lo[:, None]) & (target <= hi[:, None]) & ~is_cut.take(target, mode="clip")
    member, column = keep.nonzero()  # row-major: member by member, positions in order
    target = target[member, column]
    # a+1 first: rule positions sit just before the member's end
    # boundary, which is the cut that drifted one byte late
    after, before = is_cut[target + 1], is_cut[target - 1]
    target -= base[member]
    # the cut that moves, or 0 for an add (a cut is never at offset 0)
    old = np.where(after, target + 1, np.where(before, target - 1, 0))
    return edit_log(trace.ids[rows[member]], target, np.where(old > 0, MOVE, ADD), old,
                    np.array(provenances, dtype=object)[column])


def apply_edits(edits: np.ndarray, trace: JoinedTrace) -> tuple:
    """Apply an `EDIT` array trace-wide, ordered by its fields from message to provenance.

    Conflicting edits resolve to the first in that order: a move whose
    source cut is gone or whose target is taken is dropped, as is an add
    on an existing cut.  So is an edit for a message the trace does not
    hold, or at an offset outside its message's interior.  Returns
    (the trace recut, the applied edits in that order).
    """
    edits = edits[np.lexsort((edits["provenance"], edits["old_offset"], edits["kind"],
                              edits["offset"], edits["message"]))]
    bounds = dict(zip(trace.ids.tolist(), pairwise(trace.offsets.tolist())))
    is_cut = bytearray(trace.is_cut)  # one flag byte per position, read and set as ints
    applied = []
    columns = (edits[f].tolist() for f in ("message", "offset", "kind", "old_offset"))
    for i, (mid, offset, kind, old) in enumerate(zip(*columns)):
        base, end = bounds.get(mid, (0, 0))
        at, src = base + offset, base + old
        if not base < at < end:
            continue
        if kind == ADD and not is_cut[at]:
            is_cut[at] = True
        elif kind == MOVE and base < src < end and is_cut[src] and not is_cut[at]:
            is_cut[src], is_cut[at] = False, True
        elif kind == REMOVE and is_cut[at]:
            is_cut[at] = False
        else:
            continue
        applied.append(i)
    return trace.recut(np.frombuffer(is_cut, dtype=bool)), edits[applied]
