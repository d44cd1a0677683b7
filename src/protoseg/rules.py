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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .cluster import ClusterNode
from .dissim import Overlay
from .model import AnalysisParams, NoSignalError, Segmentation
from .pca import PcaResult

ADD = "add"
MOVE = "move"
REMOVE = "remove"

_KIND_ORDER = {MOVE: 0, ADD: 1, REMOVE: 2}


@dataclass(frozen=True)
class ContributionVector:
    """Per-position maximum absolute loading over the significant PCs."""

    m: np.ndarray
    n_sig: int


class BoundaryEdit(NamedTuple):
    """One proposed cut-set change with its provenance.

    A named tuple, so it is immutable and cheap to build: a trace's
    edit log holds one per changed cut.
    """

    message_id: int
    offset: int
    kind: str
    old_offset: Optional[int] = None
    provenance: str = ""

    def sort_key(self):
        return (self.message_id, self.offset, _KIND_ORDER[self.kind],
                -1 if self.old_offset is None else self.old_offset, self.provenance)


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


def common_aligned_cuts(overlay: Overlay, boundaries_by_message: dict) -> list:
    """Relative offsets where member boundaries pile up above both neighbors.

    boundaries_by_message maps message id to every boundary offset of
    that message including 0 and the payload length.  A position is
    reported when it is a strict local maximum of the boundary count and
    at least half the members share it.
    """
    n = len(overlay.members)
    width = overlay.width
    counts = np.zeros(width + 1, dtype=int)
    for member, shift in zip(overlay.members, overlay.shifts):
        relative = {b - member.start + shift for b in boundaries_by_message[member.message_id]}
        for k in relative:
            if 0 <= k <= width:
                counts[k] += 1
    quorum = (n + 1) // 2
    out = []
    for k in range(width + 1):
        left = counts[k - 1] if k > 0 else 0
        right = counts[k + 1] if k < width else 0
        if counts[k] > left and counts[k] > right and counts[k] >= quorum:
            out.append(k)
    return out


def cluster_edits(node: ClusterNode, positions, segmentations_by_id: dict,
                  payload_len_by_id: dict) -> list:
    """Translate relative boundary positions into per-message edits.

    positions is a list of (relative position, provenance).  For a
    member with shift d and start s, position k maps to offset
    a = s - d + k.  An existing cut exactly one byte away is moved to a;
    an absent cut is added; edits outside (0, len) or at positions the
    member does not observe are dropped.
    """
    overlay = node.overlay
    edits = []
    for member, shift in zip(overlay.members, overlay.shifts):
        cuts = set(segmentations_by_id[member.message_id].cuts)
        length = payload_len_by_id[member.message_id]
        for k, provenance in positions:
            if not (shift <= k <= shift + len(member)):
                continue  # member contributed no data at this position
            a = member.start - shift + k
            if not (0 < a < length):
                continue
            if a in cuts:
                continue
            # a+1 first: rule positions sit just before the member's end
            # boundary, which is the cut that drifted one byte late
            nearby = [c for c in (a + 1, a - 1) if c in cuts]
            if nearby:
                edits.append(BoundaryEdit(member.message_id, a, MOVE,
                                          old_offset=nearby[0], provenance=provenance))
            else:
                edits.append(BoundaryEdit(member.message_id, a, ADD, provenance=provenance))
    return edits


def apply_edits(edits, segmentations: list) -> tuple:
    """Apply edits trace-wide in (message, offset) order.

    Conflicting edits resolve to the first in that order: a move whose
    source cut is gone or whose target is taken is dropped, as is an add
    on an existing cut.  Returns (new segmentations, applied edits).
    """
    cut_sets = {seg.message_id: set(seg.cuts) for seg in segmentations}
    applied = []
    for edit in sorted(edits, key=BoundaryEdit.sort_key):
        cuts = cut_sets.get(edit.message_id)
        if cuts is None:
            continue
        if edit.kind == ADD:
            if edit.offset not in cuts:
                cuts.add(edit.offset)
                applied.append(edit)
        elif edit.kind == MOVE:
            if edit.old_offset in cuts and edit.offset not in cuts:
                cuts.discard(edit.old_offset)
                cuts.add(edit.offset)
                applied.append(edit)
        elif edit.kind == REMOVE:
            if edit.offset in cuts:
                cuts.discard(edit.offset)
                applied.append(edit)
    new_segs = [Segmentation(seg.message_id, tuple(sorted(cut_sets[seg.message_id])))
                for seg in segmentations]
    return new_segs, applied
