"""Canberra dissimilarity between segments and per-cluster overlay alignment.

The Canberra distance between equal-length byte vectors,

    sum_i |u_i - v_i| / (u_i + v_i)        (term = 0 when u_i = v_i = 0),

is extended to vectors of differing length by sliding the shorter one
over the longer and charging a penalty of 1.0 (the maximum per-byte
Canberra term) for every unmatched byte:

    dissimilarity(s, t) = (min_o canberra(s, t[o:o+m]) + (n - m)) / n

with m = len(shorter), n = len(longer).  The result lies in [0, 1] and
is symmetric; the minimizing offset is where the shorter vector matches
best.  Aligning every member of a cluster against the cluster medoid at
these offsets superimposes the segments at their most comparable
positions and yields the rectangular data matrix the covariance is
computed from.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .model import DegenerateClusterError, UsageError

# per-unmatched-byte penalty of the length-tolerant dissimilarity
UNMATCHED_PENALTY = 1.0

# soft cap on the a*b*m broadcast used by the blocked pairwise kernel
_BLOCK_BUDGET = 32_000_000


def canberra(u, v) -> float:
    """Canberra distance between equal-length nonnegative vectors."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.ndim != 1 or v.ndim != 1 or u.size == 0:
        raise UsageError("canberra needs two non-empty 1-d vectors")
    if u.size != v.size:
        raise UsageError(f"canberra needs equal lengths, got {u.size} and {v.size}")
    num = np.abs(u - v)
    den = u + v
    return float(np.sum(np.divide(num, den, out=np.zeros_like(num), where=den > 0)))


def dissimilarity(s, t) -> tuple:
    """Length-tolerant Canberra dissimilarity and best-match offset.

    Returns (value in [0,1], offset of the shorter vector within the
    longer, smallest offset on ties).  Symmetric in its arguments.
    """
    u = np.asarray(bytearray(s) if isinstance(s, (bytes, bytearray)) else s, dtype=float)
    v = np.asarray(bytearray(t) if isinstance(t, (bytes, bytearray)) else t, dtype=float)
    if u.size == 0 or v.size == 0:
        raise UsageError("dissimilarity needs non-empty vectors")
    short, long_ = (u, v) if u.size <= v.size else (v, u)
    m, n = short.size, long_.size
    best_value = np.inf
    best_offset = 0
    for o in range(n - m + 1):
        c = canberra(short, long_[o:o + m])
        if c < best_value:
            best_value = c
            best_offset = o
    value = (best_value + (n - m) * UNMATCHED_PENALTY) / n
    return float(value), best_offset


def _block_values(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Pairwise dissimilarity values between row vectors of A (a,m) and B (b,n), m <= n."""
    a, m = A.shape
    b, n = B.shape
    rows_per_chunk = max(1, _BLOCK_BUDGET // max(1, b * m))
    out = np.empty((a, b))
    for lo in range(0, a, rows_per_chunk):
        hi = min(a, lo + rows_per_chunk)
        X = A[lo:hi, None, :]
        best = np.full((hi - lo, b), np.inf)
        for o in range(n - m + 1):
            Y = B[None, :, o:o + m]
            num = np.abs(X - Y)
            den = X + Y
            np.divide(num, den, out=num, where=den > 0)  # den = 0 only where num = 0
            np.minimum(best, num.sum(axis=2), out=best)
        out[lo:hi] = best
    return (out + (n - m) * UNMATCHED_PENALTY) / n


def pairwise(values) -> np.ndarray:
    """Full symmetric dissimilarity matrix over a list of byte sequences.

    Identical values are computed once; the matrix is expanded from the
    unique-value matrix, so traces with many repeated segments stay cheap.
    """
    keys = [bytes(v) for v in values]
    index = {}
    inverse = []
    for k in keys:
        if k not in index:
            index[k] = len(index)
        inverse.append(index[k])
    uniq = list(index)
    u = len(uniq)
    U = np.zeros((u, u))

    by_len = defaultdict(list)
    for i, k in enumerate(uniq):
        by_len[len(k)].append(i)
    lengths = sorted(by_len)
    arrays = {
        L: (np.array(idx), np.frombuffer(b"".join(uniq[i] for i in idx), dtype=np.uint8)
            .reshape(len(idx), L).astype(float))
        for L, idx in ((L, by_len[L]) for L in lengths)
    }
    for ai, La in enumerate(lengths):
        ia, A = arrays[La]
        for Lb in lengths[ai:]:
            ib, B = arrays[Lb]
            vals = _block_values(A, B)
            U[np.ix_(ia, ib)] = vals
            if La != Lb:
                U[np.ix_(ib, ia)] = vals.T
    np.fill_diagonal(U, 0.0)

    inv = np.array(inverse)
    return U[np.ix_(inv, inv)]


@dataclass(frozen=True)
class Overlay:
    """A cluster's members placed at their best-match relative offsets.

    Member i occupies relative positions [shifts[i], shifts[i]+len);
    the minimum shift is normalized to 0.  `reference` indexes the
    medoid the others were aligned against.
    """

    members: tuple
    shifts: tuple
    width: int
    reference: int


def overlay_cluster(members, dist: np.ndarray = None) -> Overlay:
    """Align a cluster on its medoid.

    The medoid is the member with the smallest total dissimilarity to
    all others (lowest index on ties).  Each member is shifted to where
    the shorter of (member, medoid) best matches the longer.
    """
    members = list(members)
    if len(members) < 2:
        raise UsageError("overlay needs at least 2 members")
    values = [m.values for m in members]
    if dist is None:
        dist = pairwise(values)
    totals = dist.sum(axis=1)
    reference = int(np.argmin(totals))  # argmin returns the first = lowest index
    ref_values = values[reference]

    offset_of = {}
    rel = []
    for v in values:
        key = bytes(v)
        if key not in offset_of:
            if len(v) == len(ref_values) and key == bytes(ref_values):
                offset_of[key] = 0
            else:
                _, o = dissimilarity(v, ref_values)
                offset_of[key] = o if len(v) <= len(ref_values) else -o
        rel.append(offset_of[key])

    low = min(rel)
    shifts = tuple(r - low for r in rel)
    width = max(s + len(v) for s, v in zip(shifts, values))
    return Overlay(members=tuple(members), shifts=shifts, width=width, reference=reference)


@dataclass(frozen=True)
class DataMatrix:
    """Rectangular byte-value matrix of an overlay.

    Rows are members; columns are the relative positions observed by at
    least half the members (column_map gives the position per column).
    Cells a member does not observe hold the column mean of the observed
    cells and are False in `mask`.
    """

    X: np.ndarray
    mask: np.ndarray
    column_map: np.ndarray


def build_matrix(ov: Overlay) -> DataMatrix:
    """Data matrix of an overlay, keeping positions observed by a majority."""
    n = len(ov.members)
    quorum = (n + 1) // 2
    starts = np.array(ov.shifts)
    ends = starts + np.array([len(m) for m in ov.members])

    positions = np.arange(ov.width)
    observed = (positions >= starts[:, None]) & (positions < ends[:, None])
    keep = observed.sum(axis=0) >= quorum
    if not keep.any():
        raise DegenerateClusterError("no overlay column observed by a majority of members")

    column_map = positions[keep]
    mask = observed[:, keep]
    X = np.zeros((n, column_map.size))
    for i, member in enumerate(ov.members):
        row = np.frombuffer(member.values, dtype=np.uint8).astype(float)
        cols = mask[i]
        X[i, cols] = row[column_map[cols] - starts[i]]
    col_means = np.where(mask, X, 0.0).sum(axis=0) / mask.sum(axis=0)
    X = np.where(mask, X, col_means[None, :])
    return DataMatrix(X=X, mask=mask, column_map=column_map)
