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

The per-byte term is spelled once, in `_terms`: `canberra` sums it and
`_TERMS` tabulates it for all 256x256 byte pairs.  Every sum of terms
adds them left to right with one accumulator, starting from the first
term.  `dissimilarity` (one pair) reads each offset's terms from the
table as Python floats and folds them without numpy; `pairwise` (whole
blocks of segments) gathers the terms of one byte position for every
pair of a block at a time and adds these position arrays in order.  So
every entry of `pairwise` holds the same bits that `dissimilarity`
gives for its pair, and both hold the bits of `canberra`.  The term is
symmetric, so blocks of equal-length segments compute only the upper
half and mirror it.
A block has at most _BLOCK_BUDGET rows x max(cols, 256) entries,
which bounds the kernel's scratch memory at a few MB whatever the
segment count; the n x n matrix itself takes 8 n^2 bytes, in a new
array or in the caller's `out`.

The clustering passes `pairwise` a node's distinct values only, in
order of first occurrence, and hands those values, their matrix and
the members' distinct ids to `overlay_cluster`, which expands the
matrix per member where a sum needs it; so n is the number of
distinct values, not of segments.  The overlay holds one shift per
member, in the order of the node's members; the members themselves,
segment indices, stay on the cluster node.

A member's shift is its distinct value's offset against the medoid,
which depends only on that (value, medoid) pair.  A sub-cluster's
distinct values are a subset of its parent's, so when its medoid holds
the medoid value of an overlay it was split from, `overlay_cluster`
takes the offsets from that overlay (`known`) instead of calling
`dissimilarity` for each value again; only roots and sub-clusters with
a new medoid make the calls.  The overlay turns the offsets into
shifts and a width with array arithmetic, one element per distinct
value, and `build_matrix` gathers every member's bytes from the
distinct values joined once.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from functools import reduce
from operator import add, getitem

import numpy as np

from .model import DegenerateClusterError, UsageError

# per-unmatched-byte penalty of the length-tolerant dissimilarity
UNMATCHED_PENALTY = 1.0

# soft cap on rows * max(cols, 256) of one pairwise block (elements); a
# block holds a few arrays of that size at once: the running sum, the
# minimum over offsets and the terms being gathered
_BLOCK_BUDGET = 65_536


def _terms(u, v) -> np.ndarray:
    """Canberra terms |u - v| / (u + v) of float arrays, 0 where u = v = 0."""
    num = np.abs(u - v)
    den = u + v
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


def canberra(u, v) -> float:
    """Canberra distance between equal-length nonnegative vectors."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.ndim != 1 or v.ndim != 1 or u.size == 0:
        raise UsageError("canberra needs two non-empty 1-d vectors")
    if u.size != v.size:
        raise UsageError(f"canberra needs equal lengths, got {u.size} and {v.size}")
    return float(np.cumsum(_terms(u, v))[-1])  # left to right, as every sum here adds


# Canberra term of every byte pair: _TERMS[u, v]
_TERMS = _terms(np.arange(256.0)[:, None], np.arange(256.0)[None, :])
# the same table read as Python floats without numpy, for the scalar
# kernel: _TERM_ROWS[u][v]; views of _TERMS, so they cost no memory
_TERM_ROWS = [memoryview(row) for row in _TERMS]


def dissimilarity(s, t) -> tuple:
    """Length-tolerant Canberra dissimilarity and best-match offset of two byte strings.

    Returns (value in [0,1], offset of the shorter value within the
    longer, smallest offset on ties).  Symmetric in its arguments.
    Computed in plain Python: a call compares a few bytes, and numpy's
    per-call overhead would cost more than the arithmetic.  `reduce`
    adds the terms left to right; `sum()` compensates float sums from
    Python 3.12 on, so its bits would differ.  Values of equal length
    have the one offset 0, so they skip the offset loop.
    """
    if not (isinstance(s, (bytes, bytearray)) and isinstance(t, (bytes, bytearray)) and s and t):
        raise UsageError("dissimilarity needs two non-empty bytes or bytearray values")
    n = len(s)
    if n == len(t):
        return reduce(add, map(getitem, map(_TERM_ROWS.__getitem__, s), t)) / n, 0
    short, long_ = (s, t) if n < len(t) else (t, s)
    m, n = len(short), len(long_)
    best, best_sum = 0, math.inf
    for o in range(n - m + 1):
        total = reduce(add, map(getitem, map(_TERM_ROWS.__getitem__, short), long_[o:o + m]))
        if total < best_sum:  # strict, so the smallest offset wins ties
            best, best_sum = o, total
    return (best_sum + (n - m) * UNMATCHED_PENALTY) / n, best


def _term_sums(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Canberra sums of every row of X (r, m) with every row of Y (c, m), as (r, c).

    The terms of one position for all pairs are gathered as one (r, c)
    array, and these arrays are added in place in position order, so each
    entry has the bits `dissimilarity` gives its pair.
    """
    total = _TERMS.take(X[:, 0], axis=0).take(Y[:, 0], axis=1)
    for j in range(1, X.shape[1]):
        total += _TERMS.take(X[:, j], axis=0).take(Y[:, j], axis=1)
    return total


def _block_values(A: np.ndarray, B: np.ndarray, out: np.ndarray, ia=None, ib=None) -> None:
    """Write the dissimilarities of the rows of A (a,m) to those of B (b,n), m <= n, to out.

    A and B hold bytes.  Row i of A against row j of B goes to out[i, j],
    or, given the index arrays ia and ib, to out[ia[i], ib[j]] and
    out[ib[j], ia[i]].  When A is B the matrix is symmetric: each row
    block computes only the columns from its own first row onward and
    mirrors them.
    """
    a, m = A.shape
    b, n = B.shape
    symmetric = A is B
    # a block gathers each row's terms for all 256 byte values before it
    # picks the columns, so its scratch arrays hold rows x max(cols, 256)
    rows_per_chunk = max(1, _BLOCK_BUDGET // max(b, 256))
    for lo in range(0, a, rows_per_chunk):
        hi = min(a, lo + rows_per_chunk)
        first = lo if symmetric else 0
        X = A[lo:hi]
        Y = B[first:]
        best = _term_sums(X, Y)
        for o in range(1, n - m + 1):
            np.minimum(best, _term_sums(X, Y[:, o:o + m]), out=best)
        best += (n - m) * UNMATCHED_PENALTY
        if ia is None:
            np.divide(best, n, out=out[lo:hi, first:])
            if symmetric:
                out[hi:, lo:hi] = out[lo:hi, hi:].T
        else:
            best /= n
            out[np.ix_(ia[lo:hi], ib[first:])] = best
            mirror = hi if symmetric else 0  # the square [lo, hi) of a symmetric block is whole
            out[np.ix_(ib[mirror:], ia[lo:hi])] = best[:, mirror - first:].T


def distinct_values(values) -> tuple:
    """(distinct, inverse) of a list of bytes values.

    distinct holds each value once, in order of first occurrence, and
    values[i] == distinct[inverse[i]].
    """
    ids = dict(zip(dict.fromkeys(values), itertools.count()))
    return list(ids), np.fromiter(map(ids.__getitem__, values), np.intp, len(values))


def pairwise(values, out=None) -> np.ndarray:
    """Full symmetric dissimilarity matrix over a list of byte sequences.

    The matrix has one row per value, repeats included; the clustering
    passes distinct values only, so it gets their matrix and no more.

    out, when given, is a flat C-contiguous float64 array of at least
    n*n elements.  The matrix is then written over out[:n*n], nothing
    else of out is touched, the (n, n) view of those elements is
    returned, and no n x n array is allocated: values of several lengths
    are scattered into place block by block.  The clustering passes its
    one workspace here, so every node's matrix reuses the same memory.
    """
    n = len(values)
    if out is None:
        out = np.empty(n * n)
    elif not (out.dtype == np.float64 and out.ndim == 1 and out.flags.c_contiguous
              and out.size >= n * n):
        raise UsageError(f"pairwise needs out to be a flat C-contiguous float64 array "
                         f"of at least {n * n} elements")
    D = out[:n * n].reshape(n, n)
    by_len = defaultdict(list)
    for i, v in enumerate(values):
        by_len[len(v)].append(i)
    lengths = sorted(by_len)
    arrays = {
        L: (np.array(idx), np.frombuffer(b"".join(values[i] for i in idx), dtype=np.uint8)
            .reshape(len(idx), L))
        for L, idx in by_len.items()
    }
    if len(lengths) == 1:  # the one block is the whole matrix
        _, A = arrays[lengths[0]]
        _block_values(A, A, D)
    else:
        for ai, La in enumerate(lengths):
            ia, A = arrays[La]
            for Lb in lengths[ai:]:
                ib, B = arrays[Lb]
                _block_values(A, B, D, ia, ib)
    np.fill_diagonal(D, 0.0)
    return D


@dataclass(frozen=True)
class Overlay:
    """A cluster's members placed at their best-match relative offsets.

    Member i of the cluster occupies relative positions
    [shifts[i], shifts[i]+len); the minimum shift is normalized to 0.
    `reference` indexes the medoid the others were aligned against.
    """

    shifts: tuple
    width: int
    reference: int


def overlay_cluster(values, dist: np.ndarray, inverse, known=None) -> Overlay:
    """Align a cluster on its medoid.

    The medoid is the member with the smallest total dissimilarity to
    all others (lowest index on ties).  Each member is shifted to where
    the shorter of (member, medoid) best matches the longer.  values
    are the members' distinct byte values in order of first occurrence,
    `dist` is their dissimilarity matrix, as `pairwise` gives it for
    that list, and `inverse` numbers each member's distinct value in
    that order, as `distinct_values` does.

    `known`, when given, maps medoid values of overlays of supersets of
    these members (the clusters this one was split from) to offsets:
    offsets[d] is where distinct value d starts relative to that
    medoid's first byte.  An offset depends only on the (value, medoid)
    pair, so when this medoid's value is among them its offsets are
    taken from there and `dissimilarity` is not called again.
    """
    inverse = np.asarray(inverse)
    if inverse.size < 2:
        raise UsageError("overlay needs at least 2 members")
    # A member's total is the sum of its row of the members x members
    # matrix; a distinct row expanded per member holds those values in
    # that order, so its sum has their bits (with every member distinct,
    # the expansion is the row itself).  The weighted sum rounds
    # differently and can flip the medoid, so it only picks the rows
    # whose sums can be smallest: two float sums of the same n
    # nonnegative terms differ by well under 8 (n + 1) eps of the total.
    approx = np.einsum("ij,j->i", dist, np.bincount(inverse))
    near = (approx <= np.minimum.reduce(approx) + 8 * (inverse.size + 1)
            * np.finfo(float).eps * np.maximum.reduce(approx)).nonzero()[0]
    totals = np.full(len(values), np.inf)
    totals[near] = np.add.reduce(dist[near].take(inverse, axis=1), axis=1)  # as .sum(axis=1)
    reference = int(totals[inverse].argmin())  # argmin returns the first = lowest index
    ref = values[inverse[reference]]

    # identical members share their shift, so it is found per distinct value
    lengths = np.fromiter(map(len, values), np.intp, len(values))
    if known and ref in known:
        offsets = np.asarray(known[ref])
    else:
        found = np.array([0 if v == ref else dissimilarity(v, ref)[1] for v in values],
                         dtype=np.intp)
        offsets = np.where(lengths <= len(ref), found, -found)
    shift_of = offsets - np.minimum.reduce(offsets)
    width = int(np.maximum.reduce(shift_of + lengths))
    return Overlay(shifts=tuple(shift_of[inverse].tolist()), width=width, reference=reference)


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


def build_matrix(ov: Overlay, values, inverse) -> DataMatrix:
    """Data matrix of an overlay of members valued values[inverse[i]], majority positions kept."""
    n = len(ov.shifts)
    starts = np.array(ov.shifts)
    distinct_lengths = np.fromiter(map(len, values), np.intp, len(values))
    lengths = distinct_lengths[inverse]

    positions = np.arange(ov.width)
    observed = (positions >= starts[:, None]) & (positions < (starts + lengths)[:, None])
    keep = observed.sum(axis=0) >= (n + 1) // 2
    if not keep.any():
        raise DegenerateClusterError("no overlay column observed by a majority of members")

    column_map = positions[keep]
    mask = observed[:, keep]
    # member i's byte at position p sits at firsts[i] + p - starts[i] of the
    # distinct values joined; a cell it does not observe may index outside
    # its bytes, so take clips, and the cell is overwritten below
    firsts = (distinct_lengths.cumsum() - distinct_lengths)[inverse]
    index = column_map + (firsts - starts)[:, None]
    X = np.frombuffer(b"".join(values), dtype=np.uint8).take(index, mode="clip").astype(float)
    if not mask.all():
        col_means = np.where(mask, X, 0.0).sum(axis=0) / mask.sum(axis=0)
        X = np.where(mask, X, col_means[None, :])
    return DataMatrix(X=X, mask=mask, column_map=column_map)
