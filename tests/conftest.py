"""Shared fixtures and independent oracle implementations.

The oracles here deliberately do not reuse the library's code paths:
the Jacobi eigensolver checks the LAPACK-backed decomposition, the
fixpoint DBSCAN checks the frontier-expansion implementation, and the
broadcast Canberra formula checks the byte-pair table kernel.  Both
work on every item, duplicates included, so they are also the expanded
oracles of the clustering at distinct-value resolution.
"""

from collections import defaultdict

import numpy as np
import pytest

from protoseg.dissim import UNMATCHED_PENALTY

# the published 8x5 example: eight aligned 5-byte segments
EXAMPLE_X = np.array([
    [0x00, 0x08, 0x50, 0x00, 0x02],
    [0x01, 0x08, 0x90, 0x00, 0x04],
    [0x01, 0x08, 0x90, 0x00, 0x07],
    [0x01, 0x08, 0xb0, 0x00, 0x02],
    [0x02, 0x90, 0x40, 0x01, 0x02],
    [0x02, 0x90, 0x40, 0x01, 0x02],
    [0x01, 0x08, 0x80, 0x00, 0x04],
    [0x01, 0x08, 0x80, 0x00, 0x04],
], dtype=float)

# its covariance as printed (rounded) alongside the matrix above
EXAMPLE_C = np.array([
    [0.41,    34.0,   -9.71,   0.25,  -0.19],
    [34.0,    3963.0, -2020.0, 29.14, -53.42],
    [-9.71,  -2020.0,  1737.0, -14.85, 34.85],
    [0.25,    29.14,  -14.85,  0.21,  -0.39],
    [-0.19,  -53.42,   34.85,  -0.39,  3.12],
])


@pytest.fixture
def example_x():
    return EXAMPLE_X.copy()


@pytest.fixture
def example_c():
    return EXAMPLE_C.copy()


def jacobi_eigvals(A, sweeps=100, tol=1e-12):
    """Cyclic Jacobi eigenvalues of a symmetric matrix, descending."""
    A = np.array(A, dtype=float)
    n = A.shape[0]
    for _ in range(sweeps):
        off = np.sqrt(np.sum(A**2) - np.sum(np.diag(A)**2))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(A[p, q]) < 1e-30:
                    continue
                theta = (A[q, q] - A[p, p]) / (2 * A[p, q])
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta**2 + 1)) if theta else 1.0
                c = 1 / np.sqrt(t**2 + 1)
                s = t * c
                J = np.eye(n)
                J[p, p] = J[q, q] = c
                J[p, q] = s
                J[q, p] = -s
                A = J.T @ A @ J
    return np.sort(np.diag(A))[::-1]


def reference_dbscan(dist, eps, min_pts):
    """Brute-force DBSCAN: per-point neighborhood recomputation, fixpoint expansion.

    Same semantics as the library: core needs min_pts neighbors within
    eps including itself, clusters are density-connected core sets plus
    border points attached to their lowest-index core neighbor, clusters
    ordered by lowest member.
    """
    n = len(dist)
    neighbors = [[j for j in range(n) if dist[i][j] <= eps] for i in range(n)]
    core = [len(neighbors[i]) >= min_pts for i in range(n)]

    assigned = {}
    clusters = []
    for i in range(n):
        if not core[i] or i in assigned:
            continue
        group = {i}
        while True:
            grown = set(group)
            for p in group:
                for q in range(n):
                    if core[q] and q not in grown and dist[p][q] <= eps:
                        grown.add(q)
            if grown == group:
                break
            group = grown
        for p in group:
            assigned[p] = len(clusters)
        clusters.append(sorted(group))
    noise = []
    for i in range(n):
        if core[i]:
            continue
        core_nb = [j for j in neighbors[i] if core[j]]
        if core_nb:
            clusters[assigned[core_nb[0]]].append(i)
        else:
            noise.append(i)
    clusters = [sorted(c) for c in clusters]
    order = sorted(range(len(clusters)), key=lambda k: min(clusters[k]))
    return [clusters[k] for k in order], noise


def reference_pairwise(values):
    """Dissimilarity matrix by the direct broadcast formula, without deduplication.

    Per pair of length groups (m <= n) and offset o, the float64 terms
    |x - y| / (x + y) of every member pair form one (a, b, m) array that
    is summed over its last axis; the minimum over offsets is charged
    (n - m) unmatched bytes and divided by n.
    """
    rows = [np.frombuffer(bytes(v), dtype=np.uint8).astype(float) for v in values]
    by_len = defaultdict(list)
    for i, row in enumerate(rows):
        by_len[row.size].append(i)
    lengths = sorted(by_len)
    D = np.zeros((len(rows), len(rows)))
    for ai, m in enumerate(lengths):
        X = np.array([rows[i] for i in by_len[m]])[:, None, :]
        for n in lengths[ai:]:
            B = np.array([rows[i] for i in by_len[n]])
            best = np.full((X.shape[0], B.shape[0]), np.inf)
            for o in range(n - m + 1):
                Y = B[None, :, o:o + m]
                num = np.abs(X - Y)
                den = X + Y
                np.divide(num, den, out=num, where=den > 0)  # den = 0 only where num = 0
                np.minimum(best, num.sum(axis=2), out=best)
            vals = (best + (n - m) * UNMATCHED_PENALTY) / n
            D[np.ix_(by_len[m], by_len[n])] = vals
            D[np.ix_(by_len[n], by_len[m])] = vals.T
    np.fill_diagonal(D, 0.0)
    return D


def duplicate_heavy_values(rng, n):
    """n short byte values with many repeats, their distinct values and weights.

    Returns (values, distinct, inverse, weights): distinct in order of
    first occurrence, values[i] == distinct[inverse[i]], and weights[j]
    the number of values equal to distinct[j].
    """
    pool = [bytes(rng.choice([0, 1, 2, 3, 0x80, 0xff], size=int(rng.integers(1, 4))).tolist())
            for _ in range(int(rng.integers(1, 13)))]
    values = [pool[int(k)] for k in rng.integers(0, len(pool), size=n)]
    ids = {}
    inverse = np.array([ids.setdefault(v, len(ids)) for v in values])
    return values, list(ids), inverse, np.bincount(inverse)
