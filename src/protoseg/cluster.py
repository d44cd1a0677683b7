"""Density clustering of segments and the recursive suitability loop.

Segments are given as their byte strings alone, and a node's members
are their indices in that list.  They are grouped with DBSCAN on their
pairwise Canberra dissimilarity.  Each cluster is checked against the
variance-analysis prerequisites; clusters that fail are sub-clustered
with a freshly estimated epsilon until they pass, fall below the
minimum size, or exhaust the depth budget.

Every node clusters its distinct values, not its segments: the
dissimilarity matrix of a node is over the distinct byte values of its
members in first-occurrence order, and each value carries the number
of members holding it as an integer weight.  `dbscan` and
`estimate_eps` take those weights and give exactly what they give on
the segments x segments matrix with every value repeated per member.
Identical members are at distance 0, so they always share a cluster;
a child's distinct values are therefore a subset of its parent's in
the same order, and its matrix is a slice of the parent's.  The same
holds for the overlay offsets: a node hands each child the offsets of
the child's distinct values against its own medoid and every
ancestor's, keyed by medoid value, and a child whose medoid holds one
of those values reuses them instead of recomputing its shifts with
`dissimilarity`.

A node that DBSCAN does not split (one cluster holding every row) has
a child with its own members, matrix and eps, which would get the same
verdict and the same split at every level.  Its chain of `recursed`
nodes down to an `abandoned_depth` leaf at max_depth is emitted
directly, without another overlay, PCA, eps estimate or DBSCAN.

Every matrix of one `recursive_cluster` call lives in one flat float64
workspace, sized before the first matrix for the u distinct values of
the largest length group (of the root, when it is not split by length).
A node's matrix is the u_n x u_n view of the workspace's front, and it
is dead once DBSCAN has split the node.  The child with the most
distinct values then has its matrix gathered in blocks of rows over the
front of the same workspace, and its subtree runs first.  Each other
child's matrix is computed into the workspace again with
`dissim.pairwise`, just before its own subtree runs; its values keep
their first-occurrence order, so the entries have the bits the gather
would give them.  The children are still returned in cluster order,
noise last.  The recomputation is bounded: if the largest child has k
of a node's u distinct values, the others' matrices hold at most
k(u - k) <= u^2/4 entries, a quarter of a `pairwise` over the node.
The peak is therefore 8u^2 bytes for the workspace, plus DBSCAN's
eps-neighborhood graph as packed bits (u^2/8 bytes) and scratch blocks
of about `_PARTITION_BUDGET` elements.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import dissim, pca
from .model import AnalysisParams, DegenerateClusterError, EstimationError, UsageError

# DBSCAN density requirement; the Table-I minimum cluster size gates the
# suitability recursion instead, not the density definition
MIN_PTS = 3

DEFAULT_MAX_DEPTH = 3

# rows * columns of one block of the k-distance partition, of DBSCAN's
# neighborhood graph and of the parent rows a child's matrix is gathered
# from (elements)
_PARTITION_BUDGET = 262_144

# set bits of every byte value; refine's bit congruence reads it too
_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.intp)

PCA_SUITABLE = "pca_suitable"
RECURSED = "recursed"
ABANDONED_SMALL = "abandoned_small"
ABANDONED_DEPTH = "abandoned_depth"
NOISE = "noise"


@dataclass(frozen=True)
class ClusterNode:
    """One node of the recursive cluster tree.

    members are ascending segment indices.  Leaves carry a verdict;
    pca_suitable leaves additionally cache the overlay, data matrix, and
    eigen spectrum they were judged on.
    """

    members: tuple
    verdict: str
    depth: int
    children: tuple = ()
    overlay: Optional[dissim.Overlay] = field(default=None, compare=False)
    matrix: Optional[dissim.DataMatrix] = field(default=None, compare=False)
    spectrum: Optional[pca.PcaResult] = field(default=None, compare=False)

    def leaves(self):
        if not self.children:
            yield self
        for child in self.children:
            yield from child.leaves()


def dbscan(dist: np.ndarray, eps: float, min_pts: int, weights=None) -> tuple:
    """Standard DBSCAN on a precomputed symmetric dissimilarity matrix.

    Row i stands for weights[i] identical items (1 each by default).  A
    core row has items of total weight at least min_pts within eps
    (its own included); clusters are the maximal density-connected sets.
    Border rows join the cluster of their lowest-index core neighbor,
    and clusters are returned ordered by their lowest row, border rows
    included, so the result is deterministic.  Expanding the rows to
    their items in order gives DBSCAN on the items.  Returns (list of
    row-index lists, noise list).

    The scratch is the eps-neighborhood graph as bit-packed rows, n^2/8
    bytes for n rows, and blocks of about `_PARTITION_BUDGET` matrix
    entries that it is filled and read in.
    """
    if not eps > 0:  # NaN included
        raise UsageError(f"eps must be positive, got {eps!r}")
    if min_pts < 1:
        raise UsageError("min_pts must be at least 1")
    D = np.asarray(dist, dtype=float)
    n = D.shape[0]
    if n == 0:
        return [], []
    # the eps-neighborhood graph as packed rows: bit j of row i (bits run
    # high to low within a byte, as np.packbits packs them, and the pad
    # bits of a row's last byte are 0) is D[i, j] <= eps.  It is filled in
    # blocks of rows, each counting its rows' neighbors as it goes: the
    # popcount of a row, plus w - 1 for each neighbor of weight w > 1,
    # summed by einsum, which casts the bools in small buffers where a
    # matrix product would cast the whole block to int64 first
    w = np.ones(n, np.intp) if weights is None else np.asarray(weights)
    heavy = (w > 1).nonzero()[0]
    extra = w[heavy] - 1
    step = max(1, _PARTITION_BUDGET // n)
    width = -(-n // 8)
    within = np.empty((n, width), np.uint8)
    count = np.empty(n, np.intp)
    for lo in range(0, n, step):
        block = D[lo:lo + step] <= eps
        within[lo:lo + step] = np.packbits(block, axis=1)
        count[lo:lo + step] = (_POPCOUNT.take(within[lo:lo + step]).sum(axis=1)
                               + np.einsum("ij,j->i", block.take(heavy, axis=1), extra))
    core = count >= min_pts

    # connected components of the core-core graph, by frontier expansion
    # from the lowest unlabelled core row: the unlabelled core rows among
    # the neighbors of the rows reached last, whose packed rows are ORed
    # in groups of about _PARTITION_BUDGET bytes.  free is padded to the
    # unpacked row length, so an unpacked row ANDs with it as it is
    label = np.full(n, -1)
    free = np.zeros(8 * width, np.uint8)
    free[:n] = core
    group = 8 * step
    n_clusters = 0
    seed = int(free.argmax())
    while free[seed]:
        free[seed] = 0
        label[seed] = n_clusters
        reached = (np.unpackbits(within[seed]) & free).nonzero()[0]
        while reached.size:
            free[reached] = 0
            label[reached] = n_clusters
            near = np.bitwise_or.reduce(within.take(reached[:group], axis=0))
            for lo in range(group, reached.size, group):
                near |= np.bitwise_or.reduce(within.take(reached[lo:lo + group], axis=0))
            reached = (np.unpackbits(near) & free).nonzero()[0]
        n_clusters += 1
        seed = int(free.argmax())

    # a border row's lowest-index core neighbor is the first set bit of
    # its packed row ANDed with the packed core mask
    border = (~core).nonzero()[0]
    if n_clusters and border.size:
        core_bits = np.packbits(core)
        for lo in range(0, border.size, step):
            rows = border[lo:lo + step]
            to_core = np.unpackbits(within.take(rows, axis=0) & core_bits, axis=1)
            first = to_core.argmax(axis=1)
            label[rows] = np.where(to_core[np.arange(rows.size), first], label[first], -1)

    # rows ascend within a cluster, so a cluster's first row is its lowest
    clusters = [[] for _ in range(n_clusters)]
    noise = []
    for row, k in enumerate(label.tolist()):
        (clusters[k] if k >= 0 else noise).append(row)
    clusters.sort(key=lambda c: c[0])
    return clusters, noise


def estimate_eps(dist: np.ndarray, min_pts: int = MIN_PTS, weights=None) -> float:
    """Epsilon from the knee of the sorted k-nearest-dissimilarity curve.

    k = min_pts; falls back to the 90th percentile when the curve has no
    knee.  Zero entries are dropped first: they come from duplicate
    values, which say nothing about the distance scale and would drag
    the knee to zero on traces full of repeated segments.  The result is
    clamped to (0, 1].

    Row i stands for weights[i] identical items (1 each by default);
    the curve has one point per item and is the curve of the matrix
    with every row and column repeated per item.  `dist` must have a
    zero diagonal and no negative, -0.0 or NaN entries, as
    `dissim.pairwise` gives: each item's own zero is then its smallest
    entry, so the min_pts-th order statistic (0-based) of its row is the
    k-th nearest other item.
    """
    if min_pts < 1:
        raise UsageError("min_pts must be at least 1")
    D = np.asarray(dist, dtype=float)
    w = np.ones(D.shape[0], dtype=np.intp) if weights is None else np.asarray(weights)
    n = int(w.sum())
    if n < min_pts + 1:
        raise EstimationError(f"need at least {min_pts + 1} items to estimate eps, got {n}")
    # the min_pts + 1 smallest entries of a fully repeated row are among
    # the row's min_pts + 1 smallest and the extra copies (at most
    # min_pts per column) of its columns of weight above 1; rows go in
    # blocks of about _PARTITION_BUDGET entries, extra copies included,
    # so the scratch copies stay small and each block is read while it
    # is in cache.  The selection runs on the entries' bit patterns as
    # int64, which order nonnegative float64 values as the values order
    # and partition faster
    u = D.shape[0]
    extra = np.arange(u).repeat(np.minimum(w, min_pts + 1) - 1)
    step = max(1, _PARTITION_BUDGET // (u + extra.size))
    keys = D.view(np.int64)
    kdist = np.empty(u, np.int64)
    for lo in range(0, u, step):
        rows = keys[lo:lo + step]
        near = np.partition(rows, min(min_pts, u - 1), axis=1)[:, :min_pts + 1]
        if extra.size:
            near = np.concatenate((near, rows.take(extra, axis=1)), axis=1)
            near.partition(min_pts, axis=1)
        kdist[lo:lo + step] = near[:, min_pts]
    curve = kdist.view(np.float64).repeat(w)
    curve.sort()
    curve = curve[curve > 0]
    if curve.size == 0:
        return 1e-9  # nothing but duplicates; any positive radius works
    knee = pca.kneedle(curve[::-1])
    eps = float(curve[::-1][knee]) if knee is not None else _percentile_90(curve)
    return min(max(eps, 1e-9), 1.0)


def _percentile_90(curve: np.ndarray) -> float:
    """`np.percentile(curve, 90)` of a sorted non-empty curve, with its bits.

    numpy's default "linear" method interpolates between the two order
    statistics around index 0.9 (n - 1), from the nearer one; read here
    directly, since `np.percentile` imports numpy.ma on its first call.
    """
    n = curve.size
    vi = (n - 1) * (90 / 100)
    lo = math.floor(vi)
    a, b = float(curve[lo]), float(curve[min(lo + 1, n - 1)])
    g = vi - lo
    d = b - a
    return b - d * (1 - g) if g >= 0.5 else a + d * g


def recursive_cluster(values, params: AnalysisParams = AnalysisParams(),
                      max_depth: int = DEFAULT_MAX_DEPTH) -> list:
    """Cluster segments until each group is suitable for variance analysis.

    values holds one non-empty bytes value per segment, and members
    index it.  Per node: too-small groups are abandoned; groups with
    length spread above length_ratio are partitioned into equal-length
    groups (no depth cost; the partition cannot repeat); otherwise the
    node is overlaid and its eigen spectrum tested.  Unsuitable nodes
    are DBSCAN-split with an epsilon estimated on the subset and
    recursed one level deeper.  Every matrix is a view of one workspace
    of 8u^2 bytes for the largest distinct-value count u of a root.
    """
    values = list(values)
    if not values or not all(values):
        raise UsageError("recursive_cluster needs at least one segment, none of them empty")
    # only the root splits by length, before any matrix exists: its
    # children have one length each, and a DBSCAN child's spread is at
    # most its parent's
    lengths = list(map(len, values))
    split = (len(values) >= params.min_cluster
             and 1.0 - min(lengths) / max(lengths) > params.length_ratio)
    groups = {}
    for idx, length in enumerate(lengths):
        groups.setdefault(length if split else 0, []).append(idx)
    # the workspace fits the largest root's matrix; a root's distinct values
    # are found when its turn comes, so no other root's arrays are held then
    work = np.empty(max(len(set(map(values.__getitem__, idx))) for idx in groups.values()) ** 2)
    nodes = [_analyze(np.array(idx), *dissim.distinct_values(list(map(values.__getitem__, idx))),
                      None, 0, params, max_depth, work)
             for _, idx in sorted(groups.items())]
    if split:
        return [ClusterNode(tuple(range(len(values))), RECURSED, 0, children=tuple(nodes))]
    return nodes


def _subset(members: np.ndarray, values: list, inverse: np.ndarray, dist, idx: np.ndarray,
            rows) -> tuple:
    """(members, values, inverse, dist) of the members at the ascending positions idx.

    rows are the ascending distinct ids of those members.  Identical
    members are never separated, so these are the subset's distinct
    values in first-occurrence order, and its matrix is the parent's
    restricted to them.  Given the parent's matrix dist, at the front of
    the workspace, the subset's matrix is gathered in blocks of rows over
    the front of that same (C-contiguous) buffer, which nothing may read
    after, so the scratch stays small.  When dist is None the subset's
    matrix is None as well, and `_analyze` computes it into the
    workspace when the subset's turn comes.
    """
    rows = np.asarray(rows)
    subset = (members[idx], list(map(values.__getitem__, rows.tolist())),
              rows.searchsorted(inverse[idx]))
    if dist is None:
        return (*subset, None)
    k, u = rows.size, dist.shape[0]
    out = dist.reshape(-1)[:k * k].reshape(k, k)
    # in place is safe because rows ascend: block [lo, hi) writes the flat
    # range [lo*k, hi*k) after `take` has copied its own rows out, and
    # every row a later block reads starts at rows[hi]*u >= hi*k
    step = max(1, _PARTITION_BUDGET // u)
    for lo in range(0, k, step):  # rows are valid ids, so "clip" changes none; it lets
        # take write straight into out, where the default mode writes a copy first
        dist.take(rows[lo:lo + step], axis=0).take(rows, axis=1, out=out[lo:lo + step],
                                                   mode="clip")
    return (*subset, out)


def _analyze(members: np.ndarray, values: list, inverse: np.ndarray, dist, depth: int,
             params: AnalysisParams, max_depth: int, work: np.ndarray,
             known=None) -> ClusterNode:
    """Verdict and subtree of one node.

    members are the node's segment indices, ascending.  values are its
    distinct byte values in order of first occurrence, inverse[i]
    numbers the value of members[i] among them, and dist is their
    dissimilarity matrix at the front of the flat workspace work, or
    None until it is computed there.  known maps the medoid value of
    each ancestor's overlay to the offsets of this node's distinct
    values against it, as `dissim.overlay_cluster` takes them; it is
    None at a root.

    A split node's largest child (most distinct values, the first on a
    tie) gathers its matrix from this one and runs first; every other
    child computes its own with `dissim.pairwise` when its turn comes,
    since the largest child's subtree has overwritten the workspace by
    then.  With k of this node's u distinct values in the largest child,
    the recomputed matrices hold at most k(u - k) <= u^2/4 entries.
    """
    node = tuple(members.tolist())
    if len(node) < params.min_cluster:
        return ClusterNode(node, ABANDONED_SMALL, depth)
    if dist is None:
        dist = dissim.pairwise(values, out=work)

    try:
        overlay = dissim.overlay_cluster(values, dist, inverse, known)
        matrix = dissim.build_matrix(overlay, values, inverse)
    except DegenerateClusterError:
        return ClusterNode(node, NOISE, depth)

    C = pca.covariance(matrix.X)
    eig = pca.eig_sym(C)
    spectrum = pca.analyze_spectrum(eig.eigenvalues, eig.loadings, params)
    if spectrum.suitable(params):
        return ClusterNode(node, PCA_SUITABLE, depth,
                           overlay=overlay, matrix=matrix, spectrum=spectrum)

    if depth >= max_depth:
        return ClusterNode(node, ABANDONED_DEPTH, depth)

    weights = np.bincount(inverse)
    try:
        eps = estimate_eps(dist, MIN_PTS, weights)
    except EstimationError:
        return ClusterNode(node, ABANDONED_DEPTH, depth)
    clusters, noise = dbscan(dist, eps, MIN_PTS, weights)
    if len(clusters) == 1 and not noise:
        # one cluster of every row: the child has this node's members,
        # matrix and eps, so every level down to max_depth repeats this
        # verdict and this split, and the chain ends abandoned there
        chain = ClusterNode(node, ABANDONED_DEPTH, max_depth)
        for level in range(max_depth - 1, depth - 1, -1):
            chain = ClusterNode(node, RECURSED, level, children=(chain,))
        return chain

    # each member takes its distinct value's cluster; noise is the last group
    label = np.full(len(weights), len(clusters))
    for k, rows in enumerate(clusters):
        label[rows] = k
    member_label = label[inverse]
    order = member_label.argsort(kind="stable")  # ascending within a group
    bounds = member_label[order].searchsorted(np.arange(len(clusters) + 1)).tolist()
    # each distinct value's offset from the medoid, which every member
    # holding it shares; a child's distinct values are its rows of these
    offsets = np.empty(len(weights), np.intp)
    offsets[inverse] = overlay.shifts
    offsets -= overlay.shifts[overlay.reference]
    known = {**(known or {}), values[inverse[overlay.reference]]: offsets}
    # this matrix is dead once the node is split: the child with the most
    # rows gathers its own from it and runs first, and each other child
    # computes its own into the workspace that subtree has overwritten
    largest = max(range(len(clusters)), key=lambda c: len(clusters[c]))
    children = [None] * len(clusters)
    for c in [largest, *(c for c in range(len(clusters)) if c != largest)]:
        rows = clusters[c]
        subset = _subset(members, values, inverse, dist if c == largest else None,
                         order[bounds[c]:bounds[c + 1]], rows)
        children[c] = _analyze(*subset, depth + 1, params, max_depth, work,
                               {value: o[rows] for value, o in known.items()})
    if noise:
        children.append(ClusterNode(tuple(members[order[bounds[-1]:]].tolist()), NOISE,
                                    depth + 1))
    return ClusterNode(node, RECURSED, depth, children=tuple(children))


def tree_to_json(roots, trace) -> dict:
    """The value of `clusters.json`: {"format": 2, "roots": [...]}.

    One object per node with its preorder "id", "verdict", "depth" and
    "member_count".  A leaf adds "members", one (message, start, end)
    tuple per member, read from trace, the `refine.JoinedTrace` the
    members index; `json.dumps` writes a tuple as an array.  An inner
    node adds "children" instead.  The children of a node, its noise
    child included, partition its members, so an inner node's members
    are those of its leaves and each member is written once.
    """
    ids = itertools.count()
    return {"format": 2, "roots": [_node_json(root, ids, trace) for root in roots]}


def _node_json(node: ClusterNode, ids, trace) -> dict:
    """The `clusters.json` object of node and its subtree, numbered from the counter ids.

    A module-level function, not a closure over the counter: a closure
    that calls itself holds a reference cycle, which would leave garbage
    for the cyclic collector that `cli.main` turns off.
    """
    entry = {"id": next(ids), "verdict": node.verdict, "depth": node.depth,
             "member_count": len(node.members)}
    if node.children:
        entry["children"] = [_node_json(child, ids, trace) for child in node.children]
    else:
        rows, start, end = trace.segments(node.members)
        base = trace.offsets[rows]
        entry["members"] = list(zip(trace.ids[rows].tolist(), (start - base).tolist(),
                                    (end - base).tolist()))
    return entry
