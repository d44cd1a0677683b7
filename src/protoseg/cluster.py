"""Density clustering of segments and the recursive suitability loop.

Segments are grouped with DBSCAN on their pairwise Canberra
dissimilarity.  Each cluster is checked against the variance-analysis
prerequisites; clusters that fail are sub-clustered with a freshly
estimated epsilon until they pass, fall below the minimum size, or
exhaust the depth budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import dissim, pca
from .model import AnalysisParams, DegenerateClusterError, EstimationError, UsageError

# DBSCAN density requirement; the Table-I minimum cluster size gates the
# suitability recursion instead, not the density definition
MIN_PTS = 3

DEFAULT_MAX_DEPTH = 3

PCA_SUITABLE = "pca_suitable"
RECURSED = "recursed"
ABANDONED_SMALL = "abandoned_small"
ABANDONED_DEPTH = "abandoned_depth"
NOISE = "noise"


@dataclass(frozen=True)
class ClusterNode:
    """One node of the recursive cluster tree.

    Leaves carry a verdict; pca_suitable leaves additionally cache the
    overlay, data matrix, and eigen spectrum they were judged on.
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


def dbscan(dist: np.ndarray, eps: float, min_pts: int) -> tuple:
    """Standard DBSCAN on a precomputed symmetric dissimilarity matrix.

    A core point has at least min_pts neighbors within eps (itself
    included); clusters are the maximal density-connected sets.  Border
    points join the cluster of their lowest-index core neighbor, and
    clusters are returned ordered by their lowest member index, border
    points included, so the result is deterministic.  Returns (list of
    index lists, noise list).
    """
    if eps <= 0:
        raise UsageError("eps must be positive")
    if min_pts < 1:
        raise UsageError("min_pts must be at least 1")
    D = np.asarray(dist, dtype=float)
    n = D.shape[0]
    if n == 0:
        return [], []
    within = D <= eps
    core = np.count_nonzero(within, axis=1) >= min_pts
    core_idx = np.flatnonzero(core)

    # connected components of the core-core graph, by frontier expansion
    cc = within[np.ix_(core_idx, core_idx)]
    core_label = np.full(core_idx.size, -1)
    n_clusters = 0
    for seed in range(core_idx.size):
        if core_label[seed] >= 0:
            continue
        core_label[seed] = n_clusters
        frontier = np.array([seed])
        while frontier.size:
            reached = cc[frontier].any(axis=0) & (core_label < 0)
            core_label[reached] = n_clusters
            frontier = np.flatnonzero(reached)
        n_clusters += 1

    label = np.full(n, -1)
    label[core_idx] = core_label
    border = np.flatnonzero(~core)
    if core_idx.size:
        to_core = within[np.ix_(border, core_idx)]
        first = to_core.argmax(axis=1)  # lowest-index core neighbor
        attached = to_core[np.arange(border.size), first]
        label[border[attached]] = core_label[first[attached]]

    by_label = np.argsort(label, kind="stable")  # members ascending within a label
    bounds = np.searchsorted(label[by_label], np.arange(n_clusters + 1))
    clusters = [by_label[bounds[k]:bounds[k + 1]].tolist() for k in range(n_clusters)]
    clusters.sort(key=lambda c: c[0])
    return clusters, np.flatnonzero(label < 0).tolist()


def estimate_eps(dist: np.ndarray, min_pts: int = MIN_PTS) -> float:
    """Epsilon from the knee of the sorted k-nearest-dissimilarity curve.

    k = min_pts; falls back to the 90th percentile when the curve has no
    knee.  Zero entries are dropped first: they come from duplicate
    values, which say nothing about the distance scale and would drag
    the knee to zero on traces full of repeated segments.  The result is
    clamped to (0, 1].

    `dist` must have a zero diagonal and no negative entries, as
    `dissim.pairwise` gives: each row's own zero is then its smallest
    entry, so the row's min_pts-th order statistic (0-based) is the
    k-th nearest other item.
    """
    if min_pts < 1:
        raise UsageError("min_pts must be at least 1")
    D = np.asarray(dist, dtype=float)
    n = D.shape[0]
    if n < min_pts + 1:
        raise EstimationError(f"need at least {min_pts + 1} items to estimate eps, got {n}")
    curve = np.sort(np.partition(D, min_pts, axis=1)[:, min_pts])
    curve = curve[curve > 0]
    if curve.size == 0:
        return 1e-9  # nothing but duplicates; any positive radius works
    knee = pca.kneedle(curve[::-1])
    if knee is not None:
        eps = float(curve[::-1][knee])
    else:
        eps = float(np.percentile(curve, 90))
    return min(max(eps, 1e-9), 1.0)


def recursive_cluster(segments, params: AnalysisParams = AnalysisParams(),
                      max_depth: int = DEFAULT_MAX_DEPTH) -> list:
    """Cluster segments until each group is suitable for variance analysis.

    Per node: too-small groups are abandoned; groups with length spread
    above length_ratio are partitioned into equal-length groups (no
    depth cost; the partition cannot repeat); otherwise the node is
    overlaid and its eigen spectrum tested.  Unsuitable nodes are
    DBSCAN-split with an epsilon estimated on the subset and recursed
    one level deeper.
    """
    segments = tuple(segments)
    if not segments:
        raise UsageError("recursive_cluster needs at least one segment")
    return [_analyze(segments, None, 0, params, max_depth)]


def _analyze(members: tuple, dist, depth: int, params: AnalysisParams, max_depth: int) -> ClusterNode:
    if len(members) < params.min_cluster:
        return ClusterNode(members, ABANDONED_SMALL, depth)

    lengths = [len(m) for m in members]
    if 1.0 - min(lengths) / max(lengths) > params.length_ratio:
        groups = {}
        for idx, m in enumerate(members):
            groups.setdefault(len(m), []).append(idx)
        children = []
        for length in sorted(groups):
            idx = groups[length]
            sub = tuple(members[i] for i in idx)
            sub_dist = dist[np.ix_(idx, idx)] if dist is not None else None
            children.append(_analyze(sub, sub_dist, depth, params, max_depth))
        return ClusterNode(members, RECURSED, depth, children=tuple(children))

    if dist is None:
        dist = dissim.pairwise([m.values for m in members])

    try:
        overlay = dissim.overlay_cluster(members, dist)
        matrix = dissim.build_matrix(overlay)
    except DegenerateClusterError:
        return ClusterNode(members, NOISE, depth)

    C = pca.covariance(matrix.X)
    eig = pca.eig_sym(C)
    spectrum = pca.analyze_spectrum(eig.eigenvalues, eig.loadings, params)
    if spectrum.n_sig <= pca.suitability_bound(spectrum.eigenvalues.size, params):
        return ClusterNode(members, PCA_SUITABLE, depth,
                           overlay=overlay, matrix=matrix, spectrum=spectrum)

    if depth >= max_depth:
        return ClusterNode(members, ABANDONED_DEPTH, depth)

    try:
        eps = estimate_eps(dist, MIN_PTS)
    except EstimationError:
        return ClusterNode(members, ABANDONED_DEPTH, depth)
    clusters, noise = dbscan(dist, eps, MIN_PTS)

    children = []
    for idx in clusters:
        sub = tuple(members[i] for i in idx)
        children.append(_analyze(sub, dist[np.ix_(idx, idx)], depth + 1, params, max_depth))
    if noise:
        children.append(ClusterNode(tuple(members[i] for i in noise), NOISE, depth + 1))
    return ClusterNode(members, RECURSED, depth, children=tuple(children))


def tree_to_json(roots) -> list:
    """Cluster tree as JSON-ready dicts (node id, verdict, member refs)."""
    out = []
    counter = [0]

    def visit(node):
        node_id = counter[0]
        counter[0] += 1
        entry = {
            "id": node_id,
            "verdict": node.verdict,
            "depth": node.depth,
            "members": [
                {"message": m.message_id, "start": m.start, "end": m.end}
                for m in node.members
            ],
            "children": [],
        }
        for child in node.children:
            entry["children"].append(visit(child))
        return entry

    for root in roots:
        out.append(visit(root))
    return out
