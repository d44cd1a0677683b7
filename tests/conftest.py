"""Shared fixtures and independent oracle implementations.

The oracles here deliberately do not reuse the library's code paths:
the Jacobi eigensolver checks the LAPACK-backed decomposition, the
fixpoint DBSCAN checks the frontier-expansion implementation, and the
broadcast Canberra formula checks the byte-pair table kernel.  Both
work on every item, duplicates included, so they are also the expanded
oracles of the clustering at distinct-value resolution.  The
recomputing recursion checks the clustering tree against the full
segments x segments analysis at every level; it clusters `Ref`s, a
record of each segment's message, bounds and bytes kept here so the
oracles need none from the library, and `ref_tree` maps the library's
segment indices to them.  The member loops of the rules read each
member's message and offsets off its ref.  The per-byte loops of
the bit-congruence segmenter, the null-run and printable-run scans and
the uncached entropy merge check their vectorised, table-driven
replacements in `refine`; the message-by-message loops of the null
refinement, the char merge, the fixed split and the edit application
check the passes that set and clear the cut flags of a whole trace.
The dict tree of the cluster nodes checks the value
`cluster.tree_to_json` gives for `clusters.json`; every
artifact's text is the compact `json.dumps` of its value, which
`tests/test_traceio.py` and `tests/test_cli.py` check directly.  The
message-by-message layout checks `refine.join_trace`, and
`reference_run_pipeline` composes the stage oracles into the whole
pipeline, which `tests/test_pipeline.py` checks `run_pipeline` against.
"""

import math
from collections import defaultdict
from typing import NamedTuple

import numpy as np
import pytest

from protoseg import cluster, dissim, pca, refine, rules
from protoseg.dissim import UNMATCHED_PENALTY
from protoseg.model import DegenerateClusterError, EstimationError, Segmentation
from protoseg.refine import CHAR_BYTES


class Ref(NamedTuple):
    """One segment as the oracles read it: its message, its bounds there and its bytes."""

    message_id: int
    start: int
    end: int
    values: bytes


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
    is summed over its last axis, left to right (`np.cumsum`, unlike
    `.sum()`, adds in sequence); the minimum over offsets is charged
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
                np.minimum(best, np.cumsum(num, axis=2)[..., -1], out=best)
            vals = (best + (n - m) * UNMATCHED_PENALTY) / n
            D[np.ix_(by_len[m], by_len[n])] = vals
            D[np.ix_(by_len[n], by_len[m])] = vals.T
    np.fill_diagonal(D, 0.0)
    return D


def reference_distinct(values):
    """(distinct values, matrix, ids) of byte values, as `dissim.overlay_cluster` takes them.

    The distinct values are numbered in order of first occurrence by a
    dict, and their matrix is `reference_pairwise`'s.
    """
    ids = {}
    inverse = [ids.setdefault(v, len(ids)) for v in values]
    return list(ids), reference_pairwise(list(ids)), inverse


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


def reference_bit_congruence(payload, sigma):
    """Cut offsets of the bit-congruence segmenter, one byte at a time."""
    if len(payload) < 3:
        return ()
    data = np.frombuffer(payload, dtype=np.uint8)
    xored = data[:-1] ^ data[1:]
    bits = np.unpackbits(xored.reshape(-1, 1), axis=1).sum(axis=1)
    delta = np.diff((8 - bits) / 8.0)
    radius = math.ceil(3 * sigma)
    support = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 * (support / sigma) ** 2)
    kernel /= kernel.sum()
    smoothed = np.convolve(np.pad(delta, radius), kernel, mode="valid")
    cuts = []
    for j in range(smoothed.size - 1):
        rising = smoothed[j + 1] > smoothed[j]
        at_floor = j == 0 or smoothed[j] <= smoothed[j - 1]
        cut = j + 2
        if rising and at_floor and 0 < cut < len(payload):
            cuts.append(cut)
    return tuple(cuts)


def reference_entropy(data):
    """Normalized Shannon entropy of the byte values, from a fresh bincount."""
    if len(data) <= 1:
        return 0.0
    counts = np.bincount(np.frombuffer(data, dtype=np.uint8))
    p = counts[counts > 0] / len(data)
    raw = float(-(p * np.log2(p)).sum())
    return raw / math.log2(min(len(data), 256))


def reference_entropy_merge(cuts, payload, floor, diff):
    """Cut offsets of the greedy entropy merge, every entropy computed afresh."""
    bounds = [0] + list(cuts) + [len(payload)]
    i = 0
    while i + 1 < len(bounds) - 1:
        h_a = reference_entropy(payload[bounds[i]:bounds[i + 1]])
        h_b = reference_entropy(payload[bounds[i + 1]:bounds[i + 2]])
        if h_a >= floor and h_b >= floor and abs(h_a - h_b) <= diff:
            del bounds[i + 1]
        else:
            i += 1
    return tuple(bounds[1:-1])


def reference_null_runs(payload):
    """Maximal runs of 0x00 as (start, end) pairs, one byte at a time."""
    runs = []
    start = None
    for i, b in enumerate(payload):
        if b == 0 and start is None:
            start = i
        elif b != 0 and start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, len(payload)))
    return runs


def reference_crop_chars(cuts, payload, min_run):
    """Cut offsets of crop_chars, scanning each segment one byte at a time."""
    out = set(cuts)
    bounds = [0] + list(cuts) + [len(payload)]
    for s, e in zip(bounds, bounds[1:]):
        if e - s < min_run:
            continue
        run_start = None
        for i in range(s, e + 1):
            is_char = i < e and payload[i] in CHAR_BYTES
            if is_char and run_start is None:
                run_start = i
            elif not is_char and run_start is not None:
                run_end = i
                if run_end - run_start >= min_run:
                    if run_end < e and payload[run_end] == 0:
                        run_end += 1
                    out.update(c for c in (run_start, run_end) if s < c < e)
                run_start = None
    return tuple(sorted(out))


def reference_null_refine(cuts, payload):
    """Cut offsets of null_refine, one null run of the message at a time.

    A run's boundary is its end after text and its start otherwise;
    leading nulls have none.  The cut nearest to it, within one byte of
    the run, moves there.
    """
    cuts = set(cuts)
    prev_end = 0
    for a, b in reference_null_runs(payload):
        target = (b if refine.char_heuristic(payload[prev_end:a]) else a) if a else None
        prev_end = b
        if target is None or not 0 < target < len(payload) or target in cuts:
            continue
        candidates = [c for c in cuts if a - 1 <= c <= b + 1]
        if candidates:
            cuts.discard(min(candidates, key=lambda c: (abs(c - target), c)))
            cuts.add(target)
    return tuple(sorted(cuts))


def reference_merge_chars(cuts, payload):
    """Cut offsets of merge_chars, greedy over the message's bounds left to right."""
    bounds = [0, *cuts, len(payload)]
    i = 0
    while i + 1 < len(bounds) - 1:
        if refine.char_heuristic(payload[bounds[i]:bounds[i + 2]]):
            del bounds[i + 1]
        else:
            i += 1
    return tuple(bounds[1:-1])


def reference_split_fixed(cuts, payload, chunk):
    """Cut offsets of split_fixed, the first segment's chunks counted out one by one."""
    first_end = cuts[0] if cuts else len(payload)
    new = range(chunk, first_end - chunk + 1, chunk)
    if new and not refine.char_heuristic(payload[:first_end]):
        return (*new, *cuts)
    return tuple(cuts)


def reference_recursive_cluster(segments, params, max_depth):
    """Cluster tree of `cluster.recursive_cluster` over `Ref`s, every node analysed afresh.

    The members of every node are the refs themselves, in input order,
    where the library's are their indices (`ref_tree` maps those back).
    Each node computes the full segments x segments matrix with
    `reference_pairwise` and runs its own overlay, without an ancestor's
    offsets, PCA, eps estimate and DBSCAN (`reference_dbscan`), also
    where DBSCAN returned the node's members unchanged one level up.  A
    suitable leaf keeps its overlay, data matrix and spectrum, as the
    library's do.
    """
    def analyze(members, depth):
        if len(members) < params.min_cluster:
            return cluster.ClusterNode(members, cluster.ABANDONED_SMALL, depth)
        lengths = [len(m.values) for m in members]
        if 1.0 - min(lengths) / max(lengths) > params.length_ratio:
            children = [analyze(tuple(m for m in members if len(m.values) == L), depth)
                        for L in sorted(set(lengths))]
            return cluster.ClusterNode(members, cluster.RECURSED, depth, children=tuple(children))
        distinct, dist, inverse = reference_distinct([m.values for m in members])
        overlay = dissim.overlay_cluster(distinct, dist, inverse)
        try:
            matrix = dissim.build_matrix(overlay, distinct, inverse)
        except DegenerateClusterError:
            return cluster.ClusterNode(members, cluster.NOISE, depth)
        eig = pca.eig_sym(pca.covariance(matrix.X))
        spectrum = pca.analyze_spectrum(eig.eigenvalues, eig.loadings, params)
        if spectrum.suitable(params):
            return cluster.ClusterNode(members, cluster.PCA_SUITABLE, depth,
                                       overlay=overlay, matrix=matrix, spectrum=spectrum)
        if depth >= max_depth:
            return cluster.ClusterNode(members, cluster.ABANDONED_DEPTH, depth)
        dist = reference_pairwise([m.values for m in members])
        try:
            eps = cluster.estimate_eps(dist, cluster.MIN_PTS)
        except EstimationError:
            return cluster.ClusterNode(members, cluster.ABANDONED_DEPTH, depth)
        clusters, noise = reference_dbscan(dist, eps, cluster.MIN_PTS)
        children = [analyze(tuple(members[i] for i in c), depth + 1) for c in clusters]
        if noise:
            children.append(cluster.ClusterNode(tuple(members[i] for i in noise),
                                                cluster.NOISE, depth + 1))
        return cluster.ClusterNode(members, cluster.RECURSED, depth, children=tuple(children))

    return [analyze(tuple(segments), 0)]


def ref_tree(roots, refs) -> list:
    """The tree of roots with member index i replaced by refs[i], as reference trees hold it."""
    def mapped(node):
        return cluster.ClusterNode(tuple(refs[i] for i in node.members), node.verdict, node.depth,
                                   tuple(map(mapped, node.children)))
    return [mapped(root) for root in roots]


def trace_refs(segmentations, messages) -> list:
    """Every segment of the trace as a `Ref` read from its payload, in trace order."""
    refs = []
    for seg, msg in zip(segmentations, messages):
        bounds = (0, *seg.cuts, len(msg.payload))
        refs += [Ref(msg.id, a, b, msg.payload[a:b]) for a, b in zip(bounds, bounds[1:])]
    return refs


def reference_tree_dicts(roots) -> dict:
    """`clusters.json` as JSON-ready dicts: node ids, verdicts, member counts, leaf members.

    A member is a (message, start, end) tuple, which `json.dumps` writes
    as an array.
    """
    counter = [0]

    def visit(node):
        entry = {"id": counter[0], "verdict": node.verdict, "depth": node.depth,
                 "member_count": len(node.members)}
        counter[0] += 1
        children = [visit(child) for child in node.children]
        if children:
            entry["children"] = children
        else:
            entry["members"] = [(m.message_id, m.start, m.end) for m in node.members]
        return entry

    return {"format": 2, "roots": [visit(root) for root in roots]}


def extreme_payload(rng, low=1, high=41):
    """Random payload of low..high-1 bytes, heavy in 0x00 and 0xff."""
    size = int(rng.integers(low, high))
    if rng.random() < 0.5:
        return bytes(rng.choice([0x00, 0x00, 0xff, 0xff, 0x01, 0x7f, 0x80, 0xfe],
                                size=size).tolist())
    return bytes(rng.integers(0, 256, size=size).tolist())


def reference_overlay(values, dist, inverse, known=None):
    """`dissim.overlay_cluster` member by member: the medoid, then one offset per distinct value.

    values[i] is the bytes of member i.  The distinct values are read
    from them in order of first occurrence, and each one's offset
    against the medoid comes from `dissimilarity` unless `known` holds
    the medoid's offsets.
    """
    inverse = np.asarray(inverse)
    distinct = list(dict.fromkeys(values))
    approx = np.einsum("ij,j->i", dist, np.bincount(inverse))
    near = np.flatnonzero(approx <= approx.min() + 8 * (len(values) + 1)
                          * np.finfo(float).eps * approx.max())
    totals = np.full(len(distinct), np.inf)
    totals[near] = dist[near].take(inverse, axis=1).sum(axis=1)
    reference = int(totals[inverse].argmin())
    ref = values[reference]
    if known and ref in known:
        offsets = np.asarray(known[ref]).tolist()
    else:
        offsets = []
        for v in distinct:
            if v == ref:
                offsets.append(0)
            else:
                _, o = dissim.dissimilarity(v, ref)
                offsets.append(o if len(v) <= len(ref) else -o)
    low = min(offsets)
    shift_of = [o - low for o in offsets]
    width = max(s + len(v) for s, v in zip(shift_of, distinct))
    shifts = tuple(shift_of[i] for i in inverse.tolist())
    return dissim.Overlay(shifts=shifts, width=width, reference=reference)


def reference_boundaries(segmentations, messages):
    """(boundaries, segmentations, lengths) by message id, as the member loops read them.

    boundaries[id] holds 0, the cuts and the payload length.
    """
    lengths = {m.id: len(m.payload) for m in messages}
    return ({s.message_id: {0, lengths[s.message_id], *s.cuts} for s in segmentations},
            {s.message_id: s for s in segmentations}, lengths)


def reference_common_aligned_cuts(node, boundaries_by_message):
    """`rules.common_aligned_cuts` with one set of relative boundaries per member `Ref` of node."""
    n = len(node.members)
    width = node.overlay.width
    counts = [0] * (width + 1)
    for member, shift in zip(node.members, node.overlay.shifts):
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


def record(message, offset, kind, old_offset=None, provenance=""):
    """One `edits.json` record."""
    return {"message": message, "offset": offset, "kind": kind, "old_offset": old_offset,
            "provenance": provenance}


def edits_of(records) -> np.ndarray:
    """The `rules.EDIT` array of `edits.json` records, in their order."""
    return np.array([(r["message"], r["offset"], rules.KINDS.index(r["kind"]),
                      r["old_offset"] or 0, r["provenance"]) for r in records], dtype=rules.EDIT)


def reference_cluster_edits(node, positions, segmentations_by_id, payload_len_by_id):
    """`rules.cluster_edits` member by member, position by position, as `edits.json` records.

    node's members are `Ref`s.
    """
    edits = []
    for member, shift in zip(node.members, node.overlay.shifts):
        cuts = set(segmentations_by_id[member.message_id].cuts)
        length = payload_len_by_id[member.message_id]
        for k, provenance in positions:
            if not (shift <= k <= shift + len(member.values)):
                continue
            a = member.start - shift + k
            if not (0 < a < length) or a in cuts:
                continue
            nearby = [c for c in (a + 1, a - 1) if c in cuts]
            if nearby:
                edits.append(record(member.message_id, a, "move", nearby[0], provenance))
            else:
                edits.append(record(member.message_id, a, "add", None, provenance))
    return edits


def reference_diff_edits(old_segs, new_segs, provenance):
    """`refine._diff_edits` of the layouts of old_segs and new_segs, message by message.

    Per message: adds, then removes; equal counts pair as moves.  The
    edits are `edits.json` records.
    """
    edits = []
    for old, new in zip(old_segs, new_segs):
        added = sorted(set(new.cuts).difference(old.cuts))
        removed = sorted(set(old.cuts).difference(new.cuts))
        mid = new.message_id
        if len(added) == len(removed):
            edits += [record(mid, dst, "move", src, provenance)
                      for src, dst in zip(removed, added)]
        else:
            edits += [record(mid, c, "add", None, provenance) for c in added]
            edits += [record(mid, c, "remove", None, provenance) for c in removed]
    return edits


def reference_crop_distinct(segmentations, messages, min_fraction=0.10, min_messages=3):
    """Cut tuples of `refine.crop_distinct`, every segment tried against every frequent value."""
    by_id = {m.id: m for m in messages}
    occurs = {}
    for seg in segmentations:
        payload = by_id[seg.message_id].payload
        bounds = (0,) + seg.cuts + (len(payload),)
        for a, b in zip(bounds, bounds[1:]):
            if b - a >= 2:
                occurs.setdefault(payload[a:b], set()).add(seg.message_id)
    threshold = max(min_fraction * len(messages), min_messages)
    frequent = sorted((v for v, ids in occurs.items() if len(ids) >= threshold),
                      key=lambda v: (-len(v), v))
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
                    cuts.update(cut for cut in (s + span[0], s + span[1]) if s < cut < e)
                    pos = span[1]
        out.append(tuple(sorted(cuts)))
    return out


# the order `rules.apply_edits` applies edits in: message, offset, move
# before add before remove, old offset (none first), provenance
def _application_order(edit):
    return (edit["message"], edit["offset"], ("move", "add", "remove").index(edit["kind"]),
            edit["old_offset"] or 0, edit["provenance"])


def reference_apply_edits(edits, segmentations):
    """(segmentations, applied edits) of `rules.apply_edits`, one set of cuts per message.

    The edits are `edits.json` records, and every one lies inside its
    message, as `cluster_edits` proposes them.
    """
    cut_sets = {seg.message_id: set(seg.cuts) for seg in segmentations}
    applied = []
    for edit in sorted(edits, key=_application_order):
        cuts = cut_sets.get(edit["message"])
        offset, kind = edit["offset"], edit["kind"]
        if cuts is None:
            continue
        if kind == "add" and offset not in cuts:
            cuts.add(offset)
        elif kind == "move" and edit["old_offset"] in cuts and offset not in cuts:
            cuts.discard(edit["old_offset"])
            cuts.add(offset)
        elif kind == "remove" and offset in cuts:
            cuts.discard(offset)
        else:
            continue
        applied.append(edit)
    return [Segmentation(seg.message_id, tuple(sorted(cut_sets[seg.message_id])))
            for seg in segmentations], applied


def reference_joined_trace(segmentations, messages) -> dict:
    """The fields of `refine.join_trace`, built message by message and cut by cut, as lists."""
    joined, offsets, edges, first, at_cut, ids = b"", [], [], [], [], []
    for seg, msg in zip(segmentations, messages):
        offsets.append(len(joined))
        first.append(len(edges))
        ids.append(msg.id)
        for k, start in enumerate((0, *seg.cuts)):
            edges.append(len(joined) + start)
            at_cut.append(k > 0)
        joined += msg.payload
    offsets.append(len(joined))
    first.append(len(edges))
    edges.append(len(joined))
    is_cut = [False] * (len(joined) + 1)
    for edge, cut in zip(edges, at_cut):
        is_cut[edge] = is_cut[edge] or cut
    return {"joined": joined, "offsets": offsets, "edges": edges, "first": first,
            "at_cut": at_cut, "is_cut": is_cut, "ids": ids}


# the preset chains as the README lists them: (base, passes)
REFERENCE_PRESETS = {
    "nullpca": ("null_bytes", ("crop_chars", "pca", "crop_distinct", "split_fixed")),
    "nemepca": ("bit_congruence", ("entropy_merge", "null_bytes_refine", "crop_chars", "pca",
                                   "crop_distinct", "split_fixed")),
}


def reference_pca_pass(segmentations, messages, config) -> tuple:
    """(segmentations, applied edits, roots) of the pca pass, from the member-loop oracles.

    Every segment becomes a `Ref` read from its payload, the tree
    is `reference_recursive_cluster`'s, and each suitable leaf with a
    significant component proposes rule A, rule B and common-aligned
    positions that `reference_cluster_edits` translates member by member.
    """
    params = config.analysis
    roots = reference_recursive_cluster(trace_refs(segmentations, messages), params,
                                        config.max_depth)
    boundaries, segs_by_id, lengths = reference_boundaries(segmentations, messages)
    proposals = []
    for leaf in (leaf for root in roots for leaf in root.leaves()):
        if leaf.verdict != cluster.PCA_SUITABLE or leaf.spectrum.n_sig < 1:
            continue
        contrib = rules.contribution(leaf.spectrum)
        column = leaf.matrix.column_map
        positions = [(int(column[k]), "rule_a") for k in rules.rule_a(contrib, params)]
        positions += [(int(column[k]), "rule_b") for k in rules.rule_b(contrib, params)]
        positions += [(k, "common_aligned")
                      for k in reference_common_aligned_cuts(leaf, boundaries)]
        proposals += reference_cluster_edits(leaf, positions, segs_by_id, lengths)
    return (*reference_apply_edits(proposals, segmentations), roots)


def reference_run_pipeline(messages, pipeline, external=None) -> tuple:
    """(segmentations, edits, roots) of `refine.run_pipeline`, composed from the stage oracles.

    The bit-congruence base and every static pass are the oracles
    above, called on one message at a time, except the null base, which
    is the library's.  Each static pass's edits come from
    `reference_diff_edits` under the pass's provenance, and the pca pass
    is `reference_pca_pass`.  roots is None without a pca pass.
    """
    cfg = pipeline.config
    if not messages:
        return [], [], None
    if pipeline.base == refine.BASE_NULL_BYTES:
        segs = [refine.null_segmenter(m) for m in messages]
    elif pipeline.base == refine.BASE_BIT_CONGRUENCE:
        segs = [Segmentation(m.id, reference_bit_congruence(m.payload, cfg.sigma))
                for m in messages]
    else:
        by_id = {s.message_id: s for s in external}
        segs = [by_id.get(m.id, Segmentation(m.id, ())) for m in messages]

    cuts_of = {
        refine.PASS_ENTROPY_MERGE: lambda seg, msg: reference_entropy_merge(
            seg.cuts, msg.payload, cfg.entropy_floor, cfg.entropy_diff),
        refine.PASS_NULL_REFINE: lambda seg, msg: reference_null_refine(seg.cuts, msg.payload),
        refine.PASS_MERGE_CHARS: lambda seg, msg: reference_merge_chars(seg.cuts, msg.payload),
        refine.PASS_CROP_CHARS: lambda seg, msg: reference_crop_chars(
            seg.cuts, msg.payload, cfg.char_min_run),
        refine.PASS_SPLIT_FIXED: lambda seg, msg: reference_split_fixed(
            seg.cuts, msg.payload, cfg.chunk),
    }
    edits, roots = [], None
    for name in pipeline.passes:
        if name == refine.PASS_PCA:
            segs, applied, roots = reference_pca_pass(segs, messages, cfg)
            edits += applied
            continue
        if name == refine.PASS_CROP_DISTINCT:
            cuts = reference_crop_distinct(segs, messages, cfg.distinct_min_fraction,
                                           cfg.distinct_min_messages)
        else:
            cuts = [cuts_of[name](seg, msg) for seg, msg in zip(segs, messages)]
        new = [Segmentation(seg.message_id, c) for seg, c in zip(segs, cuts)]
        edits += reference_diff_edits(segs, new, "nullbytes" if name == refine.PASS_NULL_REFINE
                                      else name)
        segs = new
    return segs, edits, roots
