import dataclasses
import itertools
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (duplicate_heavy_values, ref_tree, reference_dbscan, reference_distinct,
                      reference_pairwise, reference_recursive_cluster, reference_tree_dicts,
                      trace_refs)
from protoseg import cluster, dissim, synth
from protoseg.cluster import (ABANDONED_DEPTH, ABANDONED_SMALL, NOISE, PCA_SUITABLE,
                              RECURSED, ClusterNode, dbscan, estimate_eps, recursive_cluster,
                              tree_to_json)
from protoseg.model import (AnalysisParams, EstimationError, Message, Segmentation, UsageError,
                            segments_of)
from protoseg.pca import kneedle
from protoseg.refine import PASS_PCA, join_trace, null_segmenter, preset, run_pipeline
from protoseg.traceio import write_json_atomic


def layout(messages, segmentations) -> tuple:
    """(JoinedTrace, refs, values): a trace's layout, and every segment as a ref and as bytes."""
    refs = trace_refs(segmentations, messages)
    return join_trace(segmentations, messages), refs, [r.values for r in refs]


def spec_layout(name, count, seed) -> tuple:
    """`layout` of a bundled spec's trace under the null-byte base segmenter."""
    spec = dataclasses.replace(synth.reference_specs()[name], message_count=count, rng_seed=seed)
    messages, _ = synth.generate(spec)
    return layout(messages, [null_segmenter(m) for m in messages])


def placed(values, starts=None) -> tuple:
    """`layout` of one message per value, value i after starts[i] zero bytes of their own segment.

    Each value is its message's last segment.
    """
    starts = starts or [0] * len(values)
    messages = [Message(i, bytes(start) + bytes(v))
                for i, (start, v) in enumerate(zip(starts, values))]
    return layout(messages, [Segmentation(i, (start,) if start else ())
                             for i, start in enumerate(starts)])


def random_values(rng, count, length) -> list:
    return [bytes(rng.integers(0, 256, size=length).tolist()) for _ in range(count)]


def random_dist(rng, n):
    D = rng.uniform(0, 1, size=(n, n))
    D = (D + D.T) / 2
    np.fill_diagonal(D, 0.0)
    return D


class TestDbscan:
    def test_identical_items_form_one_cluster(self):
        D = np.zeros((5, 5))
        clusters, noise = dbscan(D, eps=0.1, min_pts=3)
        assert clusters == [[0, 1, 2, 3, 4]]
        assert noise == []

    def test_two_groups_split(self):
        D = np.ones((6, 6))
        D[:3, :3] = 0.0
        D[3:, 3:] = 0.0
        np.fill_diagonal(D, 0.0)
        clusters, noise = dbscan(D, eps=0.1, min_pts=3)
        assert clusters == [[0, 1, 2], [3, 4, 5]]
        assert noise == []

    def test_isolated_item_is_noise(self):
        D = np.zeros((5, 5))
        D[4, :4] = D[:4, 4] = 0.9
        clusters, noise = dbscan(D, eps=0.5, min_pts=3)
        assert clusters == [[0, 1, 2, 3]]
        assert noise == [4]

    def test_invalid_parameters(self):
        with pytest.raises(UsageError):
            dbscan(np.zeros((2, 2)), eps=0.0, min_pts=3)
        with pytest.raises(UsageError):  # made every row noise
            dbscan(np.zeros((3, 3)), eps=float("nan"), min_pts=2)
        with pytest.raises(UsageError):
            dbscan(np.zeros((2, 2)), eps=0.5, min_pts=0)

    def test_matches_brute_force_reference(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            n = int(rng.integers(2, 41))
            D = random_dist(rng, n)
            eps = float(rng.uniform(0.05, 0.9))
            min_pts = int(rng.integers(1, 6))
            got = dbscan(D, eps, min_pts)
            want = reference_dbscan(D.tolist(), eps, min_pts)
            assert got[0] == want[0]
            assert got[1] == want[1]

    def test_cluster_order_counts_border_points(self):
        # cores 1-4 and cores 5-8 form two clusters; border 0 hangs off
        # core 5 only, so the second cluster's lowest member is a border
        # point and it sorts first.  Border 9 reaches cores 3 and 6 and
        # joins the lower one.
        D = np.full((10, 10), 0.9)
        D[1:5, 1:5] = 0.1
        D[5:9, 5:9] = 0.1
        D[0, 5] = D[5, 0] = 0.1
        D[9, [3, 6]] = D[[3, 6], 9] = 0.1
        np.fill_diagonal(D, 0.0)
        want = ([[0, 5, 6, 7, 8], [1, 2, 3, 4, 9]], [])
        assert dbscan(D, eps=0.2, min_pts=4) == want
        assert reference_dbscan(D.tolist(), 0.2, 4) == want

    def test_matches_reference_on_duplicate_heavy_segments(self):
        # the length-2 segments of the mixed spec under the null-byte
        # segmenter: many repeated values, so many exact ties in the matrix
        spec = dataclasses.replace(synth.reference_specs()["mixed"], message_count=200)
        messages, _ = synth.generate(spec)
        values = [v for m in messages for v in segments_of(null_segmenter(m), m) if len(v) == 2]
        D = dissim.pairwise(values)
        assert len(values) > 2 * len(set(values))
        entries = np.unique(D[np.triu_indices(len(D), 1)])
        entries = entries[entries > 0]
        for eps in [estimate_eps(D)] + [float(entries[int(q * (entries.size - 1))])
                                        for q in (0.0, 0.05, 0.2, 0.5)]:
            assert dbscan(D, eps, 3) == reference_dbscan(D.tolist(), eps, 3)


class TestPackedGraph:
    """DBSCAN's neighborhood graph as packed rows: pad bits, row blocks, grouped ORs."""

    @staticmethod
    def cases():
        """(D, eps, min_pts, weights, bridged): every size 1..17, so most rows end in pad bits.

        Entries come from a few levels, so eps falls on ties, and most
        weights have heavy rows.  A bridged case has two clusters of three
        weight-2 cores and border rows of weight 1 that each touch a core
        of both, permuted so either cluster can hold a border row's
        lowest-index core neighbor.
        """
        rng = np.random.default_rng(28)
        levels = np.array([0.0, 0.1, 0.3, 0.6, 0.9])
        for n in range(1, 18):
            for _ in range(12):
                D = np.triu(levels[rng.integers(0, 5, size=(n, n))], 1)
                weights = rng.integers(1, 5, size=n) if rng.random() < 0.7 else np.ones(n, int)
                yield D + D.T, float(rng.choice(levels[1:])), int(rng.integers(1, 6)), weights, False
            for _ in range(4 if n >= 7 else 0):
                D = np.full((n, n), 0.9)
                D[:3, :3] = D[3:6, 3:6] = 0.1
                for b in range(6, n):
                    ends = [rng.integers(0, 3), rng.integers(3, 6)]
                    D[b, ends] = D[ends, b] = 0.1
                np.fill_diagonal(D, 0.0)
                p = rng.permutation(n)
                yield D[p][:, p], 0.2, 6, np.array([2] * 6 + [1] * (n - 6))[p], True

    @pytest.mark.parametrize("budget", [cluster._PARTITION_BUDGET, 1, 40])
    def test_matches_the_expanded_reference(self, monkeypatch, budget):
        # a budget of 1 puts one row in a block and ORs the packed rows of
        # 8 reached rows at a time; 40 puts two or more rows in a block
        monkeypatch.setattr(cluster, "_PARTITION_BUDGET", budget)
        border_sides = Counter()
        for D, eps, min_pts, weights, bridged in self.cases():
            clusters, noise = dbscan(D, eps, min_pts, weights)
            inverse = np.arange(len(D)).repeat(weights)
            expand = lambda rows: np.flatnonzero(np.isin(inverse, rows)).tolist()
            want = reference_dbscan(D[inverse][:, inverse].tolist(), eps, min_pts)
            assert ([expand(c) for c in clusters], expand(noise)) == want
            if bridged:
                assert len(clusters) == 2 and not noise
                border_sides.update(k for k, rows in enumerate(clusters)
                                    for row in rows if weights[row] == 1)
        assert border_sides[0] > 10 and border_sides[1] > 10

    @pytest.mark.parametrize("budget", [cluster._PARTITION_BUDGET, 16_000])
    def test_scratch_is_the_packed_graph_and_a_few_blocks(self, monkeypatch, budget):
        # 1000 rows, 300 of them of weight 3, in one cluster: the packed
        # graph takes n^2/8 bytes, a block's bools about budget bytes and
        # its popcount lookup twice that; the bool matrix alone took n^2.
        # At 16 000 (16 rows a block) the bound is under n^2/4
        monkeypatch.setattr(cluster, "_PARTITION_BUDGET", budget)
        rng = np.random.default_rng(28)
        n = 1000
        D = random_dist(rng, n)
        weights = np.ones(n, dtype=np.intp)
        weights[rng.choice(n, size=300, replace=False)] = 3
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            clusters, noise = dbscan(D, 0.3, cluster.MIN_PTS, weights)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            if started:
                tracemalloc.stop()
        assert (clusters, noise) == ([list(range(n))], [])
        assert peak < n * n / 8 + 4 * budget + 32 * n


class TestEstimateEps:
    def test_flat_distances_fall_back_to_percentile(self):
        n = 6
        D = np.full((n, n), 0.3)
        np.fill_diagonal(D, 0.0)
        assert estimate_eps(D) == pytest.approx(0.3)

    def test_percentile_matches_numpy(self):
        # the fallback reads numpy's default "linear" percentile from the
        # sorted curve itself: uniform values, ties, and magnitudes spread
        # over nine decades, at every size up to 300 and a few larger
        rng = np.random.default_rng(19)
        for n in [*range(1, 301), 1000, 1001, 4097, 50_000]:
            for curve in (rng.random(n), rng.integers(1, 5, size=n) / 7,
                          10.0 ** rng.uniform(-9, 0, size=n)):
                curve.sort()
                assert cluster._percentile_90(curve) == float(np.percentile(curve, 90))

    def test_fallback_leaves_numpy_ma_unimported(self, tmp_path):
        # np.percentile imports numpy.ma on its first call in a process;
        # a segment run through the fallback must not import it
        code = textwrap.dedent("""
            import dataclasses, sys
            from protoseg import cluster, synth, traceio
            from protoseg.cli import main
            calls = []
            percentile = cluster._percentile_90
            cluster._percentile_90 = lambda curve: calls.append(curve.size) or percentile(curve)
            spec = synth.reference_specs()["mixed"]
            spec = dataclasses.replace(spec, message_count=150, rng_seed=1)
            traceio.save_hexlines("trace.hex", synth.generate(spec)[0])
            assert main(["segment", "--trace", "trace.hex", "--out", "out"]) == 0
            assert calls, "the run never took the fallback"
            assert "numpy.ma" not in sys.modules
        """)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_two_scale_set_separates_the_groups(self):
        # two tight groups (intra around 0.02) far apart (inter 0.8): the
        # estimate must land strictly between the scales
        rng = np.random.default_rng(13)
        n = 12
        intra = rng.uniform(0.01, 0.03, size=(n, n))
        group = (np.arange(n) < 6).astype(int)
        D = np.where(np.add.outer(group, group) == 1, 0.8, (intra + intra.T) / 2)
        np.fill_diagonal(D, 0.0)
        eps = estimate_eps(D)
        assert 0.0 < eps < 0.8
        clusters, noise = dbscan(D, eps, 3)
        assert [min(c) for c in clusters] == [0, 6]
        assert noise == []

    def test_duplicate_heavy_set_stays_positive(self):
        D = np.zeros((8, 8))
        assert estimate_eps(D) > 0

    def test_knee_of_listed_kdist_curve(self):
        # the estimator takes the knee of the ascending k-distance curve;
        # on this curve the knee sits at the 0.03 elbow, below the jump
        curve = [0.01, 0.01, 0.02, 0.02, 0.03, 0.5, 0.6]
        descending = curve[::-1]
        knee = kneedle(descending)
        assert knee is not None
        assert descending[knee] == pytest.approx(0.03)
        assert descending[knee] <= 0.5

    def test_too_few_items(self):
        with pytest.raises(EstimationError):
            estimate_eps(np.zeros((3, 3)))
        with pytest.raises(UsageError):
            estimate_eps(np.zeros((3, 3)), min_pts=0)

    @staticmethod
    def full_sort_eps(D, min_pts):
        # the k-th nearest other taken from fully sorted rows, self excluded
        n = len(D)
        others = np.sort(D + np.diag(np.full(n, np.inf)), axis=1)
        curve = np.sort(others[:, min_pts - 1])
        curve = curve[curve > 0]
        if curve.size == 0:
            return 1e-9
        knee = kneedle(curve[::-1])
        eps = float(curve[::-1][knee]) if knee is not None else float(np.percentile(curve, 90))
        return min(max(eps, 1e-9), 1.0)

    def test_matches_full_sort_on_zero_diagonal_ties(self):
        # zero diagonal and nonnegative entries, with many exact
        # off-diagonal zeros and ties, as duplicate segments produce
        rng = np.random.default_rng(7)
        for _ in range(200):
            min_pts = int(rng.integers(1, 6))
            n = int(rng.integers(min_pts + 1, 31))
            D = rng.integers(0, 5, size=(n, n)) / 4.0
            D = np.triu(D, 1)
            D = D + D.T
            assert estimate_eps(D, min_pts) == self.full_sort_eps(D, min_pts)


class TestWeightedEquivalence:
    """Distinct values with weights give what every item, duplicates included, gives."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(2024)
        for _ in range(150):
            values, distinct, inverse, weights = duplicate_heavy_values(
                rng, int(rng.integers(1, 40)))
            U = dissim.pairwise(distinct)
            yield rng, U, reference_pairwise(values), inverse, weights

    def test_dbscan_expands_to_the_reference(self):
        for rng, U, E, inverse, weights in self.cases():
            entries = np.unique(U[U > 0])  # eps exactly on entries, so ties decide
            eps_values = rng.choice(entries, size=min(3, entries.size), replace=False)
            for eps in eps_values.tolist() or [0.5]:
                min_pts = int(rng.integers(1, 6))
                clusters, noise = dbscan(U, eps, min_pts, weights)
                expand = lambda rows: np.flatnonzero(np.isin(inverse, rows)).tolist()
                got = [expand(c) for c in clusters], expand(noise)
                assert got == reference_dbscan(E.tolist(), eps, min_pts)

    @pytest.mark.parametrize("budget", [cluster._PARTITION_BUDGET, 7])
    def test_estimate_eps_equals_the_expanded_estimate(self, monkeypatch, budget):
        # at a budget of 7 elements the rows are partitioned a few at a time
        monkeypatch.setattr(cluster, "_PARTITION_BUDGET", budget)
        checked = 0
        for rng, U, E, inverse, weights in self.cases():
            min_pts = int(rng.integers(1, 6))
            if len(inverse) < min_pts + 1:
                with pytest.raises(EstimationError):
                    estimate_eps(U, min_pts, weights)
                continue
            want = TestEstimateEps.full_sort_eps(E, min_pts)
            assert estimate_eps(U, min_pts, weights) == estimate_eps(E, min_pts) == want
            checked += 1
        assert checked > 100

    def test_unit_weights_are_the_default(self):
        rng = np.random.default_rng(5)
        D = random_dist(rng, 20)
        ones = np.ones(20, dtype=int)
        assert estimate_eps(D, 3, ones) == estimate_eps(D, 3)
        assert dbscan(D, 0.3, 3, ones) == dbscan(D, 0.3, 3)

    def test_weight_makes_a_lone_row_core(self):
        # one row standing for three identical items is a cluster on its own
        D = np.array([[0.0, 0.9], [0.9, 0.0]])
        assert dbscan(D, 0.5, 3, [3, 1]) == ([[0]], [1])
        assert dbscan(D, 0.5, 3) == ([], [0, 1])


class TestIntegerKeySelection:
    """`estimate_eps` selects k-distances on int64 bit patterns, as float64 selection would."""

    # nonnegative values across exponents: zero, subnormals, ties just an ulp apart
    POOL = np.array([0.0, 5e-324, 3e-320, 1e-300, 0.25, 0.5, np.nextafter(0.5, 1.0), 1.0,
                     2.0, 1e300])

    @staticmethod
    def float_partition_eps(D, min_pts, weights):
        # the curve from float64 np.partition of the matrix with every row
        # and column repeated per item, then estimate_eps' knee and clamp
        E = D.repeat(weights, axis=0).repeat(weights, axis=1)
        curve = np.sort(np.partition(E, min_pts, axis=1)[:, min_pts])
        curve = curve[curve > 0]
        if curve.size == 0:
            return 1e-9
        knee = kneedle(curve[::-1])
        eps = float(curve[::-1][knee]) if knee is not None else float(np.percentile(curve, 90))
        return min(max(eps, 1e-9), 1.0)

    @classmethod
    def cases(cls):
        rng = np.random.default_rng(91)
        for i in range(240):
            n = int(rng.integers(1, 25))
            kind = i % 4
            if kind == 0:  # ties: a few distinct values, many exact zeros
                D = rng.integers(0, 4, size=(n, n)) / 4.0
            elif kind == 1:  # values across exponents and ulp-close ties
                D = rng.choice(cls.POOL, size=(n, n))
            elif kind == 2:  # duplicate rows: items copied at distance 0
                base = rng.uniform(0, 1, size=(n, n))
                copy = rng.integers(0, n, size=n)
                D = base[copy][:, copy]
            else:
                D = rng.uniform(0, 1, size=(n, n))
            D = np.triu(D, 1)
            D = D + D.T
            weights = (rng.integers(1, 5, size=n) if rng.random() < 0.6
                       else np.ones(n, dtype=int))
            yield D, int(rng.integers(1, 6)), weights
        for n in (4, 9):  # all-duplicate rows, weighted and not
            yield np.zeros((n, n)), 3, np.ones(n, dtype=int)
            yield np.zeros((n, n)), 2, np.arange(1, n + 1)

    def test_nonnegative_floats_order_as_their_int64_bits(self):
        rng = np.random.default_rng(3)
        values = np.concatenate((self.POOL, rng.uniform(0, 2, 500), rng.random(50) * 1e-310))
        keys = values.view(np.int64)
        assert np.array_equal(np.argsort(values, kind="stable"), np.argsort(keys, kind="stable"))

    @pytest.mark.parametrize("budget", [cluster._PARTITION_BUDGET, 7])
    def test_matches_float64_partition(self, monkeypatch, budget):
        monkeypatch.setattr(cluster, "_PARTITION_BUDGET", budget)
        checked = 0
        for D, min_pts, weights in self.cases():
            if weights.sum() < min_pts + 1:
                continue
            got = estimate_eps(D, min_pts, weights)
            assert got == self.float_partition_eps(D, min_pts, weights)
            checked += 1
        assert checked > 150

    @pytest.mark.parametrize("budget", [cluster._PARTITION_BUDGET, 7, 40, 300])
    def test_k_distances_match_the_unblocked_float64_selection(self, monkeypatch, budget):
        # the curve estimate_eps hands to kneedle is, bit for bit, the
        # sorted positive k-distances of the fully repeated matrix; the
        # budgets between 7 and the default put several rows with their
        # extra columns into one block
        curves = []
        monkeypatch.setattr(cluster.pca, "kneedle", lambda curve: curves.append(curve[::-1]))
        monkeypatch.setattr(cluster, "_PARTITION_BUDGET", budget)
        for D, min_pts, weights in self.cases():
            if weights.sum() < min_pts + 1:
                continue
            E = D.repeat(weights, axis=0).repeat(weights, axis=1)
            want = np.sort(np.partition(E, min_pts, axis=1)[:, min_pts])
            curves.clear()
            estimate_eps(D, min_pts, weights)
            got = curves[0] if curves else np.zeros(0)
            assert np.array_equal(got.view(np.int64), want[want > 0].view(np.int64))

    def test_weighted_block_scratch_stays_near_the_budget(self):
        # a node shaped like dup_heavy's first root: 552 distinct values,
        # 255 of them held by 17 or 18 members each, so every row block
        # also copies 765 extra columns; the blocks are sized with them
        rng = np.random.default_rng(17)
        u = 552
        D = random_dist(rng, u)
        weights = np.ones(u, dtype=np.intp)
        weights[rng.choice(u, size=255, replace=False)] = rng.integers(17, 19, size=255)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            estimate_eps(D, cluster.MIN_PTS, weights)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            if started:
                tracemalloc.stop()
        assert peak < 2 * 8 * cluster._PARTITION_BUDGET


class TestRecursiveCluster:
    def test_published_matrix_is_single_suitable_root(self, example_x):
        roots = recursive_cluster([row.astype(np.uint8).tobytes() for row in example_x])
        assert len(roots) == 1
        assert roots[0].verdict == PCA_SUITABLE
        assert roots[0].spectrum.n_sig == 2
        assert roots[0].members == tuple(range(8))

    def test_small_group_abandoned(self):
        roots = recursive_cluster([bytes([1, 2])] * 5)
        assert roots[0].verdict == ABANDONED_SMALL

    def test_mixed_lengths_split_before_analysis(self):
        values = [bytes([i, i]) for i in range(6)] + [bytes(range(10))] * 6
        roots = recursive_cluster(values)
        root = roots[0]
        assert root.verdict == RECURSED
        assert len(root.children) == 2
        assert {len(values[c.members[0]]) for c in root.children} == {2, 10}

    def test_no_segments_rejected(self):
        with pytest.raises(UsageError):
            recursive_cluster([])

    def test_empty_value_rejected(self):
        with pytest.raises(UsageError):
            recursive_cluster([b"\x01\x02"] * 6 + [b""])

    def test_leaves_partition_input(self):
        rng = np.random.default_rng(99)
        values = [bytes(rng.integers(0, 256, size=int(rng.integers(1, 7))).tolist())
                  for _ in range(60)]
        roots = recursive_cluster(values)
        leaves = [leaf for root in roots for leaf in root.leaves()]
        assert sorted(m for leaf in leaves for m in leaf.members) == list(range(60))
        for leaf in leaves:
            assert leaf.verdict != RECURSED
            assert leaf.depth <= 3
            assert list(leaf.members) == sorted(leaf.members)

    def test_recursed_nodes_have_children(self):
        roots = recursive_cluster(random_values(np.random.default_rng(41), 40, 3))

        def walk(node):
            assert (node.verdict == RECURSED) == bool(node.children)
            for child in node.children:
                walk(child)

        for root in roots:
            walk(root)


class TestOneClusterChain:
    """A node that DBSCAN does not split is emitted as a chain down to max_depth."""

    def test_chain_is_analysed_once(self, monkeypatch):
        # 20 random 6-byte values: unsuitable, and DBSCAN keeps all of them together
        _, refs, values = placed(random_values(np.random.default_rng(2), 20, 6))
        calls = {"overlay": 0, "dbscan": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(dissim, "overlay_cluster", counted("overlay", dissim.overlay_cluster))
        monkeypatch.setattr(cluster, "dbscan", counted("dbscan", cluster.dbscan))
        roots = recursive_cluster(values, max_depth=3)
        assert calls == {"overlay": 1, "dbscan": 1}
        node = roots[0]
        for depth in range(3):
            assert (node.verdict, node.depth, node.members) == (RECURSED, depth, tuple(range(20)))
            assert len(node.children) == 1
            node = node.children[0]
        assert (node.verdict, node.depth, node.members) == (ABANDONED_DEPTH, 3, tuple(range(20)))
        assert not node.children
        reference = reference_recursive_cluster(refs, AnalysisParams(), 3)
        assert calls["overlay"] == 5  # the recomputing recursion overlays every level
        assert ref_tree(roots, refs) == reference
        assert_children_partition(roots)

    @pytest.mark.parametrize("max_depth", [1, 3])
    def test_random_sets_match_recomputing_recursion(self, max_depth):
        rng = np.random.default_rng(23 + max_depth)
        for _ in range(40):
            length = int(rng.integers(2, 9))
            trace, refs, values = placed(random_values(rng, int(rng.integers(6, 40)), length))
            roots = recursive_cluster(values, max_depth=max_depth)
            assert ref_tree(roots, refs) == reference_recursive_cluster(refs, AnalysisParams(),
                                                                        max_depth)
            assert_children_partition(roots)
            assert_round_trips(roots, trace, refs)

    @pytest.mark.parametrize("name", sorted(synth.reference_specs()))
    def test_spec_segments_match_recomputing_recursion(self, name):
        _, refs, values = spec_layout(name, 40, 7)
        roots = recursive_cluster(values)
        assert ref_tree(roots, refs) == reference_recursive_cluster(refs, AnalysisParams(),
                                                                    cluster.DEFAULT_MAX_DEPTH)
        assert_children_partition(roots)


class TestOverlayReuse:
    """A sub-cluster whose medoid holds an ancestor's medoid value reuses its offsets."""

    fresh_overlay = staticmethod(dissim.overlay_cluster)

    def record_overlays(self, monkeypatch):
        """Every overlay made from now on, as (its members' bytes, overlay, offsets reused)."""
        overlays = []

        def recorded(values, dist, inverse, known=None):
            overlay = self.fresh_overlay(values, dist, inverse, known)
            reused = bool(known) and values[inverse[overlay.reference]] in known
            overlays.append(([values[d] for d in inverse], overlay, reused))
            return overlay

        monkeypatch.setattr(dissim, "overlay_cluster", recorded)
        return overlays

    def assert_fresh(self, overlays):
        # ClusterNode equality skips the overlay, so it is compared here
        for member_values, overlay, _ in overlays:
            assert overlay == self.fresh_overlay(*reference_distinct(member_values))

    @pytest.mark.parametrize("preset_name", ["nullpca", "nemepca"])
    @pytest.mark.parametrize("name", sorted(synth.reference_specs()))
    def test_overlays_equal_fresh_overlays(self, monkeypatch, name, preset_name):
        # every overlay of the pipeline's pca pass, reused offsets or not,
        # equals one computed from the members alone
        spec = dataclasses.replace(synth.reference_specs()[name], message_count=150, rng_seed=5)
        messages, _ = synth.generate(spec)
        overlays = self.record_overlays(monkeypatch)
        run_pipeline(messages, preset(preset_name))
        self.assert_fresh(overlays)
        assert sum(reused for *_, reused in overlays) >= 1

    def test_mixed_length_sets(self, monkeypatch):
        # the specs' overlaid nodes hold one length each, so every offset
        # is 0; here members are windows of 7 to 10 bytes of three mutated
        # prototypes, so reused offsets differ and the shifts are not all 0
        overlays = self.record_overlays(monkeypatch)
        for seed in range(40):
            rng = np.random.default_rng(seed)
            prototypes = rng.integers(0, 256, size=(3, 10))
            values = []
            for i in range(int(rng.integers(30, 80))):
                value = prototypes[rng.integers(0, 3)].copy()
                k = int(rng.integers(0, 3))
                value[rng.integers(0, 10, size=k)] = rng.integers(0, 256, size=k)
                start = int(rng.integers(0, 3))
                values.append(value[start:start + int(rng.integers(7, 11 - start))].tolist())
            _, refs, values = placed(values)
            roots = recursive_cluster(values)
            assert ref_tree(roots, refs) == reference_recursive_cluster(
                refs, AnalysisParams(), cluster.DEFAULT_MAX_DEPTH)
        self.assert_fresh(overlays)
        assert sum(reused and len(set(overlay.shifts)) > 1
                   for _, overlay, reused in overlays) >= 20

    def test_reused_offsets_skip_dissimilarity(self, monkeypatch):
        # a medoid held by an ancestor's medoid costs no dissimilarity call
        spec = dataclasses.replace(synth.reference_specs()["mixed"], message_count=150,
                                   rng_seed=5)
        messages, _ = synth.generate(spec)
        counted = {"reused": 0, "calls": 0}
        fresh_dissimilarity = dissim.dissimilarity
        fresh_overlay = dissim.overlay_cluster

        def dissimilarity(s, t):
            counted["calls"] += 1
            return fresh_dissimilarity(s, t)

        def overlay(values, dist, inverse, known=None):
            before = counted["calls"]
            result = fresh_overlay(values, dist, inverse, known)
            if known and values[inverse[result.reference]] in known:
                counted["reused"] += 1
                assert counted["calls"] == before
            return result

        monkeypatch.setattr(dissim, "dissimilarity", dissimilarity)
        monkeypatch.setattr(dissim, "overlay_cluster", overlay)
        run_pipeline(messages, preset("nullpca"))
        assert counted["reused"] >= 1 and counted["calls"] >= 1


class TestSubsetGather:
    """A child's matrix gathered in row blocks over the front of its parent's buffer."""

    @staticmethod
    def gather(D, rows):
        rows = np.asarray(rows)
        everything = np.arange(len(D))
        for dist in (None, D):
            members, values, inverse, sub = cluster._subset(everything, everything.tolist(),
                                                            everything, dist, rows, rows.tolist())
            assert members.tolist() == values == rows.tolist()
            assert inverse.tolist() == list(range(rows.size))
        return sub

    # below 513 distinct values a child fits in one block of rows; above, in two
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(u=st.one_of(st.integers(1, 12), st.integers(513, 560)), data=st.data())
    def test_gather_equals_fancy_indexing(self, u, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        k = data.draw(st.one_of(st.just(1), st.just(u), st.integers(1, u)))
        rows = np.sort(rng.choice(u, size=k, replace=False))
        ends = data.draw(st.sampled_from([(), (0,), (u - 1,), (0, u - 1)]))
        rows = np.union1d(rows, ends).astype(np.intp)
        D = random_dist(rng, u)
        want = D[np.ix_(rows, rows)]
        buffer = D.copy()
        sub = self.gather(buffer, rows)
        assert np.shares_memory(sub, buffer)
        assert sub.tobytes() == want.tobytes()
        # a child gathered in place is a prefix view, and its own child can
        # again be gathered into the same buffer
        inner = rows[::2]
        subsub = self.gather(sub, np.searchsorted(rows, inner))
        assert np.shares_memory(subsub, buffer)
        assert subsub.tobytes() == D[np.ix_(inner, inner)].tobytes()

    def test_pairwise_matrix_is_c_contiguous(self):
        # so the in-place gather's reshape(-1) is a view of the root's buffer
        values = random_values(np.random.default_rng(3), 30, 4)
        assert dissim.pairwise(values).flags.c_contiguous

    def test_peak_memory_stays_near_the_largest_matrix(self):
        # criterion 9's trace: mixed at 1000 messages, segmented as nullpca
        # has it when the pca pass starts
        spec = dataclasses.replace(synth.reference_specs()["mixed"], message_count=1000)
        messages, _ = synth.generate(spec)
        passes = preset("nullpca").passes
        before_pca = dataclasses.replace(preset("nullpca"), passes=passes[:passes.index(PASS_PCA)])
        segs = run_pipeline(messages, before_pca).segmentations
        values = [v for m, s in zip(messages, segs) for v in segments_of(s, m)]
        groups = {}
        for v in values:
            groups.setdefault(len(v), set()).add(v)
        u = max(map(len, groups.values()))
        assert u == 1167

        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            roots = recursive_cluster(values)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            if started:
                tracemalloc.stop()
        # the root splits by length, so the largest matrix is that group's
        assert {len({len(values[m]) for m in child.members})
                for child in roots[0].children} == {1}
        assert peak < 1.6 * 8 * u * u

    def test_peak_is_one_workspace_when_the_root_splits_in_two(self):
        # 2000 distinct 8-byte values in two well-separated families of
        # 1000: the root splits into two children of about 980 values.
        # The second child's matrix is computed into the workspace after
        # the first child's subtree, where a copy of it took 8 k^2 bytes more
        rng = np.random.default_rng(5)
        values = set()
        for pattern in ([100, 200] * 4, [200, 100] * 4):
            family = set()
            while len(family) < 1000:
                family.add(bytes((np.array(pattern) + rng.integers(0, 24, size=8)).tolist()))
            values |= family
        values = sorted(values, key=lambda v: rng.random())
        u = len(values)

        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            roots = recursive_cluster(values)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            if started:
                tracemalloc.stop()
        sizes = sorted(len(child.members) for child in roots[0].children
                       if child.verdict != NOISE)
        assert roots[0].verdict == RECURSED and sizes[-2] > 900
        assert peak < 8 * u * u + u * u / 8 + 3 * 8 * cluster._PARTITION_BUDGET


def assert_children_partition(roots):
    """The children of every inner node, its noise child included, partition its members."""
    for root in roots:
        stack = [root]
        while stack:
            node = stack.pop()
            if node.children:
                held = [m for child in node.children for m in child.members]
                assert sorted(held) == list(node.members)
                stack.extend(node.children)


def assert_round_trips(roots, trace, refs):
    """Each node's member multiset and count, rebuilt from its dict's leaves, are the tree's.

    Member i of the tree is refs[i], a segment of trace.
    """
    def rebuilt(entry, node, ids):
        assert (entry["id"], entry["verdict"], entry["depth"]) == (next(ids), node.verdict,
                                                                    node.depth)
        assert entry["member_count"] == len(node.members)
        if node.children:
            assert "members" not in entry and len(entry["children"]) == len(node.children)
            held = Counter()
            for child_entry, child in zip(entry["children"], node.children):
                held += rebuilt(child_entry, child, ids)
        else:
            assert "children" not in entry
            held = Counter(map(tuple, entry["members"]))
        assert held == Counter((refs[m].message_id, refs[m].start, refs[m].end)
                               for m in node.members)
        return held

    tree = tree_to_json(roots, trace)
    assert tree["format"] == 2 and len(tree["roots"]) == len(roots)
    ids = itertools.count()
    for entry, root in zip(tree["roots"], roots):
        rebuilt(entry, root, ids)


class TestTreeToJson:
    """`tree_to_json` gives the format-2 node dicts of `clusters.json`."""

    def test_empty_root_list(self):
        assert tree_to_json([], None) == {"format": 2, "roots": []} == reference_tree_dicts([])

    def test_one_cluster_chain(self):
        trace, refs, values = placed(random_values(np.random.default_rng(2), 20, 6))
        roots = recursive_cluster(values, max_depth=3)
        assert tree_to_json(roots, trace) == reference_tree_dicts(ref_tree(roots, refs))
        assert_round_trips(roots, trace, refs)
        text = json.dumps(tree_to_json(roots, trace), separators=(",", ":"))
        assert text.count("[7,0,6]") == 1  # members once, at the leaf
        assert text.count('"member_count":20') == 4

    def test_leaf_members_and_inner_counts(self):
        # segments [0, 4) and [4, 6) of message 3, and all of message 8
        trace, _, _ = layout([Message(3, bytes(6)), Message(8, bytes(3))],
                             [Segmentation(3, (4,)), Segmentation(8, ())])
        root = ClusterNode((1, 2), RECURSED, 0, children=(
            ClusterNode((2,), PCA_SUITABLE, 1), ClusterNode((1,), NOISE, 1)))
        assert tree_to_json([root], trace) == {"format": 2, "roots": [{
            "id": 0, "verdict": RECURSED, "depth": 0, "member_count": 2, "children": [
                {"id": 1, "verdict": PCA_SUITABLE, "depth": 1, "member_count": 1,
                 "members": [(8, 0, 3)]},
                {"id": 2, "verdict": NOISE, "depth": 1, "member_count": 1,
                 "members": [(3, 4, 6)]},
            ]}]}

    def test_noise_children_and_deep_nesting(self):
        rng = np.random.default_rng(5)
        trace, refs, _ = placed(random_values(rng, 30, 4), [i % 3 for i in range(30)])
        members = tuple((trace.first[1:] - 1).tolist())  # each message's value
        chain = ClusterNode(members[:10], ABANDONED_DEPTH, 3)
        for level in (2, 1):
            chain = ClusterNode(members[:10], RECURSED, level, children=(chain,))
        root = ClusterNode(members, RECURSED, 0, children=(
            chain,
            ClusterNode(members[10:17], PCA_SUITABLE, 1),
            ClusterNode(members[17:20], ABANDONED_SMALL, 1),
            ClusterNode(members[20:], NOISE, 1),
        ))
        roots = [root, ClusterNode(members[:2], NOISE, 0)]
        assert tree_to_json(roots, trace) == reference_tree_dicts(ref_tree(roots, refs))
        assert_round_trips(roots, trace, refs)

    def test_length_split_roots(self):
        rng = np.random.default_rng(8)
        trace, refs, values = placed([rng.integers(0, 256, size=int(size)).tolist()
                                      for size in rng.choice([2, 5, 12], size=60)])
        roots = recursive_cluster(values)
        assert roots[0].verdict == RECURSED and len(roots[0].children) == 3
        assert tree_to_json(roots, trace) == reference_tree_dicts(ref_tree(roots, refs))
        assert_children_partition(roots)
        assert_round_trips(roots, trace, refs)

    def test_verdict_and_empty_members_through_the_json_encoder(self, tmp_path):
        trace, refs, _ = layout([Message(12345, bytes(680))], [Segmentation(12345, (678,))])
        roots = [ClusterNode((), 'caf\u00e9 "q" \\ \n', 0), ClusterNode((1,), NOISE, 0)]
        path = tmp_path / "clusters.json"
        write_json_atomic(str(path), tree_to_json(roots, trace))
        want = json.dumps(reference_tree_dicts(ref_tree(roots, refs)), separators=(",", ":"))
        assert path.read_text(encoding="utf-8") == want + "\n"
        assert '"members":[[12345,678,680]]' in want
        assert_round_trips(roots, trace, refs)

    def test_duplicate_heavy_sets(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            values = duplicate_heavy_values(rng, int(rng.integers(10, 120)))[0]
            # every fifth value starts at 0; the others after a zero-byte segment
            trace, refs, values = placed(values, [i % 5 for i in range(len(values))])
            roots = recursive_cluster(values)
            assert_children_partition(roots)
            assert_round_trips(roots, trace, refs)

    def test_duplicate_heavy_spec_tree(self):
        # the shape of the golden mixed/nullpca@600 case: length groups with
        # several times more segments than distinct values, recursing below
        trace, refs, values = spec_layout("mixed", 300, 5)
        roots = recursive_cluster(values)
        assert max(node.depth for node in roots[0].leaves()) >= 2
        assert_children_partition(roots)
        assert_round_trips(roots, trace, refs)

    @pytest.mark.parametrize("name", sorted(synth.reference_specs()))
    def test_spec_trees(self, name):
        trace, refs, values = spec_layout(name, 120, 3)
        roots = recursive_cluster(values)
        assert tree_to_json(roots, trace) == reference_tree_dicts(ref_tree(roots, refs))
        assert_children_partition(roots)
        assert_round_trips(roots, trace, refs)
