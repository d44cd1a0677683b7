"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line once its assertions hold (run with
-s or -rA to see them), so the suite doubles as a checklist.
"""

import dataclasses
import resource
import time

import numpy as np
import pytest

from conftest import EXAMPLE_C, EXAMPLE_X, reference_dbscan
from protoseg import evaluate as ev
from protoseg import refine, synth, traceio
from protoseg.cluster import PCA_SUITABLE, dbscan
from protoseg.dissim import canberra, dissimilarity, pairwise
from protoseg.model import AnalysisParams
from protoseg.pca import (analyze_spectrum, covariance, eig_sym, kneedle,
                          pca_prerequisites)
from protoseg.rules import ContributionVector, rule_a, rule_b


def ok(criterion, text):
    print(f"criterion {criterion}: PASS  {text}")


def test_criterion_01_covariance_fidelity():
    covariance(EXAMPLE_X)  # warmup
    start = time.perf_counter()
    C = covariance(EXAMPLE_X)
    elapsed = time.perf_counter() - start
    tol = np.maximum(0.02 * np.abs(EXAMPLE_C), 0.01)
    assert np.all(np.abs(C - EXAMPLE_C) <= tol)
    assert elapsed < 1e-3
    ok(1, f"covariance matches the printed matrix entrywise ({elapsed * 1e6:.0f} us)")


def test_criterion_02_scree_knee():
    lam = [5000, 540, 2, 0, 0]
    assert kneedle(lam) == 1
    res = analyze_spectrum(lam)
    assert res.q_s == 10
    assert res.n_sig == 2
    assert pca_prerequisites(lam) is True
    ok(2, "knee at index 1, q_s = 10, 2 significant PCs, prerequisites pass")


def test_criterion_03_rule_formulas():
    params = AnalysisParams()

    def m(values):
        return ContributionVector(m=np.array(values), n_sig=1)

    assert rule_a(m([0.3, 0.004]), params) == [1]
    assert rule_a(m([0.3, 0.09]), params) == []
    assert rule_a(m([0.05, 0.001]), params) == []
    assert rule_b(m([0.01, 0.02, 0.0, 0.004, 0.4]), params) == [4]
    assert rule_b(m([0.01, 0.02, 0.0, 0.03, 0.4]), params) == []
    assert rule_b(m([0.06, 0.0, 0.0, 0.0, 0.4]), params) == []
    ok(3, "all six boundary-rule examples evaluate exactly as specified")


def _off_by_one_restoration(delta):
    """(restored share, stray cuts, seconds) after every true cut of mixed is shifted by delta.

    The trace is 500 messages, and the pipeline the `pca` pass alone.
    A stray cut is a new cut, in a message of a PCA-suitable cluster,
    more than one byte from every true cut.
    """
    spec = dataclasses.replace(synth.reference_specs()["mixed"], message_count=500)
    messages, truth = synth.generate(spec)
    base = synth.perturb(truth, messages, delta, 1.0)
    pipeline = refine.Pipeline(base=refine.BASE_EXTERNAL, passes=(refine.PASS_PCA,))

    start = time.perf_counter()
    result = refine.run_pipeline(messages, pipeline, external=base)
    elapsed = time.perf_counter() - start

    touched = set()
    for root in result.tree:
        for leaf in root.leaves():
            if leaf.verdict == PCA_SUITABLE:
                touched.update(result.trace.ids[result.trace.segments(leaf.members)[0]].tolist())

    moved = restored = outside = 0
    for msg, seg, pert in zip(messages, result.segmentations, base):
        true_cuts = set(truth.cuts[msg.id])
        perturbed = set(pert.cuts)
        final = set(seg.cuts)
        shifted = true_cuts - perturbed
        moved += len(shifted)
        restored += len(shifted & final)
        if msg.id in touched:
            for cut in final - perturbed:
                if not any(abs(cut - t) <= 1 for t in true_cuts):
                    outside += 1
    return restored / moved, outside, elapsed


def test_criterion_04_off_by_one_restoration():
    rate, outside, elapsed = _off_by_one_restoration(+1)
    assert rate >= 0.70
    assert outside == 0
    assert elapsed < 30
    # cuts one byte early are restored far less often; 0.41 is the rate
    # measured when this bound was set, so it can only move up
    early_rate, early_outside, _ = _off_by_one_restoration(-1)
    assert early_rate >= 0.41
    assert early_outside == 0
    ok(4, f"{rate:.1%} of +1-perturbed cuts restored exactly, "
          f"no stray cuts, {elapsed:.1f} s; {early_rate:.1%} of -1-perturbed cuts")


def _six_spec_run():
    """nullpca and the bare null-bytes base on every bundled spec."""
    outcomes = {}
    for name, spec in sorted(synth.reference_specs().items()):
        messages, truth = synth.generate(spec)
        base_segs = [refine.null_segmenter(m) for m in messages]
        base = ev.score_trace(base_segs, truth, messages, name="base")
        result = refine.run_pipeline(messages, refine.preset("nullpca"))
        refined = ev.score_trace(result.segmentations, truth, messages, name="nullpca")
        outcomes[name] = (base.medians["fms_like"], refined.medians["fms_like"],
                          result.segmentations)
    return outcomes


def test_criterion_05_pipeline_improvement():
    start = time.perf_counter()
    outcomes = _six_spec_run()
    elapsed = time.perf_counter() - start
    wins = sum(1 for b, p, _ in outcomes.values() if p >= b)
    worst = min(p - b for b, p, _ in outcomes.values())
    assert wins >= 5
    assert worst >= -0.02
    assert elapsed < 120
    deltas = ", ".join(f"{n} {p - b:+.3f}" for n, (b, p, _) in sorted(outcomes.items()))
    ok(5, f"nullpca >= null-bytes base on {wins}/6 specs ({deltas}), {elapsed:.1f} s")


def test_criterion_06_clustering_oracle():
    rng = np.random.default_rng(4096)
    mismatches = 0
    for _ in range(50):
        n = int(rng.integers(2, 41))
        D = rng.uniform(0, 1, size=(n, n))
        D = (D + D.T) / 2
        np.fill_diagonal(D, 0.0)
        eps = float(rng.uniform(0.05, 0.9))
        min_pts = int(rng.integers(1, 6))
        got_clusters, got_noise = dbscan(D, eps, min_pts)
        want_clusters, want_noise = reference_dbscan(D.tolist(), eps, min_pts)
        if got_clusters != want_clusters or got_noise != want_noise:
            mismatches += 1
    assert mismatches == 0
    ok(6, "dbscan equals the brute-force reference on 50 random instances")


def test_criterion_07_metric_properties():
    rng = np.random.default_rng(512)
    remaining = 100_000
    while remaining > 0:
        batch = min(remaining, 20_000)
        length = int(rng.integers(1, 9))
        u, v, w = (rng.integers(0, 256, size=(batch, length)).astype(float)
                   for _ in range(3))

        def cb(a, b):
            num = np.abs(a - b)
            den = a + b
            return np.divide(num, den, out=np.zeros_like(num), where=den > 0).sum(axis=1)

        duv, dvw, duw = cb(u, v), cb(v, w), cb(u, w)
        assert np.all(duv >= 0)
        assert np.allclose(duv, cb(v, u))
        assert np.all(duw <= duv + dvw + 1e-12)
        assert np.all(cb(u, u) == 0)
        zero = duv == 0
        assert np.all(u[zero] == v[zero])
        remaining -= batch

    # symmetry and range of the length-tolerant extension on 10^4 pairs
    values = [bytes(rng.integers(0, 256, size=int(rng.integers(1, 9))).tolist())
              for _ in range(150)]
    D = pairwise(values)
    assert D.shape[0] * (D.shape[0] - 1) // 2 >= 10_000
    assert np.allclose(D, D.T)
    assert np.all((D >= 0) & (D <= 1))
    assert np.all(np.diag(D) == 0)
    for i, j in rng.integers(0, len(values), size=(40, 2)):
        assert D[i, j] == pytest.approx(dissimilarity(values[i], values[j])[0])
    assert canberra([1], [3]) == pytest.approx(0.5)
    ok(7, "canberra metric axioms on 1e5 triples, dissimilarity symmetry/range on 1e4+ pairs")


def test_criterion_08_numeric_invariants():
    rng = np.random.default_rng(1024)
    for _ in range(100):
        n = int(rng.integers(2, 33))
        A = rng.normal(scale=rng.uniform(0.1, 100), size=(n, n))
        C = (A + A.T) / 2
        res = eig_sym(C)
        lam, W = res.eigenvalues, res.loadings
        assert abs(np.trace(C) - lam.sum()) <= 1e-6 * max(1.0, abs(np.trace(C)))
        assert np.max(np.abs(C - W.T @ np.diag(lam) @ W)) <= 1e-6 * np.max(np.abs(C))
        assert np.max(np.abs(W @ W.T - np.eye(n))) <= 1e-8
    ok(8, "trace conservation, reconstruction, and orthonormality on 100 matrices")


def test_criterion_09_scale_guard():
    spec = dataclasses.replace(synth.reference_specs()["mixed"], message_count=1000)
    messages, _ = synth.generate(spec)
    start = time.perf_counter()
    result = refine.run_pipeline(messages, refine.preset("nullpca"))
    elapsed = time.perf_counter() - start
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1024 ** 2)
    assert len(result.segmentations) == 1000
    assert elapsed < 60
    assert peak_gb < 2.0
    ok(9, f"1000-message nullpca in {elapsed:.1f} s, peak RSS {peak_gb:.2f} GB")


def test_criterion_10_determinism(tmp_path):
    paths = []
    for run in (1, 2):
        outcomes = _six_spec_run()
        run_dir = tmp_path / f"run{run}"
        for name, (_, _, segs) in outcomes.items():
            traceio.save_segmentation(str(run_dir / f"{name}.json"), segs)
        paths.append(run_dir)
    for name in sorted(synth.reference_specs()):
        a = (paths[0] / f"{name}.json").read_bytes()
        b = (paths[1] / f"{name}.json").read_bytes()
        assert a == b
    ok(10, "two full runs produce byte-identical segmentation artifacts")
