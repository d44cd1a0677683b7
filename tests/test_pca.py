from collections import Counter

import numpy as np
import pytest

from conftest import jacobi_eigvals
from protoseg.model import AnalysisParams, UsageError
from protoseg.pca import (analyze_spectrum, covariance, eig_sym, kneedle,
                          pca_prerequisites, suitability_bound)


class TestCovariance:
    def test_published_matrix(self, example_x, example_c):
        C = covariance(example_x)
        # entrywise within 2% relative or 0.01 absolute (source is rounded)
        tol = np.maximum(0.02 * np.abs(example_c), 0.01)
        assert np.all(np.abs(C - example_c) <= tol)

    def test_constant_column_gives_zero_row(self):
        X = np.array([[1.0, 5.0], [1.0, 9.0], [1.0, 2.0]])
        C = covariance(X)
        assert C[0, 0] == 0.0 and C[0, 1] == 0.0

    def test_two_row_hand_example(self):
        C = covariance(np.array([[0.0, 0.0], [2.0, 2.0]]))
        assert np.allclose(C, [[2.0, 2.0], [2.0, 2.0]])

    def test_single_row_rejected(self):
        with pytest.raises(UsageError):
            covariance(np.array([[1.0, 2.0]]))


class TestEigSym:
    def test_identity(self):
        res = eig_sym(np.eye(3))
        assert np.allclose(res.eigenvalues, [1, 1, 1])

    def test_diagonal(self):
        res = eig_sym(np.diag([4.0, 1.0]))
        assert np.allclose(res.eigenvalues, [4, 1])
        assert np.allclose(np.abs(res.loadings), np.eye(2))

    def test_published_spectrum_against_jacobi_oracle(self, example_x):
        # frozen from an independent cyclic-Jacobi run on the same matrix
        C = covariance(example_x)
        lam = eig_sym(C).eigenvalues
        oracle = jacobi_eigvals(C)
        assert np.allclose(lam, oracle, rtol=1e-8, atol=1e-8)
        assert abs(lam[0] - 5158.41) / 5158.41 < 0.01
        assert abs(lam[1] - 543.55) / 543.55 < 0.01
        assert np.all(lam[2:] < 10)

    def test_rejects_non_symmetric(self):
        with pytest.raises(UsageError):
            eig_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_sign_normalization(self):
        res = eig_sym(np.diag([3.0, 2.0, 1.0]))
        for row in res.loadings:
            assert row[np.argmax(np.abs(row))] > 0

    @staticmethod
    def per_row_signs(C):
        """eig_sym's loadings with the signs normalized one row at a time."""
        lam, vecs = np.linalg.eigh(C)
        loadings = vecs[:, np.argsort(lam)[::-1]].T
        for i in range(loadings.shape[0]):
            k = int(np.argmax(np.abs(loadings[i])))
            if loadings[i, k] < 0:
                loadings[i] = -loadings[i]
        return loadings

    def test_sign_normalization_matches_the_per_row_loop(self):
        # bit for bit, -0.0 included, on random matrices and on ones whose
        # eigenvectors have components of equal magnitude
        rng = np.random.default_rng(12)
        cases = []
        for _ in range(200):
            A = rng.normal(size=(int(rng.integers(1, 12)),) * 2)
            cases.append((A + A.T) / 2)
        cases += [np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([[2.0, -1.0], [-1.0, 2.0]]),
                  np.ones((4, 4)), np.diag([0.0, -1.0, 2.0]), np.zeros((3, 3))]
        for n in (2, 3, 5, 8):
            X = rng.integers(0, 4, size=(6, n)).astype(float)
            cases.append(covariance(np.hstack([X, X])))  # every column twice
        ties = 0
        for C in cases:
            loadings = eig_sym(C).loadings
            expected = self.per_row_signs(C)
            assert loadings.tobytes() == expected.tobytes()
            magnitude = np.abs(loadings)
            ties += int(np.sum(magnitude == magnitude.max(axis=1, keepdims=True)) - len(magnitude))
        assert ties > 0

    @staticmethod
    def passes_symmetry_check(C):
        """Whether eig_sym gets past its symmetry check on C."""
        try:
            with np.errstate(all="ignore"):
                eig_sym(C)
        except UsageError:
            return False
        except np.linalg.LinAlgError:  # checked, then eigh failed on a non-finite C
            return True
        return True

    def test_symmetry_check_is_allclose(self):
        # accepted exactly where np.allclose(C, C.T, atol=1e-9) holds:
        # symmetric matrices, perturbations either side of the tolerance
        # |x - y| <= 1e-9 + 1e-5 |y|, and non-finite entries, which
        # allclose calls close only where they are equal infinities
        rng = np.random.default_rng(41)
        cases = []
        for _ in range(100):
            A = rng.normal(scale=float(rng.choice([1e-12, 1.0, 1e6])),
                           size=(int(rng.integers(1, 9)),) * 2)
            cases.append((A + A.T) / 2)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            A = rng.normal(scale=float(rng.choice([1e-12, 1e-9, 1.0, 1e6])), size=(n, n))
            C = (A + A.T) / 2
            i, j = rng.choice(n, size=2, replace=False)
            tolerance = 1e-9 + 1e-5 * abs(C[j, i])
            C[i, j] = C[j, i] + float(rng.choice([-1, 1])) * tolerance * float(
                rng.choice([0.5, 1 - 1e-9, 1.0, 1 + 1e-9, 2.0]))
            cases.append(C)
        specials = [np.nan, np.inf, -np.inf, 1.0]
        for upper in specials:
            for lower in specials:
                for diagonal in specials:
                    C = np.array([[diagonal, upper, 0.0], [lower, 2.0, 0.5], [0.0, 0.5, 3.0]])
                    cases.append(C)
        verdicts = Counter()
        for C in cases:
            expected = bool(np.allclose(C, C.T, atol=1e-9))
            assert self.passes_symmetry_check(C) == expected, C
            verdicts[expected, bool(np.isfinite(C).all())] += 1
        # every combination of finite or not and accepted or not occurs
        assert len(verdicts) == 4 and min(verdicts.values()) >= 5

    def test_random_spectra_match_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = rng.integers(2, 9)
            A = rng.normal(size=(n, n))
            C = (A + A.T) / 2
            assert np.allclose(eig_sym(C).eigenvalues, jacobi_eigvals(C),
                               rtol=1e-7, atol=1e-7)


class TestKneedle:
    def test_published_scree(self):
        assert kneedle([5000, 540, 2, 0, 0]) == 1

    def test_linear_decrease_has_no_knee(self):
        assert kneedle([4, 3, 2, 1]) is None

    def test_short_tail_curve(self):
        assert kneedle([100, 1, 0.5, 0.1]) == 1

    def test_too_few_values(self):
        assert kneedle([5, 1]) is None

    def test_flat_curve(self):
        assert kneedle([2, 2, 2, 2]) is None


class TestSignificance:
    def test_published_scree_threshold(self):
        lam = [5000, 540, 2, 0, 0]
        res = analyze_spectrum(lam)
        assert res.q_s == 10
        assert res.n_sig == 2
        assert pca_prerequisites(lam) is True

    def test_near_flat_spectrum_fails(self):
        lam = [8, 7, 7, 6, 6, 5, 5, 4]
        res = analyze_spectrum(lam)
        assert res.q_s == pytest.approx(0.8)
        assert res.n_sig == 8
        assert pca_prerequisites(lam) is False

    def test_threshold_follows_caller_params(self):
        lam = [5000, 540, 2, 0, 0]
        params = AnalysisParams(scree_min=1)
        assert analyze_spectrum(lam, params=params).q_s == 1
        # q_s = 1 makes the third eigenvalue significant too
        assert analyze_spectrum(lam, params=params).n_sig == 3

    def test_suitability_bound(self):
        assert suitability_bound(5) == 2.5
        assert suitability_bound(20) == 4
        assert suitability_bound(20, AnalysisParams(max_principals=6)) == 6
        # three significant PCs pass in 8 dimensions (bound 4), not in 5 (bound 2.5)
        assert pca_prerequisites([900, 800, 700, 1, 1, 0, 0, 0]) is True
        assert pca_prerequisites([900, 800, 700, 1, 1]) is False
        # pca_prerequisites and the clustering share one predicate
        assert analyze_spectrum([900, 800, 700, 1, 1, 0, 0, 0]).suitable() is True
        assert analyze_spectrum([900, 800, 700, 1, 1]).suitable() is False
        assert analyze_spectrum([900, 800, 700, 1, 1]).suitable(
            AnalysisParams(principal_ratio=0.6)) is True

    def test_single_dimension_fails(self):
        res = analyze_spectrum([1.0])
        assert res.q_s == pytest.approx(0.1)
        assert res.n_sig == 1
        assert pca_prerequisites([1.0]) is False


class TestNumericInvariants:
    def test_trace_reconstruction_orthonormality(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(2, 33))
            A = rng.normal(scale=rng.uniform(0.5, 50), size=(n, n))
            C = (A + A.T) / 2
            res = eig_sym(C)
            lam, W = res.eigenvalues, res.loadings
            assert abs(np.trace(C) - lam.sum()) <= 1e-6 * max(1.0, abs(np.trace(C)))
            recon = W.T @ np.diag(lam) @ W
            assert np.max(np.abs(C - recon)) <= 1e-6 * np.max(np.abs(C)) + 1e-12
            assert np.max(np.abs(W @ W.T - np.eye(n))) <= 1e-8

    def test_n_sig_scale_invariant_when_scree_min_inactive(self):
        # regime where min(K, lambda0/10) < scree_min both before and after
        rng = np.random.default_rng(3)
        for _ in range(50):
            lam = np.sort(rng.uniform(0, 60, size=6))[::-1]
            c = rng.uniform(0.2, 90.0 / max(lam[0], 1e-9))
            before = analyze_spectrum(lam)
            after = analyze_spectrum(lam * c)
            if before.q_s < 10 and after.q_s < 10:
                assert before.n_sig == after.n_sig
