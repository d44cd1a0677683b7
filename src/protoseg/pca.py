"""Covariance, symmetric eigendecomposition, knee detection, and PC significance.

The eigen spectrum of a segment cluster's covariance matrix is the raw
material of the boundary inference: a small number of dominant
eigenvalues means the byte-value variance is systematic rather than
random, and the corresponding loadings say which byte positions vary
together.

Significance of a principal component is decided against the threshold

    q_s = min(K(lambda), lambda_0 / 10, scree_min)

where K(lambda) is the eigenvalue at the knee of the scree curve (taken
as +inf when no knee exists, so the term drops out of the min).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import AnalysisParams, UsageError

# sensitivity of the knee detector; scree curves are short, so no smoothing
KNEEDLE_SENSITIVITY = 1.0

# eigenvalues within this relative distance of zero are round-off on a
# rank-deficient covariance and get clamped to 0 (a stray 1e-14 must not
# count as a significant PC when the knee pushes q_s to 0)
_EIG_CLAMP_REL = 1e-9


@dataclass(frozen=True)
class PcaResult:
    """Eigen spectrum of one cluster's covariance matrix.

    eigenvalues  descending
    loadings     row i is the unit eigenvector of eigenvalues[i]
    q_s          significance threshold (None until computed)
    knee         index into eigenvalues, or None
    n_sig        number of eigenvalues strictly above q_s
    """

    eigenvalues: np.ndarray
    loadings: np.ndarray
    q_s: Optional[float] = None
    knee: Optional[int] = None
    n_sig: int = 0

    def suitable(self, params: AnalysisParams = AnalysisParams()) -> bool:
        """Whether the variance is concentrated enough for interpretation.

        True iff n_sig does not exceed suitability_bound(dim, params).
        """
        return self.n_sig <= suitability_bound(self.eigenvalues.size, params)


def covariance(X: np.ndarray) -> np.ndarray:
    """Sample covariance of the rows of X (denominator rows-1)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise UsageError("covariance needs a 2-d matrix with at least 2 rows")
    centered = X - X.sum(axis=0) / X.shape[0]  # the bits of X.mean(axis=0), without its wrapper
    return centered.T @ centered / (X.shape[0] - 1)


def eig_sym(C: np.ndarray) -> PcaResult:
    """Eigendecomposition of a symmetric matrix, sorted by descending eigenvalue.

    Loading signs are normalized so the largest-magnitude component of
    each eigenvector is positive.  Negative eigenvalues within round-off
    of zero are clamped to 0.
    """
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise UsageError("eig_sym needs a square matrix")
    # np.allclose accepts every exactly symmetric matrix (x == y is close,
    # infinities included), and `covariance` gives one, so one comparison
    # decides the common case and allclose itself decides the others
    if not (C == C.T).all() and not np.allclose(C, C.T, atol=1e-9):
        raise UsageError("eig_sym needs a symmetric matrix (within 1e-9)")

    lam, vecs = np.linalg.eigh(C)
    order = np.argsort(lam)[::-1]
    lam = lam[order]
    loadings = vecs[:, order].T

    clamp = _EIG_CLAMP_REL * max(1.0, float(abs(lam[0])))
    lam[np.abs(lam) <= clamp] = 0.0  # lam is a fresh copy

    k = np.abs(loadings).argmax(axis=1)  # the first of equal magnitudes
    flip = loadings[np.arange(len(k)), k] < 0
    np.negative(loadings, out=loadings, where=flip[:, None])
    return PcaResult(eigenvalues=lam, loadings=loadings)


def kneedle(values) -> Optional[int]:
    """Knee index of a descending positive curve, or None.

    Kneedle with sensitivity 1: x and y normalized to [0,1], difference
    curve d = (1-x) - y for decreasing data; the knee is the maximum of d
    provided it exceeds the sensitivity threshold S/(n-1).
    """
    v = np.asarray(values, dtype=float)
    n = v.size
    if n < 3:
        return None
    high, low = v.max(), v.min()
    if v[0] - v[-1] <= 0 or high == low:
        return None
    d = (1.0 - np.arange(n) / (n - 1)) - (v - low) / (high - low)
    knee = int(d.argmax())
    return knee if d[knee] > KNEEDLE_SENSITIVITY / (n - 1) else None


def suitability_bound(dim: int, params: AnalysisParams = AnalysisParams()) -> float:
    """Most significant PCs a suitable cluster of dim dimensions may have.

    min(max_principals, dim * principal_ratio)
    """
    return min(params.max_principals, dim * params.principal_ratio)


def analyze_spectrum(eigenvalues, loadings=None, params: AnalysisParams = AnalysisParams()) -> PcaResult:
    """Attach q_s, knee, and the significant-PC count to an eigen spectrum."""
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.size == 0:
        raise UsageError("empty eigenvalue list")
    knee = kneedle(lam)
    knee_value = float(lam[knee]) if knee is not None else np.inf
    q_s = float(min(knee_value, lam[0] / 10.0, params.scree_min))
    n_sig = int(np.count_nonzero(lam > q_s))
    if loadings is None:
        loadings = np.empty((0, lam.size))
    return PcaResult(eigenvalues=lam, loadings=np.asarray(loadings, dtype=float),
                     q_s=q_s, knee=knee, n_sig=n_sig)


def pca_prerequisites(eigenvalues, params: AnalysisParams = AnalysisParams()) -> bool:
    """Whether a cluster's variance is concentrated enough for interpretation.

    The spectrum is analyzed with `analyze_spectrum` and judged by
    `PcaResult.suitable`.
    """
    return analyze_spectrum(eigenvalues, params=params).suitable(params)
