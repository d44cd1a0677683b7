#!/usr/bin/env python3
"""Walk through the variance analysis on one cluster of segments.

Eight 5-byte segments that carry the same kind of data are stacked into
a matrix, their covariance is decomposed, and the eigen spectrum tells
us (a) that the variance is systematic and (b) where the field
boundaries sit.
"""

import numpy as np

from protoseg.cluster import recursive_cluster
from protoseg.pca import analyze_spectrum, covariance, eig_sym, kneedle
from protoseg.rules import contribution, rule_a, rule_b

np.set_printoptions(precision=2, suppress=True, linewidth=120)

# one cluster of comparable segments: a low-entropy type byte, a 2-byte
# value whose bytes move together, a flag byte, and a small counter
rows = [
    bytes.fromhex("0008500002"),
    bytes.fromhex("0108900004"),
    bytes.fromhex("0108900007"),
    bytes.fromhex("0108b00002"),
    bytes.fromhex("0290400102"),
    bytes.fromhex("0290400102"),
    bytes.fromhex("0108800004"),
    bytes.fromhex("0108800004"),
]

X = np.array([list(r) for r in rows], dtype=float)
print("data matrix X (one row per segment):")
print(X)

C = covariance(X)
print("\ncovariance C (note the strong 2x2 block at positions 1-2):")
print(C)

spectrum = eig_sym(C)
print("\neigenvalues, descending:", spectrum.eigenvalues)
print("knee of the scree curve at index:", kneedle(spectrum.eigenvalues))

full = analyze_spectrum(spectrum.eigenvalues, spectrum.loadings)
print(f"significance threshold q_s = {full.q_s:.1f} -> {full.n_sig} significant PCs")

m = contribution(full)
print("\nmax-loading vector m (contribution per byte position):")
print(m.m)

print("\nrule A (variance drop = field end) fires at:", rule_a(m))
print("rule B (surge after quiet = field start) fires at:", rule_b(m))

# the same conclusion through the full clustering front end, which takes
# the segments' bytes and answers with their indices
roots = recursive_cluster(rows)
print("\nrecursive clustering verdict:", roots[0].verdict,
      "with", roots[0].spectrum.n_sig, "significant PCs, members", roots[0].members)
