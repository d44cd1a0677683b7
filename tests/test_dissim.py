import dataclasses
import tracemalloc

import numpy as np
import pytest
from conftest import (duplicate_heavy_values, reference_distinct, reference_overlay,
                      reference_pairwise)

from protoseg import dissim
from protoseg.dissim import (UNMATCHED_PENALTY, Overlay, build_matrix, canberra,
                             dissimilarity, overlay_cluster, pairwise)
from protoseg.model import DegenerateClusterError, UsageError


def overlay_of(values, known=None):
    """The overlay of members holding the byte values, from the reference matrix."""
    return overlay_cluster(*reference_distinct(values), known)


def matrix_of(values):
    """The data matrix of `overlay_of(values)`."""
    distinct, _, inverse = reference_distinct(values)
    return build_matrix(overlay_of(values), distinct, inverse)


class TestCanberra:
    def test_identity(self):
        assert canberra([1, 2, 3], [1, 2, 3]) == 0.0

    def test_zero_zero_term_convention(self):
        assert canberra([0, 0], [0, 0]) == 0.0

    def test_direct_evaluation(self):
        assert canberra([1], [3]) == pytest.approx(0.5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(UsageError):
            canberra([1, 2], [1])

    def test_metric_axioms_on_random_bytes(self):
        rng = np.random.default_rng(5)
        for _ in range(2000):
            n = int(rng.integers(1, 9))
            u, v, w = (rng.integers(0, 256, size=n).astype(float) for _ in range(3))
            duv, dvw, duw = canberra(u, v), canberra(v, w), canberra(u, w)
            assert duv >= 0
            assert duv == canberra(v, u)
            assert duw <= duv + dvw + 1e-12
            assert canberra(u, u) == 0.0
            if duv == 0:
                assert np.array_equal(u, v)


class TestDissimilarity:
    def test_identical_vectors(self):
        assert dissimilarity(b"\x08\x90", b"\x08\x90") == (0.0, 0)

    def test_short_prefix_match(self):
        value, offset = dissimilarity(b"\x08", b"\x08\x90")
        assert value == pytest.approx(0.5)
        assert offset == 0

    def test_short_suffix_match(self):
        value, offset = dissimilarity(b"\x90", b"\x08\x90")
        assert value == pytest.approx(0.5)
        assert offset == 1

    def test_symmetry_and_range_on_random_pairs(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            s = bytes(rng.integers(0, 256, size=int(rng.integers(1, 9))).tolist())
            t = bytes(rng.integers(0, 256, size=int(rng.integers(1, 9))).tolist())
            v1, _ = dissimilarity(s, t)
            v2, _ = dissimilarity(t, s)
            assert v1 == pytest.approx(v2)
            assert 0.0 <= v1 <= 1.0
            assert dissimilarity(s, s)[0] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            dissimilarity(b"", b"\x01")

    @pytest.mark.parametrize("value", [[1, 2], np.array([1, 2], dtype=np.uint8), "ab"])
    def test_non_bytes_rejected(self, value):
        # bytes(ndarray) would read the array's buffer, not its values
        with pytest.raises(UsageError):
            dissimilarity(value, b"\x01\x02")
        with pytest.raises(UsageError):
            dissimilarity(b"\x01\x02", value)


def brute_dissimilarity(s, t):
    """Smallest canberra over every offset of the shorter value, first offset on ties."""
    short, long_ = (s, t) if len(s) <= len(t) else (t, s)
    m, n = len(short), len(long_)
    sums = [canberra(list(short), list(long_[o:o + m])) for o in range(n - m + 1)]
    best = min(range(len(sums)), key=sums.__getitem__)
    return (sums[best] + (n - m) * UNMATCHED_PENALTY) / n, best


class TestDissimilarityOracle:
    """`dissimilarity` holds the same bits as a brute-force minimum over offsets."""

    def test_random_pairs_with_extreme_bytes(self):
        rng = np.random.default_rng(71)
        alphabet = np.array([0x00, 0x00, 0xff, 0xff, 0x01, 0x7f, 0x80, 0xfe])
        for _ in range(2000):
            s, t = (bytes(rng.choice(alphabet if rng.random() < 0.5 else 256,
                                     size=int(rng.integers(1, 26))).tolist())
                    for _ in range(2))
            assert dissimilarity(s, t) == brute_dissimilarity(s, t)
        long_ = [b"\x00" * 20, b"\xff" * 20, b"\x00\xff" * 10]
        for s in long_:
            for t in long_:
                assert dissimilarity(s[:9], t) == brute_dissimilarity(s[:9], t)

    @pytest.mark.parametrize("length", [*range(1, 10), 15, 16, 17, 127, 128, 129, 255, 256, 257])
    def test_equal_length_pairs(self, length):
        # an equal-length pair has the one offset 0, and a pair (m, m + 3)
        # sums m terms at each of four offsets; from 8 terms on numpy's
        # `.sum()` adds in another order than left to right, so the lengths
        # past 8, 128 and 256 catch a kernel that sums with it
        rng = np.random.default_rng(72 + length)
        alphabet = np.array([0x00, 0x00, 0xff, 0xff, 0x01, 0x7f, 0x80, 0xfe])

        def draw(size):
            return bytes(rng.choice(alphabet if rng.random() < 0.5 else 256, size=size).tolist())

        for _ in range(100):
            s, t = draw(length), draw(length)
            value, offset = dissimilarity(s, t)
            assert (value, offset) == brute_dissimilarity(s, t)
            assert offset == 0
            assert dissimilarity(t, s) == (value, 0)
            assert value == pairwise([s, t])[0, 1]
            s, t = draw(length), draw(length + 3)
            assert dissimilarity(s, t) == brute_dissimilarity(s, t)
            assert dissimilarity(t, s) == brute_dissimilarity(s, t)
        for s in (b"\x00" * length, b"\xff" * length):
            for t in (b"\x00" * (length + 3), b"\xff" * (length + 3), b"\x00\xff" * length):
                assert dissimilarity(s, t) == brute_dissimilarity(s, t)

    def test_equal_length_is_canberra_over_length(self):
        # equal lengths skip the offset loop; canberra, the scalar fold and
        # the block kernel all add left to right, so the three agree bit for
        # bit at every length, also from 8 terms on, where numpy's `.sum()`
        # would add in another order
        rng = np.random.default_rng(73)
        alphabet = np.array([0x00, 0x00, 0xff, 0xff, 0x01, 0x7f, 0x80, 0xfe])
        for n in range(1, 301):
            pairs = [tuple(bytes(rng.choice(alphabet if rng.random() < 0.5 else 256,
                                            size=n).tolist()) for _ in range(2))
                     for _ in range(12)]
            D = pairwise([v for pair in pairs for v in pair])
            for k, (s, t) in enumerate(pairs):
                value, offset = dissimilarity(s, t)
                expected = canberra(list(s), list(t)) / n
                assert np.float64(value).tobytes() == np.float64(expected).tobytes()
                assert np.float64(value).tobytes() == D[2 * k, 2 * k + 1].tobytes()
                assert offset == 0
                assert dissimilarity(bytearray(t), s) == (value, 0)

    def test_periodic_ties_take_the_smallest_offset(self):
        cases = [(b"\x01\x02", b"\x01\x02" * 6, 0),
                 (b"\x01\x02", b"\x09" + b"\x01\x02" * 6, 1),
                 (b"\x00\xff" * 4, b"\xff" + b"\x00\xff" * 8, 1),
                 (b"\x05" * 8, b"\x05" * 17, 0)]
        for short, long_, first in cases:
            value, offset = dissimilarity(short, long_)
            assert (value, offset) == brute_dissimilarity(short, long_)
            assert offset == first
            assert dissimilarity(long_, short) == (value, offset)


class TestPairwise:
    def test_matches_scalar_path(self):
        # bit for bit, also at lengths of 8 and more, where numpy's `.sum()`
        # would add in another order; both paths add left to right
        rng = np.random.default_rng(23)
        values = [bytes(rng.integers(0, 256, size=int(rng.integers(1, 20))).tolist())
                  for _ in range(25)]
        D = pairwise(values)
        for i in range(len(values)):
            for j in range(len(values)):
                assert D[i, j] == dissimilarity(values[i], values[j])[0]

    def test_duplicates_share_zero_distance(self):
        D = pairwise([b"\x01\x02", b"\x01\x02", b"\x09"])
        assert D[0, 1] == 0.0 and D[0, 0] == 0.0


def random_values(rng, count, lengths):
    return [bytes(rng.integers(0, 256, size=int(rng.choice(lengths))).tolist())
            for _ in range(count)]


class TestPairwiseOracle:
    """`pairwise` holds the same bits as the broadcast formula of conftest.

    Every test runs at the module's block budget and at a tiny one that
    splits each length group into blocks of a few rows, so equal-length
    blocks take the mirrored half.
    """

    @pytest.fixture(autouse=True, params=["tiny", "default"])
    def budget(self, request, monkeypatch):
        if request.param == "tiny":
            monkeypatch.setattr(dissim, "_BLOCK_BUDGET", 64)

    def test_mixed_lengths_with_extreme_bytes(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            values = random_values(rng, 40, range(1, 10))
            # 0x00 and 0xFF bytes, and all-zero segments whose terms have den = 0
            values += [b"\x00", b"\xff", b"\x00" * 4, b"\xff\x00\xff", b"\x00" * 9,
                       b"\x00\xff" * 3]
            rng.shuffle(values)
            D = pairwise(values)
            assert np.array_equal(D, reference_pairwise(values))

    def test_duplicate_heavy(self):
        rng = np.random.default_rng(43)
        pool = random_values(rng, 40, [2, 3, 5])
        values = [pool[i] for i in rng.integers(0, len(pool), size=300)]
        D = pairwise(values)
        assert np.array_equal(D, reference_pairwise(values))
        assert D.shape == (300, 300)

    @pytest.mark.parametrize("budget_terms", [1, 5000, 50000])
    def test_single_length_in_row_blocks(self, monkeypatch, budget_terms):
        # 121 unique values of length 6: blocks of 1 and 19 rows, and one
        # block of all rows; every block but the last mirrors into later rows
        monkeypatch.setattr(dissim, "_BLOCK_BUDGET", budget_terms)
        rng = np.random.default_rng(47)
        values = random_values(rng, 120, [6]) + [b"\x00" * 6] * 3
        D = pairwise(values)
        assert np.array_equal(D, reference_pairwise(values))

    def test_mixed_lengths_with_repeats(self):
        rng = np.random.default_rng(53)
        values = random_values(rng, 90, [2, 3, 7])
        values += values[:10]
        assert np.array_equal(pairwise(values), reference_pairwise(values))

    def test_every_value_unique(self):
        rng = np.random.default_rng(59)
        values = list(dict.fromkeys(random_values(rng, 200, [4])))
        D = pairwise(values)
        assert np.array_equal(D, reference_pairwise(values))
        assert np.array_equal(D, D.T)

    @staticmethod
    def assert_oracles(values):
        D = pairwise(values)
        assert np.array_equal(D, reference_pairwise(values))
        scalar = np.array([[dissimilarity(s, t)[0] for t in values] for s in values])
        np.fill_diagonal(scalar, 0.0)
        assert np.array_equal(D, scalar)

    @pytest.mark.parametrize("length", [*range(1, 41), 127, 128, 129, 255, 256, 257])
    def test_single_length_at_every_summation_branch(self, length):
        # lengths on both sides of 8, 128 and 256, where numpy's `.sum()`
        # changes how it adds, against the left-to-right reference; half
        # the values are mostly 0x00 and 0xFF, whose terms are 0 and 1 or
        # have den = 0
        rng = np.random.default_rng(length)
        extreme = np.array([0x00, 0x00, 0x00, 0xff, 0xff, 0x01, 0xfe])
        values = [bytes(rng.choice(extreme if k % 2 else 256, size=length).tolist())
                  for k in range(14)]
        values += [b"\x00" * length, b"\xff" * length]
        self.assert_oracles(values)

    def test_mixed_lengths_above_sixteen_bytes(self):
        # long values at many offsets, with sums of under 8, up to 128 and
        # over 128 terms
        rng = np.random.default_rng(61)
        extreme = np.array([0x00, 0x00, 0xff, 0xff, 0x80])
        values = [bytes(rng.choice(extreme if k % 2 else 256, size=length).tolist())
                  for k, length in enumerate([3, 9, 17, 17, 24, 31, 40, 40, 130, 140])]
        self.assert_oracles(values)

    @pytest.mark.parametrize("lengths, repeats", [([6], 0), ([2, 3, 7], 0), ([3, 5], 40)])
    def test_into_a_workspace(self, lengths, repeats):
        # equal-length, mixed-length and repeated values: the matrix written
        # over the front of out has the bits of a fresh one and of the
        # reference, and the rest of out keeps its bits
        rng = np.random.default_rng(67)
        values = random_values(rng, 120, lengths)
        values += values[:repeats]
        n = len(values)
        out = np.full(n * n + 97, -0.0)
        D = pairwise(values, out=out)
        assert D.shape == (n, n) and np.shares_memory(D, out) and D.flags.c_contiguous
        assert np.array_equal(D.view(np.int64), pairwise(values).view(np.int64))
        assert np.array_equal(D.view(np.int64), reference_pairwise(values).view(np.int64))
        assert np.array_equal(out[n * n:].view(np.int64), np.full(97, -0.0).view(np.int64))


class TestPairwiseWorkspace:
    """`pairwise(values, out=...)` allocates no matrix of its own."""

    # one dominant length, so a block of a length pair is most of the matrix
    @pytest.mark.parametrize("lengths", [[6], [6] * 9 + [3], [4, 6, 8]])
    def test_allocates_no_matrix(self, lengths):
        rng = np.random.default_rng(71)
        values = random_values(rng, 1000, lengths)
        values += values[:100]
        n = len(values)
        out = np.empty(n * n)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            pairwise(values, out=out)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            if started:
                tracemalloc.stop()
        assert peak < 8 * n * n / 2

    @pytest.mark.parametrize("out", [np.empty(15), np.empty(16, np.float32),
                                     np.empty((4, 4)), np.empty(32)[::2]])
    def test_refuses_an_unfit_out(self, out):
        with pytest.raises(UsageError, match="flat C-contiguous float64 array of at least 16"):
            pairwise([b"\x01", b"\x02", b"\x03\x04", b"\x05"], out=out)


class TestOverlay:
    def test_identical_members_align_at_zero(self):
        ov = overlay_of([b"\x05\x06"] * 3)
        assert ov.shifts == (0, 0, 0)
        assert ov.width == 2

    def test_short_member_aligns_at_best_offset(self):
        ov = overlay_of([b"\x08\x90", b"\x90"])
        assert ov.reference == 0
        assert ov.shifts == (0, 1)
        assert ov.width == 2

    def test_medoid_is_lowest_index_of_identical_pair(self):
        ov = overlay_of([b"\x10\x10", b"\x40\x41", b"\x40\x41"])
        # brute-force totals: the identical pair minimizes total dissimilarity
        assert ov.reference == 1

    def test_needs_two_members(self):
        with pytest.raises(UsageError):
            overlay_cluster([b"\x01"], np.zeros((1, 1)), [0])

    def test_one_shift_per_member_in_member_order(self):
        # members holding one distinct value share its shift, in the order of inverse
        values = [b"\x90", b"\x08\x90", b"\x90", b"\x08\x90", b"\x90"]
        ov = overlay_of(values)
        assert ov.reference == 0  # the value three members hold
        assert ov.shifts == (1, 0, 1, 0, 1)
        # the members themselves stay on the cluster node
        assert [f.name for f in dataclasses.fields(ov)] == ["shifts", "width", "reference"]

    def test_medoid_takes_the_rounding_of_the_member_row_sums(self):
        # both values have total 6 * d exactly, but summed over the members
        # in order the second row rounds lower, so its first member is the
        # medoid; a product of the distinct matrix and the counts would tie
        # and pick member 0
        values = [b"\x02", b"\x80\x03"]
        U = pairwise(values)
        inverse = [0 if c == "a" else 1 for c in "aaabaaabbbbb"]
        assert overlay_cluster(values, U, inverse).reference == 3

    def test_distinct_matrix_gives_the_expanded_overlay(self):
        # medoid by the row sums of the matrix over every member, shifts
        # by the scalar dissimilarity of each member to the medoid
        rng = np.random.default_rng(99)
        for _ in range(200):
            values, distinct, inverse, _ = duplicate_heavy_values(rng, int(rng.integers(2, 40)))
            reference = int(np.argmin(reference_pairwise(values).sum(axis=1)))
            medoid = values[reference]
            rel = [0 if v == medoid else
                   dissimilarity(v, medoid)[1] * (1 if len(v) <= len(medoid) else -1)
                   for v in values]
            want = (reference, tuple(r - min(rel) for r in rel))
            ov = overlay_cluster(distinct, pairwise(distinct), inverse)
            assert (ov.reference, ov.shifts) == want


class TestOverlayAgainstMemberLoop:
    def test_medoid_shifts_width_and_calls(self, monkeypatch):
        # lengths 1..4 in one overlay, repeats and all-distinct members; with
        # no offsets known, with the medoid's offsets known (taken from a
        # first overlay, as a sub-cluster is given them) and with other
        # values' only; every distinct value but the medoid's calls
        # `dissimilarity` once when its offset is not known
        rng = np.random.default_rng(194)
        calls = []
        scalar = dissim.dissimilarity
        monkeypatch.setattr(dissim, "dissimilarity",
                            lambda s, t: calls.append((s, t)) or scalar(s, t))
        for trial in range(600):
            pool = [bytes(rng.integers(0, 4, size=int(rng.integers(1, 5))).tolist())
                    for _ in range(int(rng.integers(1, 9)))]
            picks = rng.integers(0, len(pool), size=int(rng.integers(2, 30)))
            values = [pool[int(k)] for k in picks]
            distinct, dist, inverse = reference_distinct(values)
            first = reference_overlay(values, dist, inverse)
            offsets = np.empty(dist.shape[0], np.intp)
            offsets[inverse] = first.shifts
            medoid = values[first.reference]
            for known in (None, {medoid: offsets - offsets[inverse[first.reference]]},
                          {b"\xff\xff\xff\xff\xff": offsets}):
                calls.clear()
                want = reference_overlay(values, dist, inverse, known)
                expected_calls = list(calls)
                calls.clear()
                got = overlay_cluster(distinct, dist, inverse, known)
                assert got == want
                assert all(type(s) is int for s in got.shifts) and type(got.width) is int
                assert calls == expected_calls
                assert (len(calls) == 0) == (known is not None and medoid in known
                                             or len(set(values)) == 1)


class TestBuildMatrix:
    def test_equal_length_members_reproduce_raw_bytes(self, example_x):
        dm = matrix_of([row.astype(np.uint8).tobytes() for row in example_x])
        assert dm.mask.all()
        assert np.array_equal(dm.X, example_x)
        assert np.array_equal(dm.column_map, np.arange(5))

    def test_minority_column_mean_filled(self):
        dm = matrix_of([b"\x0a\x14\x1e", b"\x0a\x14\x28", b"\x0a\x14\x32", b"\x0a\x14"])
        # last column observed by 3 of 4 members: retained, gap holds the mean
        assert dm.column_map.tolist() == [0, 1, 2]
        assert not dm.mask[3, 2]
        assert dm.X[3, 2] == pytest.approx((0x1e + 0x28 + 0x32) / 3)

    def test_degenerate_overlay_rejected(self):
        # three members on disjoint spans: no position reaches the majority
        # quorum of 2, so there is no column to analyze
        broken = Overlay(shifts=(0, 3, 6), width=8, reference=0)
        with pytest.raises(DegenerateClusterError):
            build_matrix(broken, [bytes([1, 2])], [0, 0, 0])

    def test_mean_fill_adds_no_covariance(self):
        rng = np.random.default_rng(31)
        values = [bytes(rng.integers(0, 256, size=3).tolist()) for _ in range(3)]
        values.append(bytes(rng.integers(0, 256, size=2).tolist()))
        dm = matrix_of(values)
        filled = ~dm.mask
        assert filled.any()
        deviations = dm.X - dm.X.mean(axis=0)
        # a filled cell sits exactly at its column mean, so its deviation is
        # zero and it contributes nothing to any covariance entry
        assert np.allclose(deviations[filled], 0.0)


def loop_build_matrix(ov, values):
    """Data matrix of an overlay filled member by member; values[i] is member i's bytes."""
    n = len(values)
    starts = np.array(ov.shifts)
    ends = starts + np.array([len(v) for v in values])
    positions = np.arange(ov.width)
    observed = (positions >= starts[:, None]) & (positions < ends[:, None])
    keep = observed.sum(axis=0) >= (n + 1) // 2
    column_map = positions[keep]
    mask = observed[:, keep]
    X = np.zeros((n, column_map.size))
    for i, value in enumerate(values):
        row = np.frombuffer(value, dtype=np.uint8).astype(float)
        cols = mask[i]
        X[i, cols] = row[column_map[cols] - starts[i]]
    col_means = np.where(mask, X, 0.0).sum(axis=0) / mask.sum(axis=0)
    return np.where(mask, X, col_means[None, :]), mask, column_map


class TestBuildMatrixOracle:
    """`build_matrix` equals a member-by-member fill."""

    @pytest.mark.parametrize("lengths", [range(1, 9), [5]])
    def test_random_overlays(self, lengths):
        rng = np.random.default_rng(67)
        checked = filled = 0
        for _ in range(300):
            n = int(rng.integers(2, 12))
            # a few repeats, so members share distinct values
            pool = [bytes(rng.integers(0, 256, size=int(rng.choice(lengths))).tolist())
                    for _ in range(n)]
            values = [pool[int(k)] for k in rng.integers(0, n, size=n)]
            shifts = rng.integers(0, 4, size=n)
            shifts -= shifts.min()
            width = int(max(s + len(v) for s, v in zip(shifts, values)))
            ov = Overlay(shifts=tuple(int(s) for s in shifts), width=width, reference=0)
            distinct = list(dict.fromkeys(values))
            try:
                dm = build_matrix(ov, distinct, [distinct.index(v) for v in values])
            except DegenerateClusterError:
                continue
            X, mask, column_map = loop_build_matrix(ov, values)
            assert np.array_equal(dm.X, X)
            assert np.array_equal(dm.mask, mask)
            assert np.array_equal(dm.column_map, column_map)
            checked += 1
            filled += bool((~mask).any())
        assert checked > 200 and filled > 50
