import dataclasses

import numpy as np
import pytest

from conftest import (edits_of, extreme_payload, record, reference_apply_edits,
                      reference_boundaries, reference_cluster_edits,
                      reference_common_aligned_cuts, trace_refs)
from protoseg.cluster import PCA_SUITABLE, ClusterNode
from protoseg.dissim import Overlay
from protoseg.model import AnalysisParams, Message, NoSignalError, Segmentation
from protoseg.pca import analyze_spectrum
from protoseg.refine import join_trace
from protoseg.rules import (EDIT, ContributionVector, apply_edits, cluster_edits,
                            common_aligned_cuts, contribution, edit_records, rule_a, rule_b)


def trace_cuts(cuts_by_message: dict, length: int):
    """The `JoinedTrace` of messages of `length` bytes with these cuts, by message id."""
    segs = [Segmentation(mid, tuple(sorted(cuts))) for mid, cuts in cuts_by_message.items()]
    return join_trace(segs, [Message(s.message_id, bytes(length)) for s in segs])


def apply(edits, segs, length: int = 16) -> tuple:
    """(segmentations, applied edits) of `apply_edits` on messages of `length` bytes cut as segs.

    The edits, given and applied, are `edits.json` records.
    """
    trace, applied = apply_edits(
        edits_of(edits), join_trace(segs, [Message(s.message_id, bytes(length)) for s in segs]))
    return trace.segmentations(), edit_records(applied)


def segments_from(trace, start: int) -> tuple:
    """The index of each message's segment that starts at offset start."""
    return tuple(trace.edges.searchsorted(trace.offsets[:-1] + start).tolist())


def contrib(m):
    return ContributionVector(m=np.asarray(m, dtype=float), n_sig=1)


def spectrum(eigenvalues, loadings):
    return analyze_spectrum(np.asarray(eigenvalues, float), np.asarray(loadings, float))


class TestContribution:
    def test_single_significant_pc(self):
        w = np.array([[0.9, 0.3, 0.1, 0.29]])
        res = spectrum([100.0, 0.0, 0.0, 0.0], np.vstack([w, np.zeros((3, 4))]))
        assert res.n_sig == 1
        assert np.allclose(contribution(res).m, np.abs(w[0]))

    def test_elementwise_max_over_two_pcs(self):
        loadings = np.array([[0.8, 0.0], [0.0, 0.8]])
        res = spectrum([50.0, 40.0], loadings)
        assert res.n_sig == 2
        assert np.allclose(contribution(res).m, [0.8, 0.8])

    def test_no_signal_rejected(self):
        res = spectrum([0.0, 0.0], np.eye(2))
        with pytest.raises(NoSignalError):
            contribution(res)

    def test_published_matrix_contributions(self, example_x):
        from protoseg.pca import covariance, eig_sym
        res = eig_sym(covariance(example_x))
        full = analyze_spectrum(res.eigenvalues, res.loadings)
        m = contribution(full).m
        # positions 1 and 2 carry the linearly locked two-byte field
        assert m[1] > 0.8 and m[2] > 0.8
        assert m[0] < 0.1 and m[3] < 0.1 and m[4] < 0.1


class TestRuleA:
    def test_steep_drop_fires(self):
        assert rule_a(contrib([0.3, 0.004])) == [1]

    def test_shallow_drop_does_not_fire(self):
        assert rule_a(contrib([0.3, 0.09])) == []

    def test_insignificant_peak_does_not_fire(self):
        assert rule_a(contrib([0.05, 0.001])) == []


class TestRuleB:
    def test_surge_after_quiet_run_fires(self):
        assert rule_b(contrib([0.01, 0.02, 0.0, 0.004, 0.4])) == [4]

    def test_shallow_rise_does_not_fire(self):
        assert rule_b(contrib([0.01, 0.02, 0.0, 0.03, 0.4])) == []

    def test_loud_predecessor_does_not_fire(self):
        assert rule_b(contrib([0.06, 0.0, 0.0, 0.0, 0.4])) == []

    def test_narrow_vector_cannot_fire(self):
        assert rule_b(contrib([0.0, 0.0, 0.9])) == []


def test_rules_never_fire_on_the_same_position():
    # the drop rule needs m_k <= 0.1 after a loud m_{k-1}; the surge rule
    # needs a quiet m_{k-1} < 0.05, so no position can satisfy both
    rng = np.random.default_rng(1234)
    params = AnalysisParams()
    trials = 1_000_000
    width = 8
    m = rng.uniform(0, 1, size=(trials, width)) ** 2
    prev, cur = m[:, 3], m[:, 4]
    fire_a = (prev > params.contrib_floor) & (cur <= params.contrib_floor) \
        & ((prev - cur) / np.where(prev > 0, prev, 1) > params.delta_min)
    quiet = np.all(m[:, 1:4] < params.near_zero, axis=1) & (m[:, 0] < params.near_zero)
    fire_b = quiet & (cur > params.notable) \
        & ((cur - prev) / np.where(cur > 0, cur, 1) > params.delta_min)
    assert not np.any(fire_a & fire_b)

    # same property through the real implementations, all positions
    for _ in range(2000):
        v = contrib(rng.uniform(0, 1, size=int(rng.integers(5, 10))) ** 2)
        assert not set(rule_a(v)) & set(rule_b(v))


class TestCommonAligned:
    @staticmethod
    def _case(lengths_shifts, boundaries, start=10):
        """(node, trace): member i is message i's segment from start, shifted as given."""
        trace = trace_cuts(boundaries, 40)
        shifts = tuple(sh for _, sh in lengths_shifts)
        width = max(sh + ln for ln, sh in lengths_shifts)
        overlay = Overlay(shifts, width, reference=0)
        return ClusterNode(segments_from(trace, start), PCA_SUITABLE, 0, overlay=overlay), trace

    def test_majority_local_maximum_reported(self):
        # six members aligned one position in, two spanning the full width:
        # counts over positions 0..4 are [2, 6, 0, 0, 8]
        boundaries = {i: {10, 13} for i in range(6)}
        boundaries.update({i: {10, 14} for i in range(6, 8)})
        node, trace = self._case([(3, 1)] * 6 + [(4, 0)] * 2, boundaries)
        assert common_aligned_cuts(node, trace) == [1, 4]

    def test_sub_quorum_plateau_not_reported(self):
        # counts [2, 3, 3, 0, 8]: positions 1 and 2 are neither strict
        # local maxima nor above the quorum of 4
        boundaries = {i: {10, 13} for i in range(3)}
        boundaries.update({i: {10, 12} for i in range(3, 6)})
        boundaries.update({i: {10, 14} for i in range(6, 8)})
        node, trace = self._case([(3, 1)] * 3 + [(2, 2)] * 3 + [(4, 0)] * 2, boundaries)
        assert common_aligned_cuts(node, trace) == [4]

    def test_unanimous_boundary_reported(self):
        node, trace = self._case([(4, 0)] * 4, {i: {2, 4, 6} for i in range(4)}, start=2)
        assert 2 in common_aligned_cuts(node, trace)


class TestClusterEdits:
    @staticmethod
    def _case(cuts, start=10, n=6):
        """(node, trace): n messages of 20 bytes with these cuts; member i is message i's
        segment from start, at shift 0 in an overlay 3 wide."""
        trace = trace_cuts({i: cuts for i in range(n)}, 20)
        overlay = Overlay(shifts=(0,) * n, width=3, reference=0)
        return ClusterNode(segments_from(trace, start), PCA_SUITABLE, 0, overlay=overlay), trace

    def test_off_by_one_move(self):
        node, trace = self._case((10, 13))
        edits = cluster_edits(node, [(2, "rule_a")], trace)
        assert edits.dtype == EDIT
        assert edit_records(edits) == [record(m, 12, "move", 13, "rule_a") for m in range(6)]

    def test_existing_cut_is_noop(self):
        node, trace = self._case((10, 12))
        assert cluster_edits(node, [(2, "rule_a")], trace).size == 0

    def test_out_of_range_target_dropped(self):
        node, trace = self._case((3,), start=0)
        assert cluster_edits(node, [(0, "rule_b")], trace).size == 0

    def test_no_position_proposes_nothing(self):
        node, trace = self._case((10, 13))
        edits = cluster_edits(node, [], trace)
        assert edits.dtype == EDIT and edits.size == 0

    def test_add_when_nothing_nearby(self):
        node, trace = self._case((10, 15))
        edits = cluster_edits(node, [(2, "rule_a")], trace)
        assert edit_records(edits) == [record(m, 12, "add", None, "rule_a") for m in range(6)]


class TestApplyEdits:
    def test_sorted_application_and_conflicts(self):
        segs = [Segmentation(0, (5, 9))]
        edits = [
            record(0, 6, "move", 5, "rule_a"),
            record(0, 6, "move", 9, "rule_a"),
            record(0, 9, "add", None, "rule_b"),
        ]
        new, applied = apply(edits, segs)
        # first move wins the target; the second is dropped; add is a no-op
        assert new[0].cuts == (6, 9)
        assert applied == edits[:1]

    def test_untouched_message_keeps_its_cuts(self):
        segs = [Segmentation(0, (5,)), Segmentation(4, (3,)), Segmentation(9, (4,))]
        edits = [record(4, 6, "add", None, "rule_b"),
                 record(9, 4, "add", None, "rule_b"),  # its cut is there already
                 record(9, 2, "move", 1, "rule_a")]  # no cut at 1
        new, applied = apply(edits, segs)
        assert applied == edits[:1]
        assert new == [segs[0], Segmentation(4, (3, 6)), segs[2]]

    def test_edit_outside_its_message_is_dropped(self):
        # each would otherwise write or read a cut flag of the next message
        segs = [Segmentation(0, (5,)), Segmentation(4, (1, 3))]
        edits = [record(0, 8, "add", None, "rule_b"),
                 record(0, 6, "move", 9, "rule_a"),
                 record(0, 0, "add", None, "rule_b"),
                 record(7, 2, "add", None, "rule_b")]  # no such message
        assert apply(edits, segs, length=8) == (segs, [])

    def test_idempotent_on_reapplication(self):
        segs = [Segmentation(0, (5,))]
        edits = [record(0, 4, "move", 5, "rule_a")]
        once, applied1 = apply(edits, segs)
        twice, applied2 = apply(edits, once)
        assert once == twice
        assert applied1 and not applied2

    def test_results_stay_valid(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            length = int(rng.integers(4, 30))
            cuts = sorted(set(rng.integers(1, length, size=4).tolist()))
            segs = [Segmentation(0, tuple(cuts))]
            kinds = ["add", "move", "remove"]
            edits = []
            for _ in range(6):
                kind = kinds[int(rng.integers(0, 3))]
                offset = int(rng.integers(1, length))
                old = int(rng.integers(1, length))
                if kind == "move" and old == offset:
                    continue
                edits.append(record(0, offset, kind, old if kind == "move" else None, "rule_a"))
            new, _ = apply(edits, segs, length)
            seg = new[0]
            assert all(0 < c < length for c in seg.cuts)
            assert list(seg.cuts) == sorted(set(seg.cuts))

    @pytest.mark.parametrize("edit", [
        record(0, 7, "add", None, "rule_b"),
        record(0, 4, "move", 5, "rule_a"),
    ])
    def test_exact_repeat_applies_once(self, edit):
        # cluster_edits may propose one edit twice; the repeat is a no-op here
        segs = [Segmentation(0, (5, 9))]
        new, applied = apply([edit, edit], segs)
        assert applied == [edit]
        assert (new, applied) == apply([edit], segs)

    @pytest.mark.parametrize("kind, old", [("add", None), ("move", 5)])
    def test_provenance_settles_a_tie(self, kind, old):
        # two edits that differ only in provenance: the first name wins,
        # whatever the order they are proposed in
        segs = [Segmentation(0, (5, 9))]
        later, first = record(0, 4, kind, old, "rule_b"), record(0, 4, kind, old, "rule_a")
        for edits in ([later, first], [first, later]):
            assert apply(edits, segs) == ([Segmentation(0, (4, 9) if old else (4, 5, 9))],
                                          [first])

    def test_repeats_change_nothing(self):
        rng = np.random.default_rng(79)
        for _ in range(500):
            length = int(rng.integers(4, 30))
            segs = [Segmentation(m, tuple(sorted(set(rng.integers(1, length, size=4).tolist()))))
                    for m in range(2)]
            edits = []
            for _ in range(int(rng.integers(1, 8))):
                mid, offset = int(rng.integers(0, 2)), int(rng.integers(1, length))
                if rng.random() < 0.5:
                    edits.append(record(mid, offset, "add", None, "rule_b"))
                else:
                    edits.append(record(mid, offset, "move", int(rng.integers(1, length)),
                                        "rule_a"))
            repeats = [edits[int(k)] for k in rng.integers(0, len(edits), size=3)]
            assert apply(edits + repeats, segs, length) == apply(edits, segs, length)


def random_leaves(rng, count):
    """count random (leaf, ref leaf, positions, segmentations, messages) cases.

    A trace of 1..12 messages of 1..40 bytes with random cut sets, none
    in about a fifth of the traces; an overlay of 2..12 of its segments,
    several often from one message and some ending at their payload's
    end, at shifts 0..3 and a width up to 2 beyond the widest member;
    and 0..6 (position, provenance) pairs over 0..width + 1, repeats
    included, with no positions at all in about a fifth of the cases.
    The leaf's members are segment indices; the ref leaf holds the same
    segments as conftest's `Ref`s, as its member loops read them, and
    the same overlay.
    """
    for _ in range(count):
        count = int(rng.integers(1, 13))
        messages = [Message(3 * i + 1, extreme_payload(rng)) for i in range(count)]
        bare = rng.random() < 0.2
        segs = []
        for m in messages:
            n = len(m.payload)
            cuts = set() if bare or n < 2 else set(
                rng.integers(1, n, size=int(rng.integers(0, n))).tolist())
            segs.append(Segmentation(m.id, tuple(sorted(cuts))))
        refs = trace_refs(segs, messages)
        picked = tuple(rng.integers(0, len(refs), size=int(rng.integers(2, 13))).tolist())
        shifts = tuple(rng.integers(0, 4, size=len(picked)).tolist())
        width = max(sh + len(refs[k].values) for sh, k in zip(shifts, picked)) \
            + int(rng.integers(0, 3))
        leaf = ClusterNode(picked, PCA_SUITABLE, 0,
                           overlay=Overlay(shifts=shifts, width=width, reference=0))
        positions = [] if rng.random() < 0.2 else [
            (int(k), str(rng.choice(["rule_a", "rule_b", "common_aligned"])))
            for k in rng.integers(0, width + 2, size=int(rng.integers(1, 7)))]
        yield (leaf, dataclasses.replace(leaf, members=tuple(refs[k] for k in picked)),
               positions, segs, messages)


class TestAgainstMemberLoops:
    """The trace-wide array bookkeeping equals the member-by-member loops of conftest."""

    def test_common_aligned_cuts(self):
        rng = np.random.default_rng(191)
        for leaf, ref_leaf, _, segs, messages in random_leaves(rng, 1500):
            trace = join_trace(segs, messages)
            boundaries, _, _ = reference_boundaries(segs, messages)
            assert common_aligned_cuts(leaf, trace) == \
                reference_common_aligned_cuts(ref_leaf, boundaries)

    def test_cluster_edits(self):
        rng = np.random.default_rng(192)
        kinds = set()
        for leaf, ref_leaf, positions, segs, messages in random_leaves(rng, 1500):
            _, segs_by_id, lengths = reference_boundaries(segs, messages)
            got = edit_records(cluster_edits(leaf, positions, join_trace(segs, messages)))
            assert got == reference_cluster_edits(ref_leaf, positions, segs_by_id, lengths)
            # every field is a plain Python value, as the JSON writer needs
            assert all(type(e["message"]) is int and type(e["offset"]) is int
                       and type(e["old_offset"]) in (int, type(None))
                       and type(e["provenance"]) is str for e in got)
            kinds.update(e["kind"] for e in got)
        assert kinds == {"add", "move"}

    def test_apply_edits_keeps_untouched_messages(self):
        rng = np.random.default_rng(193)
        for leaf, _, positions, segs, messages in random_leaves(rng, 300):
            trace = join_trace(segs, messages)
            edits = cluster_edits(leaf, positions, trace)
            new, applied = apply_edits(edits, trace)
            assert (new.segmentations(), edit_records(applied)) == \
                reference_apply_edits(edit_records(edits), segs)
            touched = set(applied["message"].tolist())
            for old, seg in zip(segs, new.segmentations()):
                assert (seg.cuts != old.cuts) == (old.message_id in touched)
