import math

import numpy as np
import pytest

from protoseg.evaluate import (compare_csv, median_low, report_to_json,
                               score_message, score_trace)
from protoseg.model import GroundTruth, Message, Segmentation, UsageError


def recall(score, inferred, truth) -> float:
    """Exact recall, matched / true, read back from exact F1 = 2 * matched / (inferred + true)."""
    return score.exact_f1 * (len(inferred) + len(truth)) / (2 * len(truth))


class TestScoreMessage:
    def test_mixed_exact_and_near(self):
        s = score_message({2, 4}, {2, 5})
        assert s.exact_f1 == pytest.approx(0.5)
        assert s.near_f1 == pytest.approx(1.0)
        assert s.fms_like == pytest.approx(math.sqrt(0.5), abs=1e-4)

    def test_identical_sets(self):
        s = score_message({1, 5, 9}, {1, 5, 9})
        assert s.exact_f1 == s.near_f1 == s.fms_like == 1.0

    def test_empty_inference_against_truth(self):
        s = score_message(set(), {3})
        assert s.exact_f1 == s.near_f1 == s.fms_like == 0.0

    def test_both_empty(self):
        s = score_message(set(), set())
        assert s.exact_f1 == s.near_f1 == s.fms_like == 1.0

    def test_spurious_inference_without_truth(self):
        s = score_message({3}, set())
        assert s.exact_f1 == s.near_f1 == 0.0
        assert s.fms_like == 0.0

    def test_near_matching_is_one_to_one(self):
        # two inferred cuts may not both claim the same true cut
        s = score_message({4, 5}, {5})
        # F1 is 2 * matched / (inferred + true): 2/3 is one match, recall 1.0 and
        # precision 0.5; 4 claiming 5 as well would make it 4/3
        assert s.near_f1 == pytest.approx(2 / 3)

    def test_correct_cut_never_lowers_scores(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            truth = set(rng.choice(np.arange(1, 40), size=6, replace=False).tolist())
            inferred = set(int(c) for c in truth if rng.random() < 0.5)
            before = score_message(inferred, truth)
            missing = sorted(truth - inferred)
            if not missing:
                continue
            after = score_message(inferred | {missing[0]}, truth)
            assert after.exact_f1 >= before.exact_f1 - 1e-12
            assert after.near_f1 >= before.near_f1 - 1e-12
            assert after.fms_like >= before.fms_like - 1e-12

    def test_spurious_cut_never_raises_recall(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            truth = set(rng.choice(np.arange(1, 40), size=5, replace=False).tolist())
            inferred = set(int(c) for c in truth if rng.random() < 0.7)
            spurious = int(rng.integers(1, 40))
            before = score_message(inferred, truth)
            after = score_message(inferred | {spurious}, truth)
            assert recall(after, inferred | {spurious}, truth) <= \
                recall(before, inferred, truth) + 1e-12 or spurious in truth


class TestMedian:
    def test_odd_count(self):
        assert median_low([0.9, 0.2, 0.6]) == 0.6

    def test_even_count_takes_lower_middle(self):
        assert median_low([0.6, 0.2]) == 0.2


class TestScoreTrace:
    def _fixture(self):
        messages = [Message(i, bytes(range(10))) for i in range(3)]
        truth = GroundTruth(cuts={0: (2, 5), 1: (4,), 2: (3,)})
        segs = [Segmentation(0, (2, 4)), Segmentation(1, (4,)), Segmentation(2, (7,))]
        return messages, truth, segs

    def test_medians_and_counts(self):
        messages, truth, segs = self._fixture()
        report = score_trace(segs, truth, messages, name="x")
        assert report.message_count == 3
        assert report.cut_count == 4
        per = [report.per_message[i].fms_like for i in range(3)]
        assert report.medians["fms_like"] == median_low(per)

    def test_missing_truth_excluded_and_counted(self):
        messages = [Message(0, bytes(6)), Message(1, bytes(6))]
        truth = GroundTruth(cuts={0: (2,)})
        segs = [Segmentation(0, (2,)), Segmentation(1, (3,))]
        report = score_trace(segs, truth, messages)
        assert report.message_count == 1
        assert report.missing_truth == 1

    def test_median_invariant_under_reordering(self):
        messages, truth, segs = self._fixture()
        a = score_trace(segs, truth, messages)
        b = score_trace(list(reversed(segs)), truth, messages)
        assert a.medians == b.medians

    def test_repeated_message_id_refused(self):
        # it used to score only the last and count the cuts of both
        messages = [Message(0, bytes(6))]
        truth = GroundTruth(cuts={0: (2,)})
        with pytest.raises(UsageError, match="more than once"):
            score_trace([Segmentation(0, (1,)), Segmentation(0, (1, 2, 3))], truth, messages)

    def test_unknown_segment_counting(self):
        messages = [Message(0, bytes(10))]
        truth = GroundTruth(cuts={0: (5,)})
        # inferred (2, 5): [0,2) and [2,5) match no true range even at +-1
        report = score_trace([Segmentation(0, (2, 5))], truth, messages)
        assert report.unknown_segments == 2
        # off-by-one everywhere still matches within tolerance
        report = score_trace([Segmentation(0, (4,))], truth, messages)
        assert report.unknown_segments == 0


class TestCompare:
    def test_two_pipelines_share_message_rows(self):
        messages = [Message(i, bytes(range(8))) for i in range(2)]
        truth = GroundTruth(cuts={0: (4,), 1: (2, 6)})
        r1 = score_trace([Segmentation(0, (4,)), Segmentation(1, (2,))],
                         truth, messages, name="a")
        r2 = score_trace([Segmentation(0, (3,)), Segmentation(1, (2, 6))],
                         truth, messages, name="b")
        lines = compare_csv([r1, r2]).splitlines()
        assert lines[0] == "message_id,a,b"
        assert len(lines) == 4  # header, two messages, median row
        assert lines[-1].startswith("median,")

    def test_report_json_shape(self):
        messages = [Message(0, bytes(8))]
        truth = GroundTruth(cuts={0: (4,)})
        report = score_trace([Segmentation(0, (4,))], truth, messages, name="x")
        blob = report_to_json(report)
        assert blob["medians"]["fms_like"] == 1.0
        assert blob["per_message"]["0"]["exact_f1"] == 1.0
