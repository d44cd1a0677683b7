"""Scoring of inferred segmentations against ground truth.

Each message is scored on its interior cut set: the F1 of precision and
recall for exact matches, the same after a one-byte-tolerant matching of
the leftovers, and their geometric mean as the headline per-message score
(coarse segmenters miss mostly by exactly one byte, so the gap between
the exact and the tolerant F1 is the interesting quantity).  Per-trace
scores are medians over messages, taking the lower of the two middle
values for even counts.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from operator import attrgetter

from .model import GroundTruth, Segmentation, UsageError


@dataclass(frozen=True)
class MessageScore:
    """The scores of one message; a trace reports the median of each."""

    exact_f1: float
    near_f1: float
    fms_like: float


@dataclass(frozen=True)
class ScoreReport:
    """Per-message scores plus trace-level medians and counts."""

    per_message: dict
    medians: dict
    message_count: int
    cut_count: int
    unknown_segments: int
    missing_truth: int
    name: str = ""


def _f1(matched: int, inferred: int, true: int) -> float:
    if inferred == 0 and true == 0:
        return 1.0
    precision = matched / inferred if inferred else 0.0
    recall = matched / true if true else 0.0
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def _near_matches(left, right) -> int:
    """Greedy left-to-right matching at distance <= 1 on sorted lists."""
    i = j = matched = 0
    while i < len(left) and j < len(right):
        if abs(left[i] - right[j]) <= 1:
            matched += 1
            i += 1
            j += 1
        elif left[i] < right[j]:
            i += 1
        else:
            j += 1
    return matched


def score_message(inferred, true) -> MessageScore:
    """Exact and one-byte-tolerant boundary scores of one message."""
    I = sorted(set(inferred))
    T = sorted(set(true))
    exact = set(I) & set(T)
    f_e = _f1(len(exact), len(I), len(T))

    rest_i = [c for c in I if c not in exact]
    rest_t = [c for c in T if c not in exact]
    near = len(exact) + _near_matches(rest_i, rest_t)
    f_n = _f1(near, len(I), len(T))
    return MessageScore(f_e, f_n, math.sqrt(f_e * f_n))


def median_low(values):
    """Median; the lower of the two middle values for even counts."""
    if not values:
        raise UsageError("median of an empty list")
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def _true_ranges(cuts, length):
    bounds = [0] + list(cuts) + [length]
    return list(zip(bounds, bounds[1:]))


def _unknown_segments(seg: Segmentation, true_cuts, length: int) -> int:
    """Inferred segments matching no true field range even within one byte at both ends."""
    truth = _true_ranges(true_cuts, length)
    unknown = 0
    for s, e in _true_ranges(seg.cuts, length):
        if not any(abs(s - ts) <= 1 and abs(e - te) <= 1 for ts, te in truth):
            unknown += 1
    return unknown


def score_trace(segmentations, truth: GroundTruth, messages, name: str = "") -> ScoreReport:
    """Score a whole trace; messages without ground truth are excluded and counted.

    A message id that two segmentations share is refused.
    """
    lengths = {m.id: len(m.payload) for m in messages}
    segmentations = list(segmentations)
    if len(set(map(attrgetter("message_id"), segmentations))) < len(segmentations):
        raise UsageError("the segmentations name a message id more than once")
    scored = [s for s in segmentations if s.message_id in truth.cuts and s.message_id in lengths]
    per_message = {s.message_id: score_message(s.cuts, truth.cuts[s.message_id]) for s in scored}
    unknown = sum(_unknown_segments(s, truth.cuts[s.message_id], lengths[s.message_id])
                  for s in scored)
    scores = list(map(vars, per_message.values()))
    medians = {m: median_low([s[m] for s in scores]) for m in scores[0]} if scores else {}
    return ScoreReport(per_message=per_message, medians=medians, message_count=len(per_message),
                       cut_count=sum(len(s.cuts) for s in scored), unknown_segments=unknown,
                       missing_truth=len(segmentations) - len(scored), name=name)


def compare_csv(reports) -> str:
    """Aligned per-message score table, one column per pipeline, medians last."""
    reports = list(reports)
    names = [r.name or f"pipeline{i}" for i, r in enumerate(reports)]
    shared = sorted(set.intersection(*(set(r.per_message) for r in reports))) if reports else []
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["message_id"] + names)
    for mid in shared:
        writer.writerow([mid] + [f"{r.per_message[mid].fms_like:.4f}" for r in reports])
    writer.writerow(["median"] + [f"{r.medians.get('fms_like', 0.0):.4f}" for r in reports])
    return buf.getvalue()


def report_to_json(report: ScoreReport) -> dict:
    return {
        "name": report.name,
        "medians": {k: round(v, 6) for k, v in report.medians.items()},
        "message_count": report.message_count,
        "cut_count": report.cut_count,
        "unknown_segments": report.unknown_segments,
        "missing_truth": report.missing_truth,
        "per_message": {
            str(mid): {metric: round(v, 6) for metric, v in vars(s).items()}
            for mid, s in sorted(report.per_message.items())
        },
    }
