import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from protoseg.model import (AnalysisParams, GroundTruth, Message, Segmentation, UsageError,
                            segments_of)


def test_segments_of_partitions_payload():
    msg = Message(0, bytes(range(6)))
    assert segments_of(Segmentation(0, (2, 4)), msg) == [b"\x00\x01", b"\x02\x03", b"\x04\x05"]


def test_segments_of_empty_cuts():
    msg = Message(0, bytes(range(5)))
    assert segments_of(Segmentation(0, ()), msg) == [msg.payload]


def test_segments_of_unit_segments():
    msg = Message(0, b"xyz")
    assert segments_of(Segmentation(0, (1, 2)), msg) == [b"x", b"y", b"z"]


def test_segments_of_rejects_mismatched_ids():
    with pytest.raises(UsageError):
        segments_of(Segmentation(1, ()), Message(0, b"abc"))


def test_cut_roundtrip_and_coverage():
    payload = bytes((i * 37) % 256 for i in range(23))
    msg = Message(7, payload)
    for cuts in [(), (1,), (5, 9, 22), tuple(range(1, 23))]:
        seg = Segmentation(7, cuts)
        values = segments_of(seg, msg)
        assert len(values) == len(cuts) + 1 and all(values)
        # round trip: the running lengths of all but the last segment reproduce the cuts
        assert tuple(np.cumsum(list(map(len, values[:-1]))).tolist()) == cuts
        # coverage: concatenated values equal the payload
        assert b"".join(values) == payload


def test_message_rejects_empty_payload():
    with pytest.raises(UsageError):
        Message(0, b"")


@pytest.mark.parametrize("mid", ["m0", 2.0, None, 2**63, -2**63 - 1, True, False])
def test_message_rejects_an_id_outside_int64(mid):
    with pytest.raises(UsageError, match="message id"):
        Message(mid, b"abc")


@pytest.mark.parametrize("mid", [np.int64(5), np.uint8(5), 2**63 - 1, -2**63])
def test_message_keeps_an_int64_id_as_a_python_int(mid):
    msg = Message(mid, b"abc")
    assert type(msg.id) is int and msg.id == int(mid)


@pytest.mark.parametrize("cuts", [(0,), (3, 3), (4, 2), (-1,), (2**63,), 5])
def test_segmentation_rejects_bad_cuts(cuts):
    with pytest.raises(UsageError):
        Segmentation(0, cuts)


@given(st.lists(st.integers(-3, 12), max_size=8).map(tuple))
def test_segmentation_accepts_exactly_strictly_increasing_interior_cuts(cuts):
    # the reference: each cut above the one before it, the first above 0
    valid = all(cur > prev for prev, cur in zip((0,) + cuts, cuts))
    if valid:
        assert Segmentation(5, cuts).cuts == cuts
    else:
        message = f"cuts of message 5 not strictly increasing interior offsets: {cuts}"
        with pytest.raises(UsageError) as info:
            Segmentation(5, cuts)
        assert str(info.value) == message


@pytest.mark.parametrize("cuts", [(2.7, 5), ("3",), (2.0,), (1, None), (np.float64(2),), (True,)])
def test_segmentation_rejects_non_integral_cuts(cuts):
    # int() used to truncate these: (2.7, 5) became (2, 5) and ("3",) became (3,);
    # operator.index made (True,) into (1,)
    with pytest.raises(UsageError, match="must be integers"):
        Segmentation(0, cuts)


@pytest.mark.parametrize("mid", ["0", 1.5, True, 2**63])
def test_segmentation_rejects_an_id_outside_int64(mid):
    # these used to construct, and failed only where an id was compared
    with pytest.raises(UsageError, match="message id"):
        Segmentation(mid, ())
    with pytest.raises(UsageError, match="message id"):
        Segmentation(mid, (2,))


def test_segmentation_keeps_an_int64_id_as_a_python_int():
    seg = Segmentation(np.uint8(5), ())
    assert type(seg.message_id) is int and seg.message_id == 5


def test_segmentation_takes_python_and_numpy_integers():
    seg = Segmentation(0, (np.int64(2), np.uint8(4), 7))
    assert seg.cuts == (2, 4, 7)
    assert all(type(c) is int for c in seg.cuts)


def test_segmentation_rejects_out_of_range_cut():
    msg = Message(0, b"abcdef")
    with pytest.raises(UsageError):
        Segmentation(0, (9,)).validate_against(msg)


def test_default_params_match_published_values():
    p = AnalysisParams()
    assert p.scree_min == 10
    assert p.max_principals == 4
    assert p.principal_ratio == 0.5
    assert p.length_ratio == 0.5
    assert p.min_cluster == 6
    assert p.contrib_floor == 0.1
    assert p.delta_min == 0.98
    assert p.near_zero == 0.05
    assert p.quiet_len == 4
    assert p.notable == 0.005


def test_params_validate_ranges():
    with pytest.raises(UsageError):
        AnalysisParams(min_cluster=0)
    with pytest.raises(UsageError):
        AnalysisParams(delta_min=1.5)


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(AnalysisParams)])
@pytest.mark.parametrize("value", [True, False, np.True_])
def test_params_refuse_bools(name, value):
    # True passed as 1 where 1 is in range: quiet_len=True gave quiet_len True
    with pytest.raises(UsageError, match=f"{name} must be a number, not a bool"):
        AnalysisParams(**{name: value})


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(AnalysisParams)])
@pytest.mark.parametrize("value", ["0.5", None, b"1", 1j])
def test_params_refuse_non_numbers(name, value):
    # delta_min="0.5" raised TypeError from the range comparison
    with pytest.raises(UsageError, match=f"{name} must be a number, not {re.escape(repr(value))}"):
        AnalysisParams(**{name: value})


def test_min_cluster_needs_two_members_to_overlay():
    with pytest.raises(UsageError, match="min_cluster must be at least 2, got 1"):
        AnalysisParams(min_cluster=1)
    assert AnalysisParams(min_cluster=2).min_cluster == 2


def test_ground_truth_validates_against_trace():
    msgs = [Message(0, b"abcdef")]
    GroundTruth(cuts={0: (2, 4)}).validate_against(msgs)
    with pytest.raises(UsageError):
        GroundTruth(cuts={0: (9,)}).validate_against(msgs)
    with pytest.raises(UsageError):
        GroundTruth(cuts={5: (1,)}).validate_against(msgs)


@pytest.mark.parametrize("cuts", [{0: (2.7, 5)}, {1: ("3",)}, {0: (3, 3)}, {0: (0, 2)}])
def test_ground_truth_checks_cuts_as_segmentation_does(cuts):
    # these were kept unchecked, and scoring against them failed deep inside
    with pytest.raises(UsageError, match="message"):
        GroundTruth(cuts=cuts)


def test_ground_truth_normalizes_integer_cuts():
    truth = GroundTruth(cuts={1: [np.int64(2), 4], 0: ()})
    assert truth.cuts == {1: (2, 4), 0: ()}
    assert all(type(c) is int for c in truth.cuts[1])


@pytest.mark.parametrize("key", [1.7, np.float64(2.0), "x", "1.5", "--1", None, 2**63, False,
                                 "1", " 1_0 ", "+7", "\u0661"])
def test_ground_truth_refuses_a_key_that_is_no_message_id(key):
    # int() used to truncate 1.7 to 1, and read "1", " 1_0 ", "+7" and an Arabic-Indic one
    with pytest.raises(UsageError, match="message id"):
        GroundTruth(cuts={key: (2,)})


def test_ground_truth_keys_are_checked_as_message_ids_are():
    truth = GroundTruth(cuts={np.int64(3): (1,), np.uint8(5): (), -4: ()})
    assert truth.cuts == {3: (1,), 5: (), -4: ()}
    assert all(type(k) is int for k in truth.cuts)
    with pytest.raises(UsageError, match="message id must be an integer"):
        GroundTruth(cuts={"1": (2,), 1: (3,)})  # two keys could name one message
