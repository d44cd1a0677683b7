import dataclasses
import math
import re
from operator import itemgetter

import numpy as np
import pytest

from conftest import (extreme_payload, reference_bit_congruence, reference_crop_chars,
                      reference_crop_distinct, reference_diff_edits, reference_entropy,
                      reference_entropy_merge, reference_joined_trace, reference_merge_chars,
                      reference_null_refine, reference_null_runs, reference_split_fixed)
from protoseg import synth
from protoseg.model import AnalysisParams, Message, Segmentation, UsageError, segments_of
from protoseg.refine import (BASE_EXTERNAL, PASS_PCA, PRESETS, Pipeline, PipelineConfig,
                             bit_congruence_segmenter, char_heuristic,
                             crop_chars, crop_distinct, entropy_merge, gaussian_kernel,
                             merge_chars, null_refine, null_segmenter, preset,
                             run_pipeline, split_fixed, join_trace, _diff_edits, _Entropies,
                             _null_runs, _span_entropies)
from protoseg.rules import EDIT, edit_records


def msg(data, mid=0):
    return Message(mid, bytes(data))


def run_pass(op, segs, messages, *knobs) -> list:
    """The segmentations a whole-trace pass leaves on the layout of segs over messages."""
    return op(join_trace(segs, messages), *knobs).segmentations()


def one(op, seg, m, *knobs):
    """A whole-trace pass run on a trace of one message."""
    (out,) = run_pass(op, [seg], [m], *knobs)
    return out


def random_traces(rng, payloads, largest=40):
    """payloads split, in order, into traces of 1..largest messages with ids 0, 1, ..."""
    traces = []
    while payloads:
        size = int(rng.integers(1, largest + 1))
        traces.append([msg(p, i) for i, p in enumerate(payloads[:size])])
        payloads = payloads[size:]
    return traces


def span_entropy(data: bytes, entropies=None) -> float:
    """The entropy of data as the one span of a `_span_entropies` call."""
    (h,) = _span_entropies(np.frombuffer(data, dtype=np.uint8), np.array([0]),
                           np.array([len(data)]), _Entropies() if entropies is None else entropies)
    return h


class TestCharHeuristic:
    def test_plain_text(self):
        assert char_heuristic(b"ABC") is True

    def test_too_short(self):
        assert char_heuristic(b"AB") is False

    def test_embedded_null(self):
        assert char_heuristic(b"A\x00B") is False

    def test_whitespace_controls_allowed(self):
        assert char_heuristic(b"a\tb\r\n") is True

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            char_heuristic(b"")


class TestNullSegmenter:
    def test_mixed_allocation(self):
        m = msg(bytes.fromhex("112200004142430099"))
        seg = null_segmenter(m)
        assert segments_of(seg, m) == [bytes.fromhex("1122"),
                                      bytes.fromhex("000041424300"),
                                      bytes.fromhex("99")]

    def test_all_null_message(self):
        m = msg(b"\x00" * 6)
        assert null_segmenter(m).cuts == ()

    def test_null_terminated_string(self):
        m = msg(b"ABC\x00")
        assert null_segmenter(m).cuts == ()

    def test_leading_nulls_merge_right(self):
        m = msg(b"\x00\x00\x41\x99")
        assert null_segmenter(m).cuts == ()

    def test_trailing_non_char_run_stands_alone(self):
        m = msg(bytes.fromhex("315500"))
        assert null_segmenter(m).cuts == (2,)


class TestNullRefine:
    def test_cut_inside_run_moves_to_run_start(self):
        # binary prefix, then nulls, then a number: rule 2 allocation
        m = msg(bytes.fromhex("9911000000310a"))
        seg = Segmentation(0, (4,))
        assert one(null_refine, seg, m).cuts == (2,)

    def test_cut_at_terminator_end_unchanged(self):
        m = msg(b"ABC\x00\x31\x32")
        seg = Segmentation(0, (4,))
        assert one(null_refine, seg, m).cuts == (4,)

    def test_cuts_far_from_nulls_unchanged(self):
        m = msg(bytes.fromhex("112233445566"))
        seg = Segmentation(0, (3,))
        assert one(null_refine, seg, m).cuts == (3,)

    def test_never_changes_cut_count(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            data = bytes(rng.integers(0, 4, size=int(rng.integers(2, 20))).tolist())
            m = msg(data, 0)
            k = int(rng.integers(0, 3))
            cuts = tuple(sorted(rng.choice(np.arange(1, len(data)),
                                           size=min(k, len(data) - 1),
                                           replace=False).tolist()))
            refined = one(null_refine, Segmentation(0, cuts), m)
            assert len(refined.cuts) == len(cuts)

    def test_segmenter_output_is_fixpoint(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            data = bytes(rng.integers(0, 6, size=int(rng.integers(1, 24))).tolist())
            m = msg(data, 0)
            base = null_segmenter(m)
            assert one(null_refine, base, m) == base


class TestBitCongruence:
    def test_constant_payload_has_no_cuts(self):
        assert bit_congruence_segmenter(msg(b"\x42" * 8)).cuts == ()

    def test_single_transition(self):
        m = msg(bytes.fromhex("000000ffffff"))
        assert bit_congruence_segmenter(m).cuts == (3,)

    def test_short_message(self):
        assert bit_congruence_segmenter(msg(b"\x01\x02")).cuts == ()

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
    def test_sigma_outside_the_config_rule_is_refused(self, sigma):
        # a NaN raised ValueError and an infinity OverflowError from math.ceil
        message = "sigma must be a positive finite number"
        with pytest.raises(UsageError, match=message):
            gaussian_kernel(sigma)
        with pytest.raises(UsageError, match=message):
            bit_congruence_segmenter(msg(b"\x01\x02\x03\x04"), sigma)
        with pytest.raises(UsageError, match=message):
            PipelineConfig(sigma=sigma)

    def test_cuts_always_valid(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            data = bytes(rng.integers(0, 256, size=int(rng.integers(1, 40))).tolist())
            m = msg(data)
            seg = bit_congruence_segmenter(m, sigma=float(rng.uniform(0.4, 2.0)))
            seg.validate_against(m)


class TestAgainstPerByteReferences:
    """The vectorised and table-driven passes equal the per-byte loops they replace."""

    def test_bit_congruence(self):
        rng = np.random.default_rng(61)
        for _ in range(2000):
            payload = extreme_payload(rng)
            sigma = float(rng.uniform(0.4, 2.0))
            expected = reference_bit_congruence(payload, sigma)
            assert bit_congruence_segmenter(msg(payload), sigma).cuts == expected
            # one kernel array per sigma, shared by every call, and read-only
            kernel = gaussian_kernel(sigma)
            assert gaussian_kernel(sigma) is kernel
            with pytest.raises(ValueError):
                kernel[0] = 0.0

    def test_entropy_merge_on_multi_message_traces(self):
        # one call merges a whole trace, each message as the per-byte greedy
        # merges it alone
        rng = np.random.default_rng(62)
        payloads = [extreme_payload(rng) for _ in range(2000)]
        changed = 0
        for trace in random_traces(rng, payloads):
            segs = [Segmentation(m.id, tuple(c for c in range(1, len(m.payload))
                                             if rng.random() < 0.35)) for m in trace]
            floor, diff = float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 0.3))
            for m, seg, out in zip(trace, segs, run_pass(entropy_merge, segs, trace, floor, diff)):
                assert out.cuts == reference_entropy_merge(seg.cuts, m.payload, floor, diff)
                changed += out.cuts != seg.cuts
        assert 200 < changed < 1800

    def test_entropy_merge_on_long_messages(self):
        # one long message makes long chains, whose steps merge one span
        # at a time; several make steps that merge several
        rng = np.random.default_rng(65)
        for size in (200, 400, 800, 1400):
            for _ in range(6):
                trace = []
                for i in range(int(rng.integers(1, 4))):
                    payload = rng.integers(0, 256, size=size)
                    if rng.random() < 0.5:  # runs of low-entropy bytes break the chains
                        payload[rng.random(size) < 0.3] = 0
                    trace.append(msg(payload.tolist(), i))
                segs = [bit_congruence_segmenter(m) for m in trace]
                floor, diff = float(rng.uniform(0.3, 0.8)), float(rng.uniform(0.05, 0.3))
                for m, seg, out in zip(trace, segs,
                                       run_pass(entropy_merge, segs, trace, floor, diff)):
                    assert out.cuts == reference_entropy_merge(seg.cuts, m.payload, floor, diff)

    def test_span_entropies_equal_entropy_on_the_specs(self):
        # every segment of the bit-congruence base of the six specs and every
        # span of 2-4 adjacent segments, one `_span_entropies` call per spec
        spans = 0
        for name, spec in sorted(synth.reference_specs().items()):
            messages, _ = synth.generate(dataclasses.replace(spec, message_count=100, rng_seed=11))
            data = np.frombuffer(b"".join(m.payload for m in messages), dtype=np.uint8)
            starts, ends, expected = [], [], []
            offset = 0
            for m in messages:
                bounds = [0, *bit_congruence_segmenter(m).cuts, len(m.payload)]
                for width in range(1, 5):
                    for a, b in zip(bounds, bounds[width:]):
                        starts.append(offset + a)
                        ends.append(offset + b)
                        expected.append(reference_entropy(m.payload[a:b]))
                offset += len(m.payload)
            h = _span_entropies(data, np.array(starts), np.array(ends), _Entropies())
            assert np.array_equal(h.view(np.int64), np.array(expected).view(np.int64)), name
            spans += len(expected)
        assert spans > 7000

    def test_entropy_depends_only_on_the_ordered_counts(self):
        # an increasing relabelling of the byte values keeps the counts in
        # byte-value order, so the entropy keeps its bits, whether a span
        # comes alone (one bincount) or among others (one sort), and
        # whether its key is cached or new
        rng = np.random.default_rng(63)
        cached = _Entropies()
        for _ in range(500):
            data = extreme_payload(rng)
            relabelled = bytes(np.sort(rng.choice(256, size=256, replace=False))[list(data)]
                               .tolist())
            expected = reference_entropy(data)
            assert span_entropy(data) == expected
            assert span_entropy(relabelled, cached) == expected
            both = np.frombuffer(data + relabelled, dtype=np.uint8)
            h = _span_entropies(both, np.array([0, len(data)]),
                                np.array([len(data), both.size]), _Entropies())
            assert h.tolist() == [expected, expected]

    def test_null_runs_and_crop_chars(self):
        rng = np.random.default_rng(64)
        alphabet = [0x00, 0x00, 0x09, 0x0a, 0x0d, 0x1f, 0x20, 0x41, 0x7e, 0x7f, 0xff]
        payloads = []
        for _ in range(2000):
            size = int(rng.integers(1, 41))
            payload = (bytes(rng.choice(alphabet, size=size).tolist()) if rng.random() < 0.5
                       else extreme_payload(rng))
            assert _null_runs(payload) == reference_null_runs(payload)
            payloads.append(payload)
        for trace in random_traces(rng, payloads):
            segs = [Segmentation(m.id, tuple(c for c in range(1, len(m.payload))
                                             if rng.random() < 0.1)) for m in trace]
            min_run = int(rng.integers(1, 9))
            for m, seg, out in zip(trace, segs, run_pass(crop_chars, segs, trace, min_run)):
                assert out.cuts == reference_crop_chars(seg.cuts, m.payload, min_run)


class TestAgainstMessageLoops:
    """The trace-wide passes and edit diffs equal the message-by-message loops of conftest."""

    def test_null_refine_merge_chars_and_split_fixed(self):
        # payloads rich in nulls and text, so every pass has work in most traces
        rng = np.random.default_rng(68)
        alphabet = [0x00, 0x00, 0x00, 0x41, 0x42, 0x61, 0x20, 0x01, 0xff]
        payloads = [bytes(rng.choice(alphabet, size=int(rng.integers(1, 41))).tolist())
                    if rng.random() < 0.6 else extreme_payload(rng) for _ in range(3000)]
        changed = {"null_refine": 0, "merge_chars": 0, "split_fixed": 0}
        for trace in random_traces(rng, payloads):
            segs = [Segmentation(m.id, tuple(c for c in range(1, len(m.payload))
                                             if rng.random() < 0.3)) for m in trace]
            chunk = int(rng.integers(1, 5))
            for name, got, reference in (
                    ("null_refine", run_pass(null_refine, segs, trace), reference_null_refine),
                    ("merge_chars", run_pass(merge_chars, segs, trace), reference_merge_chars),
                    ("split_fixed", run_pass(split_fixed, segs, trace, chunk),
                     lambda cuts, payload: reference_split_fixed(cuts, payload, chunk))):
                for m, seg, out in zip(trace, segs, got):
                    assert out.cuts == reference(seg.cuts, m.payload), (name, m.payload.hex())
                    changed[name] += out.cuts != seg.cuts
        assert min(changed.values()) > 150

    def test_crop_distinct(self):
        # with runs of one byte value whose frequent values overlap themselves
        rng = np.random.default_rng(66)
        changed = 0
        for _ in range(1500):
            trace, segs = [], []
            for i in range(int(rng.integers(1, 30))):
                size = int(rng.integers(1, 30))
                payload = (bytes(rng.choice([0, 0, 1, 0x41], size=size).tolist())
                           if rng.random() < 0.3 else extreme_payload(rng, 1, 30))
                trace.append(msg(payload, 2 * i))
                cuts = rng.integers(1, len(payload), size=int(rng.integers(0, len(payload))))
                segs.append(Segmentation(2 * i, tuple(sorted(set(cuts.tolist())))))
            fraction, least = float(rng.choice([0.0, 0.05, 0.1, 0.3])), int(rng.integers(1, 4))
            out = run_pass(crop_distinct, segs, trace, fraction, least)
            assert [s.cuts for s in out] == reference_crop_distinct(segs, trace, fraction, least)
            changed += sum(new.cuts != old.cuts for new, old in zip(out, segs))
        assert changed > 3000

    def test_diff_edits(self):
        # per message: unchanged, only added, only removed, as many added as
        # removed (moves) or any other change; and passes that change nothing
        rng = np.random.default_rng(67)
        kinds = set()
        for _ in range(1500):
            messages, old, new = [], [], []
            for i in range(int(rng.integers(0, 20))):
                length = int(rng.integers(1, 40))
                cuts = sorted(set(rng.integers(1, length, size=int(rng.integers(0, length)))
                                  .tolist()) if length > 1 else [])
                seg = Segmentation(5 * i + 2, tuple(cuts))
                free = sorted(set(range(1, length)) - set(cuts))
                change = int(rng.integers(0, 6)) if rng.random() < 0.8 else 0
                picked = set(rng.permutation(free)[:int(rng.integers(0, len(free) + 1))].tolist())
                dropped = set(rng.permutation(cuts)[:int(rng.integers(0, len(cuts) + 1))].tolist())
                if change == 2:
                    dropped = set()
                elif change == 3:
                    picked = set()
                elif change == 4:
                    picked = set(sorted(picked)[:len(dropped)])
                    dropped = set(sorted(dropped)[:len(picked)])
                out = seg if change in (0, 1) else Segmentation(
                    seg.message_id, tuple(sorted((set(cuts) - dropped) | picked)))
                messages.append(Message(seg.message_id, bytes(length)))
                old.append(seg)
                new.append(out)
            before = join_trace(old, messages)
            for changes in (new, old):
                got = _diff_edits(before, join_trace(changes, messages), "crop_chars")
                assert got.dtype == EDIT
                got = edit_records(got)
                assert got == reference_diff_edits(old, changes, "crop_chars")
                assert all(type(e["message"]) is int and type(e["offset"]) is int
                           and type(e["old_offset"]) in (int, type(None)) for e in got)
                kinds.update(e["kind"] for e in got)
        assert kinds == {"add", "move", "remove"}


class TestJoinTrace:
    """`join_trace` against the message-by-message layout of `conftest.reference_joined_trace`."""

    def test_fields_match_the_per_message_layout(self):
        rng = np.random.default_rng(71)
        seen = set()
        for _ in range(400):
            trace, segs = [], []
            for i in range(int(rng.integers(1, 13))):
                payload = extreme_payload(rng, 1, 2 if rng.random() < 0.2 else 41)
                n = len(payload)
                cuts = set() if rng.random() < 0.25 else set(
                    rng.integers(1, max(n, 2), size=int(rng.integers(0, n))).tolist())
                if n > 1 and rng.random() < 0.3:
                    cuts.add(n - 1)
                trace.append(Message(5 * i + 2, payload))
                segs.append(Segmentation(5 * i + 2, tuple(sorted(cuts))))
                seen.update(case for case, hit in (("one byte", n == 1), ("no cuts", not cuts),
                                                   ("cut at len - 1", n - 1 in cuts)) if hit)
            got, want = join_trace(segs, trace), reference_joined_trace(segs, trace)
            assert got.joined == want["joined"]
            for name in ("offsets", "edges", "first", "at_cut", "is_cut"):
                assert getattr(got, name).tolist() == want[name], name
            assert got.ids.tolist() == want["ids"]
        assert seen == {"one byte", "no cuts", "cut at len - 1"}

    def test_recut_message_and_segmentations_match_a_fresh_join(self):
        # a layout recut to other cuts, one message of it alone, and the
        # segmentations read back, each against join_trace of the cut sets
        rng = np.random.default_rng(72)
        fields = ("joined", "offsets", "edges", "first", "at_cut", "is_cut", "ids")

        def cut_sets(trace):
            return [Segmentation(m.id, tuple(c for c in range(1, len(m.payload))
                                             if rng.random() < 0.3)) for m in trace]

        def assert_same(got, want):
            for name in fields:
                assert np.array_equal(getattr(got, name), getattr(want, name)), name

        payloads = [extreme_payload(rng) for _ in range(1500)]
        for trace in random_traces(rng, payloads, largest=12):
            old, new = cut_sets(trace), cut_sets(trace)
            layout, want = join_trace(old, trace), join_trace(new, trace)
            assert layout.segmentations() == old
            assert_same(layout.recut(want.is_cut), want)
            r = int(rng.integers(0, len(trace)))
            assert_same(layout.message(r), join_trace(old[r:r + 1], trace[r:r + 1]))

    @pytest.mark.parametrize("cuts", [(2,), (3,), (1, 5)])
    def test_cut_at_or_beyond_the_end_raises(self, cuts):
        # the bad message is the first of three, so its cut lands in the next one
        trace = [Message(7, b"ab"), Message(8, b"xyz"), Message(9, b"q")]
        segs = [Segmentation(7, cuts), Segmentation(8, (1,)), Segmentation(9, ())]
        with pytest.raises(UsageError, match="message 7"):
            join_trace(segs, trace)


class TestPassKinds:
    """Each static pass only adds cuts, only removes them, or keeps their count.

    `run_pipeline` logs a pass's changes through `_diff_edits`, which
    reads cuts both added and removed, in equal numbers, as moves.
    """

    def test_per_message_passes(self):
        rng = np.random.default_rng(66)
        passes = {  # pass: how its new cuts relate to the old
            "crop_chars": (lambda seg, m: one(crop_chars, seg, m, int(rng.integers(1, 9))),
                           set.issuperset),
            "split_fixed": (lambda seg, m: one(split_fixed, seg, m, int(rng.integers(1, 5))),
                            set.issuperset),
            "entropy_merge": (lambda seg, m: one(
                entropy_merge, seg, m, float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 0.3))),
                set.issubset),
            "merge_chars": (lambda seg, m: one(merge_chars, seg, m), set.issubset),
            "null_refine": (lambda seg, m: one(null_refine, seg, m),
                            lambda new, old: len(new) == len(old)),
        }
        changed = dict.fromkeys(passes, 0)
        for _ in range(2000):
            payload = extreme_payload(rng)
            seg = Segmentation(0, tuple(c for c in range(1, len(payload)) if rng.random() < 0.3))
            for name, (op, relation) in passes.items():
                new = op(seg, msg(payload)).cuts
                assert relation(set(new), set(seg.cuts)), (name, payload.hex(), seg.cuts, new)
                changed[name] += new != seg.cuts
        assert min(changed.values()) > 40  # every pass changed some cut sets

    def test_crop_distinct_only_adds(self):
        rng = np.random.default_rng(67)
        changed = 0
        for _ in range(50):
            # payloads strung from a few short pieces, so some values are frequent
            pool = [extreme_payload(rng, 2, 6) for _ in range(4)]
            payloads = [b"".join(pool[k] for k in rng.integers(0, 4, size=int(rng.integers(1, 4))))
                        for _ in range(int(rng.integers(3, 40)))]
            msgs = [msg(p, i) for i, p in enumerate(payloads)]
            segs = [Segmentation(i, tuple(c for c in range(1, len(p)) if rng.random() < 0.3))
                    for i, p in enumerate(payloads)]
            for old, new in zip(segs, run_pass(crop_distinct, segs, msgs)):
                assert set(new.cuts) >= set(old.cuts)
                changed += new.cuts != old.cuts
        assert changed > 100


class TestUnchangedCuts:
    """A pass that leaves the cuts as they are leaves the cut flags equal, so it logs no edit."""

    def test_per_message_passes(self):
        rng = np.random.default_rng(65)
        passes = [crop_chars, null_refine, split_fixed, entropy_merge]
        kept = dict.fromkeys(passes, 0)
        for _ in range(2000):
            payload = extreme_payload(rng)
            seg = Segmentation(0, tuple(c for c in range(1, len(payload)) if rng.random() < 0.3))
            trace = join_trace([seg], [msg(payload)])
            for op in passes:
                out = op(trace)
                same = out.segmentations() == [seg]
                assert np.array_equal(out.is_cut, trace.is_cut) == same
                assert (_diff_edits(trace, out, op.__name__).size == 0) == same
                kept[op] += same
        assert min(kept.values()) > 100  # every pass met unchanged and changed cuts
        assert max(kept.values()) < 2000

    def test_crop_distinct(self):
        msgs, segs = TestCropDistinct()._trace()
        trace = join_trace(segs, msgs)
        out = crop_distinct(trace)
        assert out.segmentations()[:9] == segs[:9]
        assert set(_diff_edits(trace, out, "crop_distinct")["message"].tolist()) == {9}


class TestEntropyMerge:
    def test_entropy_values(self):
        assert span_entropy(b"\x00" * 4) == _Entropies()[(4,)] == 0.0
        assert span_entropy(bytes([0, 1, 2, 3])) == pytest.approx(1.0)
        assert _Entropies()[(1, 1, 1, 1)] == pytest.approx(1.0)
        assert span_entropy(b"\x07") == _Entropies()[(1,)] == 0.0

    def test_similar_high_entropy_neighbors_merge(self):
        # both segments near-uniform: entropies close and above the floor
        a = bytes([1, 2, 3, 4, 5, 6, 7, 8])
        b = bytes([9, 10, 11, 12, 13, 14, 15, 16])
        m = msg(a + b)
        assert one(entropy_merge, Segmentation(0, (8,)), m).cuts == ()

    def test_dissimilar_entropy_does_not_merge(self):
        a = bytes([1, 2, 3, 4, 5, 6, 7, 8])
        b = bytes([7] * 8)
        m = msg(a + b)
        assert one(entropy_merge, Segmentation(0, (8,)), m).cuts == (8,)

    def test_constant_fields_stay_apart(self):
        m = msg(bytes([1] * 4 + [2] * 4))
        assert one(entropy_merge, Segmentation(0, (4,)), m).cuts == (4,)


class TestMergeChars:
    def test_adjacent_text_segments_merge(self):
        m = msg(b"HelloWorld")
        assert one(merge_chars, Segmentation(0, (5,)), m).cuts == ()

    def test_binary_neighbor_stays(self):
        m = msg(b"Hello" + bytes([1, 2, 3]))
        assert one(merge_chars, Segmentation(0, (5,)), m).cuts == (5,)


class TestCropChars:
    def test_embedded_run_cropped(self):
        m = msg(bytes.fromhex("0102") + b"Hello!\t" + bytes.fromhex("fe"))
        seg = one(crop_chars, Segmentation(0, ()), m)
        assert seg.cuts == (2, 9)

    def test_pure_char_segment_unchanged(self):
        m = msg(b"Hello, world")
        assert one(crop_chars, Segmentation(0, ()), m).cuts == ()

    def test_short_run_ignored(self):
        m = msg(bytes.fromhex("01") + b"abc" + bytes.fromhex("02030405"))
        assert one(crop_chars, Segmentation(0, ()), m).cuts == ()

    def test_terminator_stays_with_run(self):
        m = msg(bytes.fromhex("0102") + b"stream" + b"\x00" + bytes.fromhex("beef"))
        assert one(crop_chars, Segmentation(0, ()), m).cuts == (2, 9)


class TestCropDistinct:
    def _trace(self):
        # the value 81 82 appears as a standalone segment in most messages
        msgs = [msg(bytes.fromhex("8182") + bytes([i]), mid=i) for i in range(9)]
        segs = [Segmentation(i, (2,)) for i in range(9)]
        msgs.append(msg(bytes.fromhex("aa8182bb"), mid=9))
        segs.append(Segmentation(9, ()))
        return msgs, segs

    def test_frequent_value_cropped_from_larger_segment(self):
        msgs, segs = self._trace()
        out = run_pass(crop_distinct, segs, msgs)
        assert out[9].cuts == (1, 3)

    def test_whole_segment_occurrence_untouched(self):
        msgs, segs = self._trace()
        out = run_pass(crop_distinct, segs, msgs)
        assert out[0].cuts == (2,)

    def test_no_frequent_value_is_noop(self):
        msgs = [msg(bytes([i, i + 1, i + 2]), mid=i) for i in range(8)]
        segs = [Segmentation(i, ()) for i in range(8)]
        assert [s.cuts for s in run_pass(crop_distinct, segs, msgs)] == [()] * 8

    def test_value_counts_once_per_message(self):
        # 81 82 is a segment three times in each of two messages: two messages, not six
        msgs = [msg(bytes.fromhex("818281828182aa"), mid=i) for i in range(2)]
        msgs += [msg(bytes.fromhex("cc8182dd"), mid=2)]
        segs = [Segmentation(i, (2, 4, 6)) for i in range(2)] + [Segmentation(2, ())]
        assert [s.cuts for s in run_pass(crop_distinct, segs, msgs)] == [(2, 4, 6)] * 2 + [()]
        msgs.append(msg(bytes.fromhex("8182ee"), mid=3))
        segs.append(Segmentation(3, (2,)))
        assert run_pass(crop_distinct, segs, msgs)[2].cuts == (1, 3)

    def test_cut_beyond_the_payload_is_rejected(self):
        # the layout the pass reads refuses the cut
        msgs, segs = self._trace()
        segs[4] = Segmentation(4, (2, 3))
        with pytest.raises(UsageError, match="out of range for message 4"):
            run_pass(crop_distinct, segs, msgs)


class TestSplitFixed:
    def test_even_first_segment(self):
        m = msg(bytes.fromhex("01020304"))
        assert one(split_fixed, Segmentation(0, ()), m).cuts == (2,)

    def test_odd_tail_attaches(self):
        m = msg(bytes.fromhex("0102030405"))
        assert one(split_fixed, Segmentation(0, ()), m).cuts == (2,)

    def test_char_first_segment_exempt(self):
        m = msg(b"ABCD" + bytes.fromhex("0102"))
        assert one(split_fixed, Segmentation(0, (4,)), m).cuts == (4,)

    def test_only_first_segment_is_split(self):
        m = msg(bytes.fromhex("01020304aabbccdd"))
        assert one(split_fixed, Segmentation(0, (4,)), m).cuts == (2, 4)

    def test_no_chunk_shorter_than_the_chunk_size(self):
        for first_len in range(1, 10):
            m = msg(bytes(range(1, first_len + 1)))
            seg = one(split_fixed, Segmentation(0, ()), m)
            bounds = [0] + list(seg.cuts) + [first_len]
            sizes = [b - a for a, b in zip(bounds, bounds[1:])]
            assert all(s >= min(2, first_len) for s in sizes)


class TestPipeline:
    def test_preset_pass_lists(self):
        nullpca = preset("nullpca")
        assert nullpca.base == "null_bytes"
        assert nullpca.passes == ("crop_chars", "pca", "crop_distinct", "split_fixed")
        nemepca = preset("nemepca")
        assert nemepca.base == "bit_congruence"
        assert nemepca.passes == ("entropy_merge", "null_bytes_refine", "crop_chars",
                                  "pca", "crop_distinct", "split_fixed")

    def test_unknown_preset_rejected(self):
        with pytest.raises(UsageError):
            preset("bogus")

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(PipelineConfig)
                                      if f.name != "analysis"])
    @pytest.mark.parametrize("value", [True, False, np.True_])
    def test_config_refuses_bools(self, name, value):
        # True passed as 1 where 1 is in range: max_depth=True and sigma=True were kept as True
        with pytest.raises(UsageError, match=f"{name} must be a number, not a bool"):
            PipelineConfig(**{name: value})

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(PipelineConfig)
                                      if f.name != "analysis"])
    @pytest.mark.parametrize("value", ["1", None, b"1", 1j])
    def test_config_refuses_non_numbers(self, name, value):
        # sigma="1" and entropy_floor=None raised TypeError from the range comparison
        message = f"{name} must be a number, not {re.escape(repr(value))}"
        with pytest.raises(UsageError, match=message):
            PipelineConfig(**{name: value})

    @pytest.mark.parametrize("value", [True, None, {"min_cluster": 3}])
    def test_config_refuses_an_analysis_of_another_type(self, value):
        with pytest.raises(UsageError, match="analysis must be an AnalysisParams"):
            PipelineConfig(analysis=value)

    @pytest.mark.parametrize("config", [AnalysisParams(), None, {"sigma": 0.9}])
    def test_pipeline_refuses_a_config_of_another_type(self, config):
        # run_pipeline raised AttributeError on the first knob it read
        with pytest.raises(UsageError, match="config must be a PipelineConfig"):
            Pipeline(base="null_bytes", passes=(), config=config)
        if config is not None:  # None picks the default config
            with pytest.raises(UsageError, match="config must be a PipelineConfig"):
                preset("nullpca", config=config)
        assert preset("nullpca", config=None).config == PipelineConfig()

    def test_pca_at_most_once(self):
        with pytest.raises(UsageError):
            Pipeline(base="null_bytes", passes=(PASS_PCA, PASS_PCA))

    def test_empty_trace(self):
        result = run_pipeline([], preset("nullpca"))
        assert result.segmentations == [] and result.edits == []

    def test_external_base_requires_segmentations(self):
        with pytest.raises(UsageError):
            run_pipeline([msg(b"ab")], Pipeline(base=BASE_EXTERNAL, passes=()))

    @pytest.mark.parametrize("external, refused", [
        (lambda: [Segmentation(0, (2,)), Segmentation(0, (3,))],
         "external segmentation names message id 0 more than once"),
        (lambda: [Segmentation(999, (2,))],
         "external segmentation names message id 999 but the trace does not hold it"),
        # a string id no longer reaches the pipeline: the segmentation itself refuses it
        (lambda: [Segmentation("0", (2,))], "message id must be an integer .*: '0'"),
    ], ids=["repeated", "absent", "string"])
    def test_external_segmentation_it_would_misread_is_refused(self, external, refused):
        # these were read silently: a repeated id kept its last entry, and a
        # segmentation of a message the trace does not hold was ignored
        messages, _ = synth.generate(dataclasses.replace(synth.reference_specs()["mixed"],
                                                         message_count=20))
        pipeline = preset("nullpca", base=BASE_EXTERNAL)
        with pytest.raises(UsageError, match=refused):
            run_pipeline(messages, pipeline, external=external())
        # a list naming each message at most once is read as it is
        read = run_pipeline(messages, Pipeline(base=BASE_EXTERNAL, passes=()),
                            external=[Segmentation(0, (2,))]).segmentations
        assert [s.cuts for s in read] == [(2,)] + [()] * (len(messages) - 1)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_repeated_message_id_is_refused(self, name):
        messages, _ = synth.generate(dataclasses.replace(synth.reference_specs()["fixed"],
                                                         message_count=60, rng_seed=3))
        messages = [Message(k // 2, m.payload) for k, m in enumerate(messages)]
        with pytest.raises(UsageError, match="message id 0 occurs more than once"):
            run_pipeline(messages, preset(name))

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_ids_at_the_ends_of_int64(self, name):
        # the same trace numbered down from the largest int64, then up from the smallest
        messages, _ = synth.generate(dataclasses.replace(synth.reference_specs()["mixed"],
                                                         message_count=60, rng_seed=3))
        plain = run_pipeline(messages, preset(name))
        for mid in (lambda k: 2**63 - 1 - k, lambda k: -2**63 + k):
            ids = [mid(k) for k in range(len(messages))]
            result = run_pipeline([Message(i, m.payload) for i, m in zip(ids, messages)],
                                  preset(name))
            assert [(s.message_id, s.cuts) for s in result.segmentations] == \
                [(i, s.cuts) for i, s in zip(ids, plain.segmentations)]
            # the pca pass applies its edits in message id order
            renumbered = [{**e, "message": ids[e["message"]]} for e in plain.edits]
            by_value = itemgetter("message", "offset", "kind", "old_offset", "provenance")
            assert sorted(result.edits, key=by_value) == sorted(renumbered, key=by_value)

    def test_every_pass_keeps_segmentations_valid(self):
        rng = np.random.default_rng(21)
        messages = [msg(bytes(rng.integers(0, 256, size=int(rng.integers(1, 30))).tolist()), mid=i)
                    for i in range(30)]
        for name in PRESETS:
            result = run_pipeline(messages, preset(name))
            for m, s in zip(messages, result.segmentations):
                s.validate_against(m)
                assert all(segments_of(s, m))

    def test_pipeline_is_deterministic(self):
        rng = np.random.default_rng(22)
        messages = [msg(bytes(rng.integers(0, 64, size=12).tolist()), mid=i)
                    for i in range(40)]
        first = run_pipeline(messages, preset("nullpca"))
        second = run_pipeline(messages, preset("nullpca"))
        assert [s.cuts for s in first.segmentations] == [s.cuts for s in second.segmentations]
        assert first.edits == second.edits
