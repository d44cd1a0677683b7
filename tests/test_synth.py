import json
import re

import pytest

from protoseg.model import SpecError, UsageError
from protoseg.cli import main
from protoseg.synth import (MAX_FIELD_BYTES, FieldSpec, ProtocolSpec, generate, load_spec,
                            perturb, reference_specs, spec_from_json)


def simple_spec(**kwargs):
    defaults = dict(
        name="t",
        fields=(
            FieldSpec("magic", "const", value=b"\x01"),
            FieldSpec("num", "uint", width=2, lo=0, hi=255),
        ),
        message_count=20,
        rng_seed=7,
    )
    defaults.update(kwargs)
    return ProtocolSpec(**defaults)


class TestGenerate:
    def test_leading_null_from_small_value_range(self):
        msgs, truth = generate(simple_spec())
        for m in msgs:
            assert m.payload[0] == 0x01
            assert m.payload[1] == 0x00  # value < 256 in a 2-byte field
            assert truth.cuts[m.id] == (1,)

    def test_chars_truth_cut_after_terminator(self):
        spec = ProtocolSpec(
            name="t",
            fields=(
                FieldSpec("s", "chars", lo=3, hi=5, null_terminated=True),
                FieldSpec("n", "uint", width=1, lo=0, hi=255),
            ),
            message_count=10,
            rng_seed=3,
        )
        msgs, truth = generate(spec)
        for m in msgs:
            cut = truth.cuts[m.id][0]
            assert m.payload[cut - 1] == 0x00
            assert all(b != 0 for b in m.payload[:cut - 1])

    def test_zero_messages(self):
        msgs, truth = generate(simple_spec(message_count=0))
        assert msgs == [] and truth.cuts == {}

    def test_reproducible(self):
        a, ta = generate(simple_spec())
        b, tb = generate(simple_spec())
        assert [m.payload for m in a] == [m.payload for m in b]
        assert ta == tb

    def test_truth_satisfies_segmentation_invariants(self):
        for spec in reference_specs().values():
            msgs, truth = generate(spec)
            truth.validate_against(msgs)

    def test_length_of_tracks_variable_field(self):
        spec = ProtocolSpec(
            name="t",
            fields=(
                FieldSpec("body", "payload", lo=2, hi=9),
                FieldSpec("len", "length_of", ref="body", width=1),
            ),
            message_count=30,
            rng_seed=5,
        )
        msgs, truth = generate(spec)
        for m in msgs:
            cut = truth.cuts[m.id][0]
            assert m.payload[-1] == cut

    def test_optional_field_sometimes_missing(self):
        spec = ProtocolSpec(
            name="t",
            fields=(
                FieldSpec("a", "enum", values=(1, 2)),
                FieldSpec("b", "chars", lo=2, hi=2, optional=True),
            ),
            message_count=60,
            rng_seed=9,
        )
        msgs, _ = generate(spec)
        lengths = {len(m.payload) for m in msgs}
        assert lengths == {1, 3}


class TestSpecValidation:
    def test_all_const_rejected(self):
        with pytest.raises(SpecError):
            ProtocolSpec("t", (FieldSpec("c", "const", value=b"\x01"),))

    def test_uint_range_must_fit_width(self):
        with pytest.raises(SpecError):
            ProtocolSpec("t", (FieldSpec("n", "uint", width=1, lo=0, hi=300),))

    def test_length_of_needs_earlier_variable_field(self):
        with pytest.raises(SpecError):
            ProtocolSpec("t", (
                FieldSpec("len", "length_of", ref="body", width=1),
                FieldSpec("body", "payload", lo=1, hi=4),
            ))

    def test_unknown_kind(self):
        with pytest.raises(SpecError):
            ProtocolSpec("t", (FieldSpec("x", "float"),))

    @pytest.mark.parametrize("field, message", [
        ({"kind": "enum", "values": [1.5]}, "must be integers"),
        ({"kind": "uint", "lo": 0.5, "hi": 1.5}, "must be integers"),
        ({"kind": "payload", "hi": 2.5}, "must be integers"),
        ({"kind": "uint", "width": True, "hi": 3}, "must be integers"),
        ({"kind": "uint", "hi": 3, "optional": "no"}, "must be booleans"),
        ({"kind": "chars", "lo": 1, "hi": 2, "null_terminated": 1}, "must be booleans"),
        ({"kind": "chars", "lo": 1, "hi": 2, "charset": ""}, "charset must be a non-empty"),
        ({"kind": "chars", "lo": 1, "hi": 2, "charset": "\u20ac"}, "below 256"),
        ({"kind": "chars", "lo": 1, "hi": 2, "charset": ["a"]}, "charset must be a"),
    ])
    def test_spec_json_values_of_the_wrong_type_are_spec_errors(self, field, message):
        # each raised TypeError, ValueError or IndexError, or was taken as another value
        data = {"name": "t", "fields": [{"name": "x", **field}]}
        with pytest.raises(SpecError, match=message):
            generate(spec_from_json(data))

    @pytest.mark.parametrize("key, value", [("message_count", 2.9), ("message_count", True),
                                            ("rng_seed", 1.5), ("rng_seed", "7")])
    def test_spec_counts_must_be_integers(self, key, value):
        data = {"name": "t", "fields": [{"name": "x", "kind": "uint", "hi": 3}], key: value}
        with pytest.raises(SpecError, match=f"{key} must be .*integer"):
            spec_from_json(data)

    @pytest.mark.parametrize("target, fits", [
        ({"kind": "payload", "lo": 0, "hi": 255}, True),
        ({"kind": "payload", "lo": 0, "hi": 256}, False),
        ({"kind": "chars", "lo": 1, "hi": 254, "null_terminated": True}, True),
        ({"kind": "chars", "lo": 1, "hi": 255, "null_terminated": True}, False),
    ])
    def test_length_of_width_must_hold_the_longest_value(self, target, fits):
        # a length that overflowed the width raised OverflowError while generating
        data = {"name": "t", "message_count": 3, "fields": [
            {"name": "body", **target}, {"name": "len", "kind": "length_of", "ref": "body"}]}
        if fits:
            generate(spec_from_json(data))
        else:
            with pytest.raises(SpecError, match="width 1 cannot hold the length of 'body'"):
                spec_from_json(data)

    @pytest.mark.parametrize("field, size_key", [
        ({"kind": "flags"}, "width"), ({"kind": "padding"}, "width"),
        ({"kind": "chars", "lo": 1}, "hi"), ({"kind": "payload"}, "hi")])
    def test_field_sizes_are_capped(self, tmp_path, field, size_key):
        # a padding width of 2**70 raised OverflowError while generating
        spec = {"name": "t", "message_count": 1, "fields": [{"name": "x", **field}]}
        for size in (MAX_FIELD_BYTES + 1, 2**31, 2**70):
            spec["fields"][0][size_key] = size
            with pytest.raises(SpecError, match=str(MAX_FIELD_BYTES)):
                spec_from_json(spec)
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(spec), encoding="utf-8")
            assert main(["synth", "--spec", str(path), "--out", str(tmp_path / "out")]) == 2
        spec["fields"][0][size_key] = MAX_FIELD_BYTES
        messages, _ = generate(spec_from_json(spec))
        assert len(messages[0].payload) <= MAX_FIELD_BYTES


class TestPerturb:
    def test_zero_fraction_is_identity(self):
        msgs, truth = generate(simple_spec())
        segs = perturb(truth, msgs, +1, 0.0)
        assert all(tuple(s.cuts) == truth.cuts[s.message_id] for s in segs)

    def test_full_fraction_shifts_all(self):
        from protoseg.model import GroundTruth, Message
        messages = [Message(0, bytes(8))]
        truth = GroundTruth(cuts={0: (2, 5)})
        segs = perturb(truth, messages, +1, 1.0)
        assert segs[0].cuts == (3, 6)

    def test_collision_leaves_cut_unshifted(self):
        from protoseg.model import GroundTruth, Message
        messages = [Message(0, bytes(8))]
        truth = GroundTruth(cuts={0: (2, 3)})
        segs = perturb(truth, messages, +1, 1.0)
        assert segs[0].cuts == (2, 4)

    def test_fraction_out_of_range(self):
        msgs, truth = generate(simple_spec())
        with pytest.raises(UsageError):
            perturb(truth, msgs, +1, 1.5)


class TestSpecJson:
    def test_reference_suite_shape(self):
        specs = reference_specs()
        assert sorted(specs) == ["chars", "fixed", "mixed", "nullsep",
                                 "optional", "packed"]
        assert all(s.message_count == 200 for s in specs.values())

    def test_malformed_spec_rejected(self):
        with pytest.raises(SpecError):
            spec_from_json({"name": "x"})

    @pytest.mark.parametrize("blob, message", [
        (b'{"name": "t", "fields": [', ":1:26: invalid JSON"),
        (b"\xff\xfe", ":1:1: not UTF-8 text"),
        (b'{"name": "t", "name": "u", "fields": []}', ": invalid JSON: duplicate key 'name'"),
        (b'{"name": "t", "fields": [], "message_count": 1e999}',
         "message_count must be a non-negative integer: inf"),
    ])
    def test_bad_spec_file_is_spec_error(self, tmp_path, blob, message):
        path = tmp_path / "p.json"
        path.write_bytes(blob)
        with pytest.raises(SpecError, match=re.escape(message)):
            load_spec(str(path))

    def test_load_spec_from_file(self, tmp_path):
        import json
        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "name": "t", "message_count": 20, "rng_seed": 7,
            "fields": [{"name": "magic", "kind": "const", "value": "01"},
                       {"name": "num", "kind": "uint", "width": 2, "lo": 0, "hi": 255}]}))
        assert load_spec(str(path)) == simple_spec()
