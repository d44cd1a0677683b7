"""Random payloads through both presets, damaged input files, random JSON trees.

Whatever the trace, the pipeline returns one segmentation per message
whose cuts are strictly interior offsets; any exception is a bug.
Whatever the bytes of a capture or hex-line file, loading it returns
messages or raises an IngestionError; so does loading a segmentation or
ground-truth file, whatever its bytes or JSON tree.  Whatever the JSON
tree of a protocol spec, `synth` exits 0, 1 or 2 and raises nothing.
"""

import json

import pytest
from test_traceio import build_pcap, eth_ipv4_udp

from protoseg.cli import main
from protoseg.model import IngestionError, Message
from protoseg.refine import PRESETS, preset, run_pipeline
from protoseg.synth import MAX_FIELD_BYTES
from protoseg.traceio import (FORMAT_HEXLINES, FORMAT_PCAP, LAYER_RAW, LAYER_TCP,
                              LAYER_UDP, TraceSpec, load_ground_truth, load_segmentation,
                              load_trace)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# bytes the base segmenters and static passes key on: nulls, text, extremes
_MARKED = st.lists(st.sampled_from([0x00, 0x00, 0x01, 0x20, 0x41, 0x7f, 0xff]),
                   min_size=1, max_size=24).map(bytes)
_BODIES = st.one_of(st.binary(min_size=1, max_size=24), _MARKED)


@st.composite
def traces(draw):
    """Messages sharing a random header, so similar segments recur and cluster."""
    header = draw(st.binary(max_size=6))
    count = draw(st.integers(1, 60))
    bodies = draw(st.lists(_BODIES, min_size=count, max_size=count))
    return [Message(i, header + body) for i, body in enumerate(bodies)]


@pytest.mark.parametrize("name", sorted(PRESETS))
@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(messages=traces())
def test_random_traces_keep_cuts_interior(name, messages):
    # a failure degrades one message or one cluster and never aborts the trace
    result = run_pipeline(messages, preset(name))
    assert [s.message_id for s in result.segmentations] == [m.id for m in messages]
    for m, s in zip(messages, result.segmentations):
        assert all(0 < c < len(m.payload) for c in s.cuts)
        assert list(s.cuts) == sorted(set(s.cuts))


# ingestion: a damaged capture or hex-line file is an IngestionError, never a traceback

_PCAP = build_pcap([eth_ipv4_udp(bytes([k]) * (k + 2), sport=1000 + k) for k in range(3)])
_HEX_BYTES = st.lists(st.sampled_from(b"0123456789abcdefABCXx #\n\r\t\x00\x7f\x80\xc3\xff"),
                      max_size=80).map(bytes)


@st.composite
def damaged_pcaps(draw):
    """The valid 3-frame capture after one to four truncations, byte flips or insertions."""
    blob = bytearray(_PCAP)
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["truncate", "flip", "insert"]))
        if kind == "truncate" and blob:
            del blob[draw(st.integers(0, len(blob) - 1)):]
        elif kind == "flip" and blob:
            blob[draw(st.integers(0, len(blob) - 1))] ^= draw(st.integers(1, 255))
        else:
            at = draw(st.integers(0, len(blob)))
            blob[at:at] = draw(st.binary(min_size=1, max_size=8))
    return bytes(blob)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def test_valid_capture_loads_on_every_layer(fuzz_dir):
    path = fuzz_dir / "valid.pcap"
    path.write_bytes(_PCAP)
    udp = load_trace(TraceSpec(str(path), format=FORMAT_PCAP, layer=LAYER_UDP))
    assert [m.payload for m in udp] == [bytes([k]) * (k + 2) for k in range(3)]
    assert load_trace(TraceSpec(str(path), format=FORMAT_PCAP, layer=LAYER_TCP)) == []
    assert len(load_trace(TraceSpec(str(path), format=FORMAT_PCAP, layer=LAYER_RAW))) == 3


@pytest.mark.parametrize("layer", [LAYER_UDP, LAYER_TCP, LAYER_RAW])
@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(blob=damaged_pcaps())
def test_damaged_capture_raises_only_ingestion_error(fuzz_dir, layer, blob):
    path = fuzz_dir / f"damaged-{layer}.pcap"
    path.write_bytes(blob)
    try:
        messages = load_trace(TraceSpec(str(path), format=FORMAT_PCAP, layer=layer))
    except IngestionError:
        return
    assert all(isinstance(m.payload, bytes) and m.payload for m in messages)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(blob=st.one_of(st.binary(max_size=80), _HEX_BYTES))
def test_random_hexline_file_raises_only_ingestion_error(fuzz_dir, blob):
    path = fuzz_dir / "random.hex"
    path.write_bytes(blob)
    try:
        messages = load_trace(TraceSpec(str(path), format=FORMAT_HEXLINES))
    except IngestionError:
        return
    assert all(isinstance(m.payload, bytes) and m.payload for m in messages)


# JSON trees: strings that look like JSON syntax, every scalar kind,
# empty containers

_TRICKY = st.sampled_from(['"},\n {', "},\n  {", '": [', "{}", "[]", ",\n ", '"', "\\",
                           "caf\u00e9", "\u2028", "\U0001f600", "\x00",
                           "[", "]", ",", "],\n  [", '",\n  [', "x]"])
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                     st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf")]),
                     st.text(max_size=6), _TRICKY)
_KEYS = st.one_of(st.text(max_size=4), _TRICKY, st.integers(-3, 3), st.floats(),
                  st.booleans(), st.none())
_RECORDS = st.lists(st.dictionaries(_KEYS, _SCALARS, min_size=1, max_size=4),
                    min_size=1, max_size=4)
# the shape of segments.json: short int lists, some empty, under any key
_LIST_MAPS = st.dictionaries(_KEYS, st.lists(st.one_of(st.integers(0, 1500), _SCALARS),
                                             max_size=5), min_size=1, max_size=6)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.tuples(inner, inner),
                            st.dictionaries(_KEYS, inner, max_size=4), _RECORDS, _LIST_MAPS),
    max_leaves=20)


# segmentation and ground-truth files: random bytes, and JSON trees of
# message-id-like keys over cut lists, field records and stray values

_ID_KEYS = st.one_of(st.integers(0, 9).map(str),
                     st.sampled_from(["07", "00", "1_0", " 0", "０", "٣", "-1", "+1",
                                      "", "1e2", "9" * 5000]),
                     st.text(max_size=4))
_CUTS = st.lists(st.one_of(st.integers(-2, 9), st.sampled_from([2 ** 70, True, 1.0, None])),
                 max_size=5)
_FIELD_RECORDS = st.lists(
    st.fixed_dictionaries({"start": st.integers(-1, 9), "end": st.integers(-1, 9)},
                          optional={"type": st.sampled_from(["char", "number", "pad", "widget",
                                                             7, None])}),
    min_size=1, max_size=4)


@st.composite
def tilings(draw):
    """Field records that tile bytes 0..end in order, sometimes with one bound changed."""
    ends = draw(st.lists(st.integers(1, 7), unique=True, min_size=1, max_size=4).map(sorted))
    records = [{"start": a, "end": b} for a, b in zip([0] + ends, ends)]
    if draw(st.booleans()):
        record = records[draw(st.integers(0, len(records) - 1))]
        record[draw(st.sampled_from(["start", "end"]))] = draw(
            st.one_of(st.integers(-1, 9), st.booleans()))
    return records


# mostly well-formed: digit keys over sorted cuts or field records
_PLAIN_CUT_MAPS = st.dictionaries(
    st.integers(0, 7).map(str),
    st.one_of(st.lists(st.integers(1, 6), unique=True, max_size=4).map(sorted), _FIELD_RECORDS,
              tilings()),
    max_size=6)
_CUT_MAPS = st.one_of(_PLAIN_CUT_MAPS, _JSON,
                      st.dictionaries(_ID_KEYS, st.one_of(_CUTS, _FIELD_RECORDS, tilings(),
                                                          _RECORDS, _JSON),
                                      max_size=6))


@st.composite
def damaged_json(draw):
    """The text of a mostly well-formed cut map, cut short or with one byte changed."""
    blob = bytearray(json.dumps(draw(_PLAIN_CUT_MAPS)).encode("utf-8"))
    if draw(st.booleans()):
        del blob[draw(st.integers(0, len(blob) - 1)):]
    else:
        blob[draw(st.integers(0, len(blob) - 1))] = draw(
            st.one_of(st.sampled_from(b"0123456789 ,"), st.integers(0, 255)))
    return bytes(blob)


@pytest.fixture(scope="module")
def fuzz_trace(fuzz_dir):
    path = fuzz_dir / "cut-maps.hex"
    path.write_text("".join(bytes(range(1, n + 2)).hex() + "\n" for n in range(6)))
    return load_trace(TraceSpec(str(path)))


def _check_cut_map_loaders(path, messages, obj=None):
    """Both loaders return checked cuts or raise an IngestionError.

    What they return has one message per key of obj, when it is an
    object, and every such key is written in ASCII decimal digits.
    """
    lengths = {m.id: len(m.payload) for m in messages or ()}
    loaded = []
    try:
        segs = load_segmentation(str(path), messages)
        loaded.append({s.message_id: s.cuts for s in segs})
        assert [s.message_id for s in segs] == sorted(loaded[0])
    except IngestionError:
        pass
    try:
        loaded.append(load_ground_truth(str(path), messages).cuts)
    except IngestionError:
        pass
    for cuts_by_id in loaded:
        for mid, cuts in cuts_by_id.items():
            assert all(0 < c < lengths.get(mid, float("inf")) for c in cuts)
        if isinstance(obj, dict):
            assert all(key.isascii() and key.isdigit() for key in json.loads(json.dumps(obj)))
            assert len(cuts_by_id) == len(obj)


@pytest.mark.parametrize("with_trace", [False, True])
@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(obj=_CUT_MAPS)
def test_random_cut_map_tree_raises_only_ingestion_error(fuzz_dir, fuzz_trace, with_trace,
                                                         obj):
    path = fuzz_dir / "cut-map.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    _check_cut_map_loaders(path, fuzz_trace if with_trace else None, obj)


@pytest.mark.parametrize("with_trace", [False, True])
@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(blob=st.one_of(st.binary(max_size=80), damaged_json()))
def test_random_cut_map_bytes_raise_only_ingestion_error(fuzz_dir, fuzz_trace, with_trace,
                                                         blob):
    path = fuzz_dir / "cut-map-bytes.json"
    path.write_bytes(blob)
    _check_cut_map_loaders(path, fuzz_trace if with_trace else None)


# protocol specs: a valid spec, sometimes with one setting replaced by a
# value of another type or range, and random JSON trees; a field's size
# is small or huge, and the largest size that loads generates a few
# messages in a moment

_SPEC_VALUES = st.one_of(st.integers(-2, 12), st.floats(-2, 12), st.none(), st.text(max_size=3),
                         st.lists(st.integers(-2, 300), max_size=3))
# values next to a valid one: a fraction, a bool, an empty or wide string
_NEAR_VALUES = st.sampled_from([0.5, 1.5, 2.5, True, False, "", "no", "\u20ac", [1.5]])
# a field size at or past synth's cap, or past what an index or memory holds
_HUGE = st.sampled_from([MAX_FIELD_BYTES, MAX_FIELD_BYTES + 1, 2**31, 2**63, 2**70])
_SETTINGS = {
    "const": {"value": st.sampled_from(["01", "0a0b"])},
    "uint": {"width": st.integers(1, 4), "lo": st.integers(0, 3), "hi": st.integers(3, 255)},
    "enum": {"values": st.lists(st.integers(0, 255), min_size=1, max_size=3)},
    "flags": {"width": st.one_of(st.integers(1, 3), _HUGE)},
    "chars": {"lo": st.integers(1, 3), "hi": st.one_of(st.integers(3, 6), _HUGE),
              "null_terminated": st.booleans(),
              "charset": st.sampled_from(["ab", "\x00\xff", "xyz0"])},
    "padding": {"width": st.one_of(st.integers(1, 3), _HUGE)},
    "length_of": {"width": st.integers(1, 2)},
    "payload": {"lo": st.integers(0, 3), "hi": st.one_of(st.integers(3, 6), _HUGE)},
}


@st.composite
def spec_trees(draw):
    """One to four valid fields, each length_of measuring the last variable field before it.

    Then one setting of a field or of the spec, or an unknown key, is set
    to a value of any JSON type or range.
    """
    fields = []
    for i in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(sorted(_SETTINGS)))
        field = {**draw(st.fixed_dictionaries(_SETTINGS[kind])), "optional": draw(st.booleans()),
                 "kind": kind, "name": f"f{i}"}
        if kind == "length_of":
            field["ref"] = next((f["name"] for f in reversed(fields)
                                 if f["kind"] in ("chars", "payload")), "f0")
        fields.append(field)
    spec = {"message_count": draw(st.integers(1, 8)), "rng_seed": draw(st.integers(0, 99)),
            "fields": fields, "name": "fuzz"}
    # one of fields + [spec], or none of them
    target = (fields + [spec, {}])[draw(st.integers(0, len(fields) + 1))]
    keys = [*target, "endianness"] if target is spec else [*target, "unknown"]
    target[draw(st.sampled_from(keys))] = draw(st.one_of(_NEAR_VALUES, _SPEC_VALUES))
    return spec


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(obj=st.one_of(spec_trees(), _JSON))
def test_random_spec_json_exits_without_raising(fuzz_dir, obj):
    path = fuzz_dir / "spec.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["synth", "--spec", str(path), "--out", str(fuzz_dir / "synth")]) in (0, 1, 2)
