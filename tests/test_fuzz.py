"""Random payloads through both presets, damaged input files, random JSON trees.

Whatever the trace, the pipeline returns one segmentation per message
whose cuts are strictly interior offsets, or raises a ProtosegError;
any other exception is a bug.  Whatever the bytes of a capture or
hex-line file, loading it returns messages or raises an IngestionError.
Whatever the JSON value, the artifact writer writes the text of
`json.dumps(obj, indent=1)`.
"""

import json


import pytest
from test_traceio import build_pcap, eth_ipv4_udp

from protoseg.model import IngestionError, Message, ProtosegError
from protoseg.refine import PRESETS, preset, run_pipeline
from protoseg.traceio import (FORMAT_HEXLINES, FORMAT_PCAP, LAYER_RAW, LAYER_TCP,
                              LAYER_UDP, TraceSpec, load_trace, write_json_atomic)

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
    try:
        result = run_pipeline(messages, preset(name))
    except ProtosegError:
        return
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


# JSON trees: strings that look like the separators and record
# boundaries the writer fixes up, every scalar kind, empty containers

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


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(obj=_JSON)
def test_json_writer_matches_indented_dumps(fuzz_dir, obj):
    path = fuzz_dir / "tree.json"
    write_json_atomic(str(path), obj)
    assert path.read_text(encoding="utf-8") == (
        json.dumps(obj, indent=1, separators=(",", ": ")) + "\n")
