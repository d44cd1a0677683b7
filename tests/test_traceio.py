import json
import os
import stat
import struct

import numpy as np
import pytest

from protoseg.model import GroundTruth, IngestionError, Message, Segmentation, UsageError
from protoseg.traceio import (TraceSpec, load_ground_truth, load_segmentation,
                              load_trace, save_ground_truth, save_hexlines,
                              save_segmentation, sniff_format, write_json_atomic,
                              write_text_atomic)


def build_pcap(frames, order="<", nanos=False, linktype=1):
    """Independent classic-pcap writer used as the parse oracle."""
    magic = 0xA1B23C4D if nanos else 0xA1B2C3D4
    blob = struct.pack(order + "IHHiIII", magic, 2, 4, 0, 0, 65535, linktype)
    for i, frame in enumerate(frames):
        blob += struct.pack(order + "IIII", 1000 + i, 0, len(frame), len(frame))
        blob += frame
    return blob


def eth_ipv4_udp(payload, sport=1234, dport=5678):
    udp = struct.pack(">HHHH", sport, dport, 8 + len(payload), 0) + payload
    total = 20 + len(udp)
    ip = struct.pack(">BBHHHBBH4s4s", 0x45, 0, total, 1, 0, 64, 17, 0,
                     bytes([10, 0, 0, 1]), bytes([10, 0, 0, 2])) + udp
    return b"\xaa" * 6 + b"\xbb" * 6 + b"\x08\x00" + ip


def eth_ipv4_tcp(payload, sport=1234, dport=80):
    tcp = struct.pack(">HHIIBBHHH", sport, dport, 1, 1, 5 << 4, 0x18, 1024, 0, 0) + payload
    total = 20 + len(tcp)
    ip = struct.pack(">BBHHHBBH4s4s", 0x45, 0, total, 2, 0, 64, 6, 0,
                     bytes([10, 0, 0, 1]), bytes([10, 0, 0, 2])) + tcp
    return b"\xaa" * 6 + b"\xbb" * 6 + b"\x08\x00" + ip


ARP_FRAME = b"\xff" * 6 + b"\xaa" * 6 + b"\x08\x06" + b"\x00" * 28


class TestPcap:
    @pytest.mark.parametrize("order", ["<", ">"])
    @pytest.mark.parametrize("nanos", [False, True])
    def test_udp_payloads_roundtrip(self, tmp_path, order, nanos):
        payloads = [b"\x00\x08", b"\x00\x09\x10"]
        frames = [eth_ipv4_udp(p) for p in payloads]
        path = tmp_path / "t.pcap"
        path.write_bytes(build_pcap(frames, order=order, nanos=nanos))
        msgs = load_trace(TraceSpec(str(path), format="pcap", layer="udp_payload"))
        assert [m.payload for m in msgs] == payloads
        assert msgs[0].source.endswith("frame 1")

    def test_tcp_payloads(self, tmp_path):
        path = tmp_path / "t.pcap"
        path.write_bytes(build_pcap([eth_ipv4_tcp(b"GET /")]))
        msgs = load_trace(TraceSpec(str(path), format="pcap", layer="tcp_payload"))
        assert [m.payload for m in msgs] == [b"GET /"]

    def test_port_filter(self, tmp_path):
        frames = [eth_ipv4_udp(b"\x01", dport=53), eth_ipv4_udp(b"\x02", dport=99)]
        path = tmp_path / "t.pcap"
        path.write_bytes(build_pcap(frames))
        msgs = load_trace(TraceSpec(str(path), format="pcap", layer="udp_payload", port=53))
        assert [m.payload for m in msgs] == [b"\x01"]

    def test_arp_only_capture_yields_nothing(self, tmp_path):
        path = tmp_path / "t.pcap"
        path.write_bytes(build_pcap([ARP_FRAME]))
        assert load_trace(TraceSpec(str(path), format="pcap")) == []

    def test_unknown_magic_rejected(self, tmp_path):
        path = tmp_path / "t.pcap"
        path.write_bytes(b"\x0a\x0d\x0d\x0a" + bytes(20))
        with pytest.raises(IngestionError, match="magic"):
            load_trace(TraceSpec(str(path), format="pcap"))

    def test_truncated_record_names_frame(self, tmp_path):
        blob = build_pcap([eth_ipv4_udp(b"\x01")])
        path = tmp_path / "t.pcap"
        path.write_bytes(blob[:-3])
        with pytest.raises(IngestionError, match="frame 1"):
            load_trace(TraceSpec(str(path), format="pcap"))

    @pytest.mark.parametrize("snaplen, claimed", [(65535, 0xFFFFFFFF), (65535, 262145),
                                                  (300000, 300001)])
    def test_oversized_record_refused_before_it_is_read(self, tmp_path, snaplen, claimed):
        # no frame data follows: the claim alone is refused, not read into memory
        blob = bytearray(build_pcap([]) + struct.pack("<IIII", 0, 0, claimed, claimed))
        blob[16:20] = struct.pack("<I", snaplen)
        path = tmp_path / "t.pcap"
        path.write_bytes(bytes(blob))
        with pytest.raises(IngestionError, match=f"frame 1 claims {claimed} bytes"):
            load_trace(TraceSpec(str(path), format="pcap"))

    @pytest.mark.parametrize("snaplen, size", [(65535, 262144), (300000, 300000)])
    def test_record_up_to_snaplen_or_libpcap_limit_loads(self, tmp_path, snaplen, size):
        blob = bytearray(build_pcap([bytes(size)]))
        blob[16:20] = struct.pack("<I", snaplen)
        path = tmp_path / "t.pcap"
        path.write_bytes(bytes(blob))
        msgs = load_trace(TraceSpec(str(path), format="pcap", layer="raw_frame"))
        assert [len(m.payload) for m in msgs] == [size]

    def test_non_ethernet_link_rejected(self, tmp_path):
        path = tmp_path / "t.pcap"
        path.write_bytes(build_pcap([], linktype=101))
        with pytest.raises(IngestionError, match="link type"):
            load_trace(TraceSpec(str(path), format="pcap"))

    def test_raw_frame_layer(self, tmp_path):
        path = tmp_path / "t.pcap"
        path.write_bytes(build_pcap([ARP_FRAME]))
        msgs = load_trace(TraceSpec(str(path), format="pcap", layer="raw_frame"))
        assert msgs[0].payload == ARP_FRAME

    def test_missing_file(self):
        with pytest.raises(IngestionError):
            load_trace(TraceSpec("/nonexistent.pcap", format="pcap"))


class TestHexlines:
    def test_dedupe(self, tmp_path):
        path = tmp_path / "t.hex"
        path.write_text("0008\n0009\n0008\n")
        msgs = load_trace(TraceSpec(str(path)))
        assert [m.payload for m in msgs] == [b"\x00\x08", b"\x00\x09"]
        assert [m.id for m in msgs] == [0, 1]

    def test_dedupe_off_keeps_duplicates(self, tmp_path):
        path = tmp_path / "t.hex"
        path.write_text("0008\n0008\n")
        msgs = load_trace(TraceSpec(str(path), dedupe=False))
        assert len(msgs) == 2

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "t.hex"
        path.write_text("# header\n\n00 08  # spaced bytes\n")
        msgs = load_trace(TraceSpec(str(path)))
        assert [m.payload for m in msgs] == [b"\x00\x08"]

    def test_comment_may_hold_any_text(self, tmp_path):
        path = tmp_path / "t.hex"
        path.write_bytes("# capture from café\n0102030405  # ∑\n".encode("utf-8"))
        msgs = load_trace(TraceSpec(str(path)))
        assert [m.payload for m in msgs] == [bytes.fromhex("0102030405")]

    def test_non_ascii_in_the_hex_part_rejected_with_line(self, tmp_path):
        path = tmp_path / "t.hex"
        path.write_bytes("# capture from café\n01é02 # note\n".encode("utf-8"))
        with pytest.raises(IngestionError, match=r"t\.hex:2: non-ASCII byte"):
            load_trace(TraceSpec(str(path)))

    def test_odd_length_rejected_with_line(self, tmp_path):
        path = tmp_path / "t.hex"
        path.write_text("0008\n009\n")
        with pytest.raises(IngestionError, match=":2"):
            load_trace(TraceSpec(str(path)))

    def test_max_messages(self, tmp_path):
        path = tmp_path / "t.hex"
        path.write_text("01\n02\n03\n")
        msgs = load_trace(TraceSpec(str(path), max_messages=2))
        assert len(msgs) == 2

    def test_spec_validation(self):
        with pytest.raises(UsageError):
            TraceSpec("x", layer="raw_frame", port=53)
        with pytest.raises(UsageError):
            TraceSpec("x", max_messages=0)

    def test_sniff(self):
        assert sniff_format("a.pcap") == "pcap"
        assert sniff_format("a.hex") == "hexlines"


class TestGroundTruthJson:
    def _trace(self, tmp_path):
        path = tmp_path / "t.hex"
        path.write_text("001122334455\n")
        return load_trace(TraceSpec(str(path)))

    def test_plain_cut_map(self, tmp_path):
        msgs = self._trace(tmp_path)
        path = tmp_path / "gt.json"
        path.write_text('{"0": [2, 4]}')
        truth = load_ground_truth(str(path), msgs)
        assert truth.cuts == {0: (2, 4)}

    def test_out_of_range_cut_names_message(self, tmp_path):
        msgs = self._trace(tmp_path)
        path = tmp_path / "gt.json"
        path.write_text('{"0": [9]}')
        with pytest.raises(IngestionError, match="message 0"):
            load_ground_truth(str(path), msgs)

    def test_empty_object(self, tmp_path):
        path = tmp_path / "gt.json"
        path.write_text("{}")
        truth = load_ground_truth(str(path))
        assert truth.cuts == {}

    def test_field_record_form(self, tmp_path):
        # keys other than start and end, a field type among them, are ignored
        msgs = self._trace(tmp_path)
        path = tmp_path / "gt.json"
        path.write_text(json.dumps({"0": [
            {"start": 0, "end": 2, "type": "number"},
            {"start": 2, "end": 6, "type": "widget", "note": [7]},
        ]}))
        truth = load_ground_truth(str(path), msgs)
        assert truth == GroundTruth(cuts={0: (2,)})

    @pytest.mark.parametrize("records, where, message", [
        ([{"start": 0, "end": 2, "type": "number"}, {"start": 0, "end": 2, "type": "char"},
          {"start": 5, "end": 8, "type": "pad"}], 1, "starts at 0, expected 2"),
        ([{"start": 1, "end": 6}], 0, "starts at 1, expected 0"),
        ([{"start": 0, "end": 2}, {"start": 3, "end": 6}], 1, "starts at 3, expected 2"),
        ([{"start": 0, "end": 2}, {"start": 2, "end": 2}], 1, "ends at 2, not after"),
        ([{"start": False, "end": True}], 0, "must be integers"),
        ([{"start": 0, "end": 2}, {"start": 2, "end": 5}], 1, "ends at 5, not at the payload"),
        ([{"start": 0, "end": 2}, {"start": 2, "end": True}], 1, "end: .*must be integers"),
    ])
    def test_field_records_must_tile_the_message(self, tmp_path, records, where, message):
        msgs = self._trace(tmp_path)
        path = tmp_path / "gt.json"
        path.write_text(json.dumps({"0": records}))
        for messages in (msgs,) if "payload" in message else (None, msgs):
            with pytest.raises(IngestionError, match=rf"\$\.0\[{where}\]: .*{message}"):
                load_ground_truth(str(path), messages)

    def test_field_records_end_anywhere_without_a_trace(self, tmp_path):
        path = tmp_path / "gt.json"
        path.write_text(json.dumps({"0": [{"start": 0, "end": 2}, {"start": 2, "end": 5}]}))
        assert load_ground_truth(str(path)).cuts == {0: (2,)}

    def test_bad_key_reports_json_path(self, tmp_path):
        path = tmp_path / "gt.json"
        path.write_text('{"zero": [1]}')
        with pytest.raises(IngestionError, match=r"\$\.zero"):
            load_ground_truth(str(path))

    def test_bad_element_reports_json_path(self, tmp_path):
        path = tmp_path / "gt.json"
        # a JSON true is no cut at offset 1, in either file
        for text, load in [('{"0": [1, "x"]}', load_ground_truth), ('{"0": [1, true]}', load_ground_truth),
                           ('{"0": [1, true]}', load_segmentation)]:
            path.write_text(text)
            with pytest.raises(IngestionError, match=r"\$\.0\[1\]: .*must be integers"):
                load(str(path))

    def test_each_record_builds_as_few_segmentations_as_it_can(self, tmp_path, monkeypatch):
        # a segmentation file builds one per record; ground truth builds its own, and
        # checks it against the trace without building another
        built = []
        post_init = Segmentation.__post_init__
        monkeypatch.setattr(Segmentation, "__post_init__",
                            lambda seg: built.append(seg.message_id) or post_init(seg))
        trace = tmp_path / "t.hex"
        trace.write_text("001122334455\n" "0011223344\n" "00112233\n")
        messages = load_trace(TraceSpec(str(trace)))
        path = tmp_path / "cuts.json"
        path.write_text('{"0": [2, 4], "1": [], "2": [3]}')
        for given in (None, messages):
            built.clear()
            load_segmentation(str(path), given)
            assert sorted(built) == [0, 1, 2]
            built.clear()
            load_ground_truth(str(path), given)
            assert set(built) == {0, 1, 2} and max(map(built.count, built)) <= 2


class TestSegmentationJson:
    def test_save_load_roundtrip_is_byte_identical(self, tmp_path):
        from protoseg.model import Segmentation
        segs = [Segmentation(0, (2, 4)), Segmentation(10, ()), Segmentation(2, (1,))]
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_segmentation(str(p1), segs)
        loaded = load_segmentation(str(p1))
        save_segmentation(str(p2), loaded)
        assert p1.read_bytes() == p2.read_bytes()
        assert [s.message_id for s in loaded] == [0, 2, 10]

    @pytest.mark.parametrize("cuts", ["[3, 2]", "[0, 2]", "[2, 2]"])
    def test_bad_cut_order_is_ingestion_error_with_or_without_trace(self, tmp_path, cuts):
        trace = tmp_path / "t.hex"
        trace.write_text("001122334455\n")
        path = tmp_path / "s.json"
        path.write_text(f'{{"0": {cuts}}}')
        for messages in (None, load_trace(TraceSpec(str(trace)))):
            with pytest.raises(IngestionError, match="message 0"):
                load_segmentation(str(path), messages)

    def test_unknown_message_id_rejected(self, tmp_path):
        trace = tmp_path / "t.hex"
        trace.write_text("001122334455\n")
        path = tmp_path / "s.json"
        path.write_text('{"0": [2], "7": [1]}')
        with pytest.raises(IngestionError, match="unknown message id 7"):
            load_segmentation(str(path), load_trace(TraceSpec(str(trace))))

    def test_records_rejected_in_segmentations(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text('{"0": [{"start": 0, "end": 2}]}')
        with pytest.raises(IngestionError, match="ground truth"):
            load_segmentation(str(path))

    def test_ground_truth_save_load(self, tmp_path):
        from protoseg.model import GroundTruth
        truth = GroundTruth(cuts={3: (1, 2), 0: (5,)})
        path = tmp_path / "gt.json"
        save_ground_truth(str(path), truth)
        again = load_ground_truth(str(path))
        assert again.cuts == truth.cuts

    def test_hexlines_roundtrip(self, tmp_path):
        from protoseg.model import Message
        msgs = [Message(0, b"\x00\x08"), Message(1, b"\xff")]
        path = tmp_path / "t.hex"
        save_hexlines(str(path), msgs)
        again = load_trace(TraceSpec(str(path)))
        assert [m.payload for m in again] == [m.payload for m in msgs]


def value_text(text: str) -> str:
    """Compact re-dump of the JSON value of a text: equal for equal values, key order included."""
    return json.dumps(json.loads(text), separators=(",", ":"))


class TestJsonWriter:
    """`write_json_atomic` writes exactly `json.dumps(obj, separators=(",", ":"))` and a newline.

    The file holds the same value, key order included, as the indented
    text `json.dumps(obj, indent=1)` that artifacts held before they
    became compact: the layout changed and nothing else.
    """

    @pytest.mark.parametrize("obj", [
        [], {}, [[]], [{}], {"a": []}, [[], [[{}]]], ({"a": {}},), [{"a": 1}, {}],
        [{"a": 1}, {"b": [2]}], [{"x": '"},\n {'}, {"y": 2}], {"k": ['": [', "{}"]},
        {1: 2, None: 3, True: 4, 1.5: 5, float("nan"): 6}, [-0.0, float("nan"), float("-inf")],
        "caf\u00e9", 7, None,
        # dicts of short int lists, the shape of segments.json
        {"0": [3, 5], "1": [], "2": [7]}, {"0": []}, {"0": [], "1": []}, {"a": [1], "b": []},
        {"[": [1, 2], "]": [], ",": [3], "],\n  [": [4], '",\n  [': [], "x]": [5, 6, 7]},
        {"a": {"0": [1], "1": []}, "b": [{"c": 1}], "d": [{"e": [], "f": [2]}]},
        {1: [2], None: [], 1.5: [3, 4]}, {"t": ([1, 2],)}, {"n": [True, None, "]", "[", 2.5]},
    ])
    def test_edge_values_match_indented_dumps(self, tmp_path, obj):
        path = tmp_path / "edge.json"
        write_json_atomic(str(path), obj)
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(obj, separators=(",", ":")) + "\n"
        assert value_text(text) == value_text(json.dumps(obj, indent=1))

    @pytest.mark.parametrize("obj", [{(1,): 2}, {"a": [{(1,): 1}, 2]}, {"a": object()},
                                     [[1, object()], {"b": {}}]])
    def test_unserializable_raises_type_error_and_leaves_no_file(self, tmp_path, obj):
        with pytest.raises(TypeError):
            json.dumps(obj)
        with pytest.raises(TypeError):
            write_json_atomic(str(tmp_path / "bad.json"), obj)
        assert list(tmp_path.iterdir()) == []

    def test_cyclic_value_raises_and_leaves_no_file(self, tmp_path):
        # the encoder skips its circular-reference check, so a cycle, which
        # no artifact value holds, ends in the recursion limit, not a file
        loop = []
        loop.append({"a": loop})
        with pytest.raises(RecursionError):
            write_json_atomic(str(tmp_path / "cyclic.json"), loop)
        assert list(tmp_path.iterdir()) == []


def random_cut_maps():
    """Cut maps by message id: empty, all-empty, single, unordered and multi-digit ids."""
    rng = np.random.default_rng(17)
    maps = [{}, {0: ()}, {0: (1,)}, {7: (), 3: ()}, {5: (2, 4), 0: (), 12: (1,)},
            {123456: (3, 99, 1000)}]
    for _ in range(30):
        span = 10 ** int(rng.integers(1, 6))
        ids = rng.choice(span, size=min(span, int(rng.integers(1, 40))), replace=False).tolist()
        maps.append({mid: tuple(sorted(set(rng.integers(1, 300, size=int(rng.integers(0, 7)))
                                           .tolist())))
                     for mid in ids})
    return maps


class TestCutMapWriters:
    """`save_segmentation` and `save_ground_truth` write {"<id>": [cuts]} compact, in id order.

    Ids sort as numbers, not as their key strings; the value, key order
    included, is the one the indented text of either writer held before.
    """

    @pytest.mark.parametrize("index", range(len(random_cut_maps())))
    def test_match_indented_dumps(self, tmp_path, index):
        cut_map = random_cut_maps()[index]
        ordered = {str(mid): list(cut_map[mid]) for mid in sorted(cut_map)}
        save_segmentation(str(tmp_path / "s.json"),
                          [Segmentation(mid, cuts) for mid, cuts in cut_map.items()])
        save_ground_truth(str(tmp_path / "t.json"), GroundTruth(cuts=cut_map))
        for name in ("s.json", "t.json"):
            text = (tmp_path / name).read_text(encoding="utf-8")
            assert text == json.dumps(ordered, separators=(",", ":")) + "\n"
            assert value_text(text) == value_text(json.dumps(ordered, indent=1))


class TestArtifactMode:
    """Artifacts get 0o666 less the umask, as a file made by `open` does."""

    WRITERS = {
        "text": lambda path: write_text_atomic(path, "a", "b\n"),
        "json": lambda path: write_json_atomic(path, [{"a": 1}]),
        "segments": lambda path: save_segmentation(path, [Segmentation(0, (1,))]),
        "truth": lambda path: save_ground_truth(path, GroundTruth(cuts={0: (1,)})),
        "hexlines": lambda path: save_hexlines(path, [Message(0, b"\x01\x02")]),
    }

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_mode_follows_umask(self, tmp_path, umask, mode, writer):
        path = tmp_path / "artifact"
        old = os.umask(umask)
        try:
            self.WRITERS[writer](str(path))
            first = stat.S_IMODE(path.stat().st_mode)
            self.WRITERS[writer](str(path))  # replacing an existing file
            second = stat.S_IMODE(path.stat().st_mode)
        finally:
            os.umask(old)
        assert (first, second) == (mode, mode)
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
