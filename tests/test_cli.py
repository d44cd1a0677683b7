import json
from importlib import resources

import pytest

from protoseg import cli
from protoseg.cli import main


@pytest.fixture
def synth_dir(tmp_path):
    """A small synthetic trace with truth and spec on disk."""
    blob = json.loads((resources.files("protoseg") / "specs" / "mixed.json").read_text())
    blob["message_count"] = 30
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(blob))
    out = tmp_path / "data"
    assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 0
    return out


def test_synth_writes_trace_and_truth(synth_dir):
    assert (synth_dir / "trace.hex").exists()
    assert (synth_dir / "truth.json").exists()
    assert len((synth_dir / "trace.hex").read_text().splitlines()) == 30


def test_segment_writes_artifacts(synth_dir, tmp_path, capsys):
    out = tmp_path / "seg"
    rc = main(["segment", "--trace", str(synth_dir / "trace.hex"),
               "--preset", "nullpca", "--no-dedupe", "--out", str(out)])
    assert rc == 0
    for name in ("segments.json", "edits.json", "clusters.json"):
        assert (out / name).exists()
    segments = json.loads((out / "segments.json").read_text())
    assert len(segments) == 30


def test_segment_rerun_is_byte_identical(synth_dir, tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    for out in (out1, out2):
        assert main(["segment", "--trace", str(synth_dir / "trace.hex"),
                     "--no-dedupe", "--out", str(out)]) == 0
    for name in ("segments.json", "edits.json", "clusters.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_evaluate_compares_pipelines(synth_dir, tmp_path, capsys):
    seg1 = tmp_path / "s1"
    main(["segment", "--trace", str(synth_dir / "trace.hex"),
          "--no-dedupe", "--out", str(seg1)])
    out = tmp_path / "eval"
    rc = main(["evaluate", "--trace", str(synth_dir / "trace.hex"), "--no-dedupe",
               "--truth", str(synth_dir / "truth.json"),
               "--segments", str(seg1 / "segments.json"), str(synth_dir / "truth.json"),
               "--out", str(out)])
    assert rc == 0
    csv_lines = (out / "comparison.csv").read_text().splitlines()
    assert csv_lines[0] == "message_id,segments,truth"
    assert csv_lines[-1].startswith("median,")
    report = json.loads((out / "report.json").read_text())
    assert report["truth"]["medians"]["fms_like"] == 1.0


def test_every_json_artifact_is_compact_in_message_id_order(synth_dir, tmp_path, capsys):
    # synth, segment and evaluate each write the compact json.dumps of the
    # artifact's value and a newline; cut maps are keyed in message-id order
    trace, seg, out = str(synth_dir / "trace.hex"), tmp_path / "seg", tmp_path / "eval"
    assert main(["segment", "--trace", trace, "--no-dedupe", "--out", str(seg)]) == 0
    assert main(["evaluate", "--trace", trace, "--no-dedupe",
                 "--truth", str(synth_dir / "truth.json"),
                 "--segments", str(seg / "segments.json"), "--out", str(out)]) == 0
    artifacts = [synth_dir / "truth.json", seg / "segments.json", seg / "edits.json",
                 seg / "clusters.json", out / "report.json"]
    for path in artifacts:
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), separators=(",", ":")) + "\n", path.name
    assert json.loads((seg / "edits.json").read_text())  # not vacuous: edits are records
    for path in artifacts[:2]:
        assert list(json.loads(path.read_text())) == [str(i) for i in range(30)]


def test_evaluate_names_files_with_colliding_directories_apart(synth_dir, tmp_path, capsys):
    # a/x/segments.json and b/x/segments.json share stem and directory name
    paths = [tmp_path / top / "x" / "segments.json" for top in ("a", "b")]
    for path in paths:
        path.parent.mkdir(parents=True)
        path.write_bytes((synth_dir / "truth.json").read_bytes())
    out = tmp_path / "eval"
    trace = ["--trace", str(synth_dir / "trace.hex"), "--no-dedupe",
             "--truth", str(synth_dir / "truth.json")]
    rc = main(["evaluate", *trace, "--segments", *map(str, paths), "--out", str(out)])
    assert rc == 0
    assert sorted(json.loads((out / "report.json").read_text())) == sorted(map(str, paths))
    header = (out / "comparison.csv").read_text().splitlines()[0].split(",")
    assert header == ["message_id", *map(str, paths)]

    rc = main(["evaluate", *trace, "--segments", str(paths[0]), str(paths[0]),
               "--out", str(tmp_path / "o2")])
    assert rc == 1
    assert "same file twice" in capsys.readouterr().err
    assert not (tmp_path / "o2").exists()


def test_inspect_prints_boundaries(synth_dir, capsys):
    rc = main(["inspect", "--trace", str(synth_dir / "trace.hex"),
               "--no-dedupe", "--limit", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3


def test_usage_errors_exit_1(tmp_path, capsys):
    assert main(["segment"]) == 1  # missing --trace
    assert main(["segment", "--trace", "x.hex", "--bogus-flag"]) == 1
    trace = tmp_path / "t.hex"
    trace.write_text("0102\n")
    assert main(["segment", "--trace", str(trace),
                 "--param", "nope=3", "--out", str(tmp_path / "o")]) == 1


def test_processing_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.pcap"
    bad.write_bytes(b"\x00" * 30)
    assert main(["segment", "--trace", str(bad), "--trace-format", "pcap",
                 "--out", str(tmp_path / "o")]) == 2
    assert main(["segment", "--trace", str(tmp_path / "missing.hex"),
                 "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("line", [b"\xff\xfe00"])
def test_non_ascii_hex_line_exits_2(tmp_path, capsys, line):
    bad = tmp_path / "bad.hex"
    bad.write_bytes(b"0a0b\n" + line + b"\n")
    assert main(["segment", "--trace", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert f"{bad}:2: non-ASCII byte" in capsys.readouterr().err


def test_utf8_hex_comment_is_accepted(tmp_path, capsys):
    trace = tmp_path / "t.hex"
    trace.write_bytes("# capture from café\n0102030405\n".encode("utf-8"))
    assert main(["inspect", "--trace", str(trace)]) == 0
    assert capsys.readouterr().out.split()[:2] == ["0", "0102030405"]


# the first two lines repeat one payload, so dedupe numbers line 3 as message 1
_REPEATING_TRACE = "0102030405060708\n0102030405060708\n01020304050607\n"


def _keyed_file_argv(command, trace, keyed, out):
    return {
        "segment": ["segment", "--trace", trace, "--base", "external",
                    "--external-segments", keyed, "--out", out],
        "evaluate": ["evaluate", "--trace", trace, "--truth", keyed,
                     "--segments", keyed, "--out", out],
        "inspect": ["inspect", "--trace", trace, "--segments", keyed],
    }[command]


@pytest.mark.parametrize("cuts", [{"0": [4], "1": [4]}, {"0": [4], "1": [4], "2": [2]}])
@pytest.mark.parametrize("command", ["segment", "evaluate", "inspect"])
def test_id_keyed_file_on_a_trace_dedupe_shortens_exits_1(tmp_path, capsys, command, cuts):
    # the file is keyed by trace line, the deduplicated messages are not
    trace, keyed, out = tmp_path / "t.hex", tmp_path / "cuts.json", tmp_path / "o"
    trace.write_text(_REPEATING_TRACE)
    keyed.write_text(json.dumps(cuts))
    argv = _keyed_file_argv(command, str(trace), str(keyed), str(out))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {keyed}") and "--no-dedupe" in captured.err
    assert captured.out == "" and not out.exists()
    # numbering every message, the file fits
    assert main([*argv, "--no-dedupe"]) == 0
    if command == "segment":
        assert list(json.loads((out / "segments.json").read_text())) == ["0", "1", "2"]


@pytest.mark.parametrize("command", ["segment", "evaluate", "inspect"])
def test_id_keyed_file_on_a_trace_dedupe_keeps_whole(tmp_path, capsys, command):
    # the repeat lies past --max-messages, so dedupe would drop nothing
    trace, keyed = tmp_path / "t.hex", tmp_path / "cuts.json"
    trace.write_text("01020304050607\n" + _REPEATING_TRACE)
    keyed.write_text(json.dumps({"0": [2], "1": [4]}))
    outs = []
    for dedupe in ([], ["--no-dedupe"]):
        out = tmp_path / f"o{len(outs)}"
        argv = _keyed_file_argv(command, str(trace), str(keyed), str(out))
        assert main([*argv, "--max-messages", "2", *dedupe]) == 0
        outs.append((capsys.readouterr().out.replace(str(out), ""),
                     sorted((p.name, p.read_bytes()) for p in out.glob("*"))))
    assert outs[0] == outs[1]


def test_param_override_applies(synth_dir, tmp_path):
    out = tmp_path / "seg"
    rc = main(["segment", "--trace", str(synth_dir / "trace.hex"), "--no-dedupe",
               "--param", "min_cluster=1000", "--out", str(out)])
    assert rc == 0
    clusters = json.loads((out / "clusters.json").read_text())
    # with an absurd minimum cluster size everything is abandoned as small
    assert clusters["roots"][0]["verdict"] in ("abandoned_small", "recursed")


def test_parser_keeps_no_values_between_calls(synth_dir):
    # main() reuses one parser, so an appended --param must not leak
    trace = ["segment", "--trace", str(synth_dir / "trace.hex")]
    first = cli._PARSER.parse_args([*trace, "--param", "min_cluster=1000", "--no-dedupe"])
    again = cli._PARSER.parse_args(trace)
    assert first.param == ["min_cluster=1000"] and first.no_dedupe
    assert again.param == [] and not again.no_dedupe


def test_external_base_segmentation(synth_dir, tmp_path):
    # feed the ground truth back in as an external base: the pipeline
    # refines from it instead of running a built-in segmenter
    out = tmp_path / "seg"
    rc = main(["segment", "--trace", str(synth_dir / "trace.hex"), "--no-dedupe",
               "--base", "external", "--external-segments", str(synth_dir / "truth.json"),
               "--out", str(out)])
    assert rc == 0
    assert (out / "segments.json").exists()
    rc = main(["segment", "--trace", str(synth_dir / "trace.hex"), "--no-dedupe",
               "--base", "external", "--out", str(tmp_path / "o2")])
    assert rc == 1  # external base without a segmentation file


@pytest.mark.parametrize("base", [None, "null_bytes"])
def test_external_segments_without_external_base_exit_1(synth_dir, tmp_path, capsys, base):
    # the file would be ignored, so it is refused before any output is written
    out = tmp_path / "seg"
    rc = main(["segment", "--trace", str(synth_dir / "trace.hex"), "--preset", "nullpca",
               *(["--base", base] if base else []),
               "--external-segments", str(tmp_path / "nonexistent.json"), "--out", str(out)])
    assert rc == 1
    assert "--base external" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_applies_knobs(synth_dir, tmp_path):
    cfg = tmp_path / "knobs.conf"
    cfg.write_text("# pipeline knobs\nmin_cluster = 1000\nchunk = 2\n")
    out = tmp_path / "seg"
    rc = main(["segment", "--trace", str(synth_dir / "trace.hex"), "--no-dedupe",
               "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    clusters = json.loads((out / "clusters.json").read_text())
    assert clusters["roots"][0]["verdict"] in ("abandoned_small", "recursed")


def test_config_file_rejects_unknown_names(synth_dir, tmp_path, capsys):
    cfg = tmp_path / "knobs.conf"
    cfg.write_text("warp_factor=9\n")
    rc = main(["segment", "--trace", str(synth_dir / "trace.hex"), "--no-dedupe",
               "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 1


def test_message_limit_guard(tmp_path, capsys):
    trace = tmp_path / "big.hex"
    trace.write_text("".join(f"{i:08x}\n" for i in range(2001)))
    rc = main(["segment", "--trace", str(trace), "--no-dedupe",
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "--force" in capsys.readouterr().err


def test_out_dir_from_environment(synth_dir, tmp_path, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv("PROTOSEG_OUT", str(target))
    rc = main(["segment", "--trace", str(synth_dir / "trace.hex"), "--no-dedupe"])
    assert rc == 0
    assert (target / "segments.json").exists()


@pytest.mark.parametrize("override", ["min_cluster=abc", "max_depth=inf",
                                      "min_cluster=2.7", "delta_min=nan"])
def test_bad_param_values_exit_1(synth_dir, tmp_path, capsys, override):
    rc = main(["segment", "--trace", str(synth_dir / "trace.hex"), "--no-dedupe",
               "--param", override, "--out", str(tmp_path / "o")])
    assert rc == 1
    name = override.split("=")[0]
    assert f"parameter '{name}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_bad_config_value_exit_1(synth_dir, tmp_path, capsys):
    cfg = tmp_path / "knobs.conf"
    cfg.write_text("chunk = 1e400\n")
    rc = main(["segment", "--trace", str(synth_dir / "trace.hex"), "--no-dedupe",
               "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "parameter 'chunk'" in capsys.readouterr().err


def test_integral_float_accepted_for_integer_param(synth_dir, tmp_path):
    out = tmp_path / "seg"
    rc = main(["segment", "--trace", str(synth_dir / "trace.hex"), "--no-dedupe",
               "--param", "min_cluster=1000.0", "--out", str(out)])
    assert rc == 0
    clusters = json.loads((out / "clusters.json").read_text())
    assert clusters["roots"][0]["verdict"] in ("abandoned_small", "recursed")


@pytest.mark.parametrize("override", ["chunk=0", "max_depth=-1", "char_min_run=0",
                                      "distinct_min_messages=-3", "sigma=0", "sigma=-0.5",
                                      "entropy_floor=1.5", "entropy_diff=-0.1",
                                      "distinct_min_fraction=2"])
def test_out_of_range_knobs_exit_1(synth_dir, tmp_path, capsys, override):
    rc = main(["segment", "--trace", str(synth_dir / "trace.hex"), "--no-dedupe",
               "--preset", "nemepca", "--param", override, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert override.split("=")[0] in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_knob_range_edges_accepted(synth_dir, tmp_path):
    rc = main(["segment", "--trace", str(synth_dir / "trace.hex"), "--no-dedupe",
               "--preset", "nemepca", "--out", str(tmp_path / "o"),
               "--param", "max_depth=0", "--param", "chunk=1", "--param", "entropy_floor=1",
               "--param", "entropy_diff=0", "--param", "distinct_min_fraction=0"])
    assert rc == 0


# JSON inputs that are not JSON, or not UTF-8, end in one line on stderr
_BAD_JSON = {"truncated": (b'{"0": [1', ":1:9: invalid JSON"),
             "utf16_bom": (b"\xff\xfe", ":1:1: not UTF-8 text")}


def _json_commands(synth_dir, bad, out):
    trace = ["--trace", str(synth_dir / "trace.hex"), "--no-dedupe"]
    truth = str(synth_dir / "truth.json")
    return {
        "inspect": ["inspect", *trace, "--segments", bad],
        "evaluate_truth": ["evaluate", *trace, "--truth", bad, "--segments", truth, "--out", out],
        "evaluate_segments": ["evaluate", *trace, "--truth", truth, "--segments", bad,
                              "--out", out],
        "segment_external": ["segment", *trace, "--base", "external",
                             "--external-segments", bad, "--out", out],
        "synth": ["synth", "--spec", bad, "--out", out],
    }


@pytest.mark.parametrize("command", ["inspect", "evaluate_truth", "evaluate_segments",
                                     "segment_external", "synth"])
@pytest.mark.parametrize("kind", sorted(_BAD_JSON))
def test_malformed_json_input_exits_2(synth_dir, tmp_path, capsys, command, kind):
    blob, where = _BAD_JSON[kind]
    bad = tmp_path / "bad.json"
    bad.write_bytes(blob)
    argv = _json_commands(synth_dir, str(bad), str(tmp_path / "o"))[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}{where}")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_non_utf8_config_file_exits_1(synth_dir, tmp_path, capsys):
    cfg = tmp_path / "knobs.conf"
    cfg.write_bytes(b"\xff=1\n")
    rc = main(["segment", "--trace", str(synth_dir / "trace.hex"), "--no-dedupe",
               "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {cfg}: not UTF-8 text\n"


@pytest.mark.parametrize("body, message", [
    ('{"1_0": [1]}', "$.1_0: key is not a decimal message id"),
    ('{" 0": [1]}', "$. 0: key is not a decimal message id"),
    ('{"\\uff10": [1]}', "$.０: key is not a decimal message id"),
    ('{"-1": [1]}', "$.-1: key is not a decimal message id"),
    ('{"7": [1], "07": [2]}', "$.07: keys '7' and '07' both name message 7"),
    ('{"7": [1], "7": [2]}', "invalid JSON: duplicate key '7'"),
])
def test_message_id_keys_are_ascii_decimal_and_distinct(synth_dir, tmp_path, capsys,
                                                         body, message):
    seg = tmp_path / "s.json"
    seg.write_text(body, encoding="utf-8")
    rc = main(["inspect", "--trace", str(synth_dir / "trace.hex"), "--no-dedupe",
               "--segments", str(seg)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {seg}: {message}\n"


@pytest.mark.parametrize("port", ["-1", "65536", "70000"])
def test_port_outside_range_exits_1(synth_dir, tmp_path, capsys, port):
    rc = main(["segment", "--trace", str(synth_dir / "trace.hex"), "--port", port,
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: port {port} is outside 0-65535\n"
    assert not (tmp_path / "o").exists()


def test_port_range_edges_accepted(synth_dir, tmp_path):
    for port in ("0", "65535"):
        assert main(["inspect", "--trace", str(synth_dir / "trace.hex"), "--port", port]) == 0


def test_negative_inspect_limit_exits_1(synth_dir, capsys):
    assert main(["inspect", "--trace", str(synth_dir / "trace.hex"), "--limit", "-1"]) == 1
    assert capsys.readouterr() == ("", "error: --limit must be non-negative, got -1\n")
    assert main(["inspect", "--trace", str(synth_dir / "trace.hex"), "--limit", "0"]) == 0


def test_min_cluster_one_exits_1(tmp_path, capsys):
    trace = tmp_path / "t.hex"
    trace.write_text("6162\n6162\n616263646566676869\n")
    args = ["segment", "--trace", str(trace), "--no-dedupe", "--out", str(tmp_path / "o")]
    assert main([*args, "--param", "min_cluster=1"]) == 1
    assert capsys.readouterr() == ("", "error: min_cluster must be at least 2, got 1\n")
    assert not (tmp_path / "o").exists()
    assert main([*args, "--param", "min_cluster=2"]) == 0


def test_negative_synth_messages_exits_1(tmp_path, capsys):
    spec = str(resources.files("protoseg") / "specs" / "mixed.json")
    assert main(["synth", "--spec", spec, "--messages", "-3", "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr() == ("", "error: --messages must be non-negative, got -3\n")
    assert not (tmp_path / "o").exists()
    assert main(["synth", "--spec", spec, "--messages", "0", "--out", str(tmp_path / "o")]) == 0
