"""Tests of the benchmark itself: metric coverage, output checks, tracing.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402

run._import_protoseg()

import checks  # noqa: E402
import tracing  # noqa: E402
from protoseg import cli, refine, synth, traceio  # noqa: E402

TINY = 30
# large enough that the `segment` command's fixed cost per call stays
# below the attribution check's 5 % of the traced time
TRACED = 100


with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as _fh:
    DECLARED = json.load(_fh)


def _declared(kind):
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


@pytest.fixture
def out_root(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    return tmp_path


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_end_to_end_metrics(workload, out_root):
    result = run.run_workload(workload, seed=3, seconds=0, trace=False, messages=TINY)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_PASSES
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_per_layer_metrics(workload, out_root):
    result = run.run_workload(workload, seed=3, seconds=0, trace=True, messages=TRACED)
    assert result["correct"]
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == _declared("per_layer")
    assert abs(result["metrics"]["trace.attributed_frac"]["value"] - 1.0) <= 0.05
    assert os.path.exists(out_root / workload / "spans-seed3.tsv")
    with open(out_root / workload / "result-seed3-trace1.json", encoding="utf-8") as fh:
        computed = set(json.load(fh)["layer"])
    assert computed - set(_declared("per_layer")) == {tracing.INTERPRETABLE}
    if workload == "small_sweep":  # the one workload that reaches every layer at this size
        # only a warning that was never logged may be missing from what the tracer computed
        assert set(_declared("per_layer")) - computed <= set(tracing.LOG_COUNT_NAMES)


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in DECLARED["workloads"]) == sorted(run.WORKLOADS)


def test_same_seed_same_inputs(tmp_path):
    a = run.set_up("small_sweep", 7, str(tmp_path / "a"), messages=TINY)
    b = run.set_up("small_sweep", 7, str(tmp_path / "b"), messages=TINY)
    c = run.set_up("small_sweep", 8, str(tmp_path / "c"), messages=TINY)
    payloads = [[m.payload for t in ts for m in t.messages] for ts in (a, b, c)]
    assert payloads[0] == payloads[1] != payloads[2]


@pytest.fixture
def segmented(tmp_path):
    """A tiny real `segment` run: (output dir, messages, preset, base cuts)."""
    spec = synth.reference_specs()["mixed"]
    messages, _ = synth.generate(spec)
    hex_path = str(tmp_path / "trace.hex")
    traceio.save_hexlines(hex_path, messages)
    out = tmp_path / "out"
    assert cli.main(["segment", "--trace", hex_path, "--preset", "nullpca",
                     "--no-dedupe", "--out", str(out)]) == 0
    return out, messages, "nullpca", checks.base_segmentation(messages, "nullpca")


def _check(segmented):
    out, messages, preset, base = segmented
    return checks.check_trace(str(out), messages, preset, base)[0]


def test_intact_artifacts_pass(segmented):
    assert _check(segmented) == []


def test_truncated_segments_fail(segmented):
    path = segmented[0] / "segments.json"
    path.write_text(path.read_text()[:50])
    assert any("segments.json" in f for f in _check(segmented))


def test_unparsable_clusters_fail(segmented):
    (segmented[0] / "clusters.json").write_text("[{")
    assert any("clusters.json" in f for f in _check(segmented))


def test_edit_log_missing_an_edit_fails(segmented):
    path = segmented[0] / "edits.json"
    edits = json.loads(path.read_text())
    assert edits
    path.write_text(json.dumps(edits[1:]))
    assert any("replay differs" in f or "edit " in f for f in _check(segmented))


def test_invalid_edit_fails(segmented):
    out, _, _, base = segmented
    mid = next(m for m, cuts in base.items() if cuts)
    path = out / "edits.json"
    edits = json.loads(path.read_text())
    edits.insert(0, {"message": mid, "offset": base[mid][0], "kind": "add",
                     "old_offset": None, "provenance": "test"})
    path.write_text(json.dumps(edits))
    assert any("add on existing cut" in f for f in _check(segmented))


def test_failed_call_and_changed_output_count_as_failed(segmented):
    out, messages, preset, base = segmented
    trace = run.Trace("t", "mixed", preset, 1, "", str(out), messages,
                      synth.generate(synth.reference_specs()["mixed"])[1], base)
    reference = {}
    ok = run.check_pass([trace], [0], reference)
    assert ok[0]["failures"] == []
    assert run.check_pass([trace], [2], reference)[0]["failures"]
    (out / "clusters.json").write_text("[]\n")
    assert "artifacts differ from the first pass" in \
        run.check_pass([trace], [0], reference)[0]["failures"]


def _extra_site(monkeypatch, module, attr):
    sites = dict(tracing.SITES)
    sites["traceio.write_s"] = (sites["traceio.write_s"][0] + [(module, attr)], None)
    monkeypatch.setattr(tracing, "SITES", sites)


def test_absent_site_is_reported_and_wrappers_come_off(monkeypatch):
    _extra_site(monkeypatch, "dissim", "no_such_function")
    original = refine.recursive_cluster
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert refine.recursive_cluster is not original
        assert tracer.absent == ["dissim.no_such_function"]
    finally:
        tracer.uninstall()
    assert refine.recursive_cluster is original


def _coverage_failures(out_root):
    result = run.run_workload("dup_heavy", seed=3, seconds=0, trace=True, messages=TRACED)
    with open(out_root / "dup_heavy" / "result-seed3-trace1.json", encoding="utf-8") as fh:
        failures = json.load(fh)["coverage_failures"]
    assert result["correct"] == (not failures)
    return failures


def test_absent_site_fails_the_traced_run(monkeypatch, out_root):
    _extra_site(monkeypatch, "dissim", "no_such_function")
    assert _coverage_failures(out_root) == ["absent layer function: dissim.no_such_function"]


def test_site_that_records_no_span_fails_the_traced_run(monkeypatch, out_root):
    # refine imports it by name, so the wrapper in cluster's namespace is never called
    _extra_site(monkeypatch, "cluster", "recursive_cluster")
    assert _coverage_failures(out_root) == [
        "layer function recorded no span: cluster.recursive_cluster"]


def _tracer_with(spans, call_cost=0.0):
    """A tracer holding made-up spans of pass 0: (parent, site, start, end, hook seconds)."""
    tracer = tracing.Tracer()
    tracer.call_cost = call_cost
    tracer._metric = {"cli.main": "cli.segment_self_s", "refine.run_pipeline":
                      "refine.pipeline_self_s", "dissim.dissimilarity": "dissim.dissimilarity_s"}
    tracer.spans = [[i, parent, 0, "t", site, start, end, hook]
                    for i, (parent, site, start, end, hook) in enumerate(spans)]
    return tracer


def test_self_times_leave_out_the_tracer_cost():
    tracer = _tracer_with([(None, "cli.main", 0.0, 1.0, 0.0),
                           (0, "refine.run_pipeline", 0.1, 0.9, 0.0),
                           (1, "dissim.dissimilarity", 0.2, 0.3, 0.05),
                           (1, "dissim.dissimilarity", 0.4, 0.5, 0.05)], call_cost=0.01)
    own = tracer.self_times(0)
    assert own["cli.segment_self_s"] == pytest.approx(1.0 - 0.8 - 0.01)
    assert own["refine.pipeline_self_s"] == pytest.approx(0.8 - 2 * (0.1 + 0.05 + 0.01))
    assert own["dissim.dissimilarity_s"] == pytest.approx(0.2)
    metrics = tracer.pass_metrics(0, wall_s=1.0, artifact_bytes=0)
    correction = 4 * 0.01 + 2 * 0.05  # every span's wrapper, and the two hooks
    assert metrics["trace.correction_s"] == pytest.approx(correction)
    claimed = own["refine.pipeline_self_s"] + own["dissim.dissimilarity_s"]
    assert metrics["trace.attributed_frac"] == pytest.approx(claimed / (1.0 - correction))


def test_time_left_to_the_command_fails_attribution():
    tracer = _tracer_with([(None, "cli.main", 0.0, 1.0, 0.0),
                           (0, "refine.run_pipeline", 0.1, 0.6, 0.0)])
    layer = tracer.pass_metrics(0, wall_s=1.0, artifact_bytes=0)
    failures = run.coverage_failures(tracer, {"nullpca"}, layer)
    assert any(f.startswith("attribution check") for f in failures)


def test_wrapper_cost_is_measured():
    assert 0.0 < tracing.Tracer()._measure_call_cost() < 1e-4
