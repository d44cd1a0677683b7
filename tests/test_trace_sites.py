"""The call sites the benchmark's traced run wraps stay reachable by name.

`perfbench/tracing.py` replaces each `(module, attribute)` of its
`SITES` with a timing wrapper set on `protoseg.<module>`, and a traced
run fails when a site is gone or records no span.  So every site stays a
callable module attribute, and `run_pipeline` looks its passes up in the
`refine` namespace when it calls them: a pass table bound at import
would call around the wrapper.  Each static pass is one call per
trace, and a pass that fails on a message logs the warning the tracer
counts as `refine.pass_failures`.  The tracing module is loaded from
its file; nothing in it is changed.  Its `Tracer` is installed here
around a whole `segment` run, as the benchmark's traced passes install
it, so a change that leaves a site unreached or feeds a count hook
something else fails here, not only in the benchmark.

The pca pass clusters byte strings and keeps positions in its layout,
so `run_pipeline` builds no per-segment record: it splits no message
with `segments_of`, and a member is a segment index that only the
cluster tree holds; that is checked too.  So is the one layout of the cuts the whole chain shares: `run_pipeline`
joins the trace once, every static pass maps a `JoinedTrace` to a
`JoinedTrace`, and the only `Segmentation`s are the base segmenter's
and the result's.
"""

import dataclasses
import importlib
import importlib.util
import logging
from collections import Counter
from pathlib import Path

import pytest

from protoseg import cli, cluster, dissim, evaluate, model, refine, rules, synth, traceio
from protoseg.model import UsageError

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
SITES = [site for sites, _ in tracing.SITES.values() for site in sites]


def test_every_site_is_a_callable_module_attribute():
    assert len(SITES) > 20
    for module, attr in SITES:
        fn = getattr(importlib.import_module(f"protoseg.{module}"), attr, None)
        assert callable(fn), f"protoseg.{module}.{attr}"


def _trace():
    spec = dataclasses.replace(synth.reference_specs()["mixed"], message_count=150, rng_seed=1)
    return synth.generate(spec)[0]


def _count_calls(monkeypatch, attrs) -> Counter:
    """Replace each refine attribute by a wrapper that counts its calls."""
    calls = Counter()

    def counting(attr, fn):
        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return fn(*args, **kwargs)
        return wrapper

    for attr in attrs:
        monkeypatch.setattr(refine, attr, counting(attr, getattr(refine, attr)))
    return calls


@pytest.mark.parametrize("name", sorted(refine.PRESETS))
def test_run_pipeline_calls_the_wrapped_refine_sites(monkeypatch, name):
    messages = _trace()
    # the per-leaf sites are expected too: this trace has interpretable leaves
    expected = {attr for module, attr in SITES
                if module == "refine" and attr != "run_pipeline"
                and f"refine.{attr}" not in tracing.UNREACHED[name]}
    assert {"crop_chars", "crop_distinct", "split_fixed", "recursive_cluster",
            "cluster_edits", "apply_edits"} <= expected
    calls = _count_calls(monkeypatch, expected)
    refine.run_pipeline(messages, refine.preset(name))
    assert {attr for attr in expected if calls[attr]} == expected


@pytest.mark.parametrize("name", sorted(refine.PRESETS))
def test_run_pipeline_calls_each_static_pass_once(monkeypatch, name):
    # each static pass maps the whole trace in one call, not one call per message
    static = [attr for _, attr in tracing.SITES["refine.static_s"][0]]
    calls = _count_calls(monkeypatch, static)
    refine.run_pipeline(_trace(), refine.preset(name))
    assert dict(calls) == {attr: 1 for attr in static
                           if f"refine.{attr}" not in tracing.UNREACHED[name]}


def test_a_pass_failing_on_one_message_leaves_the_others(monkeypatch, caplog):
    messages = _trace()
    passes = (refine.PASS_ENTROPY_MERGE, refine.PASS_NULL_REFINE)
    before = refine.run_pipeline(messages, refine.Pipeline("bit_congruence", passes))
    pipeline = refine.Pipeline("bit_congruence", passes + (refine.PASS_CROP_CHARS,))
    clean = refine.run_pipeline(messages, pipeline)
    # a message that crop_chars changes
    victim = next(m.id for m, old, new in zip(messages, before.segmentations,
                                              clean.segmentations) if old.cuts != new.cuts)

    crop_chars, sizes = refine.crop_chars, []

    def failing(trace, *knobs):
        sizes.append(trace.ids.size)
        if victim in trace.ids.tolist():
            raise UsageError(f"refused message {victim}")
        return crop_chars(trace, *knobs)

    monkeypatch.setattr(refine, "crop_chars", failing)
    tracer = tracing.Tracer()
    logger = logging.getLogger(tracing.PACKAGE)
    logger.addHandler(tracer._log_handler)
    try:
        with caplog.at_level(logging.WARNING, logger=tracing.PACKAGE):
            result = refine.run_pipeline(messages, pipeline)
    finally:
        logger.removeHandler(tracer._log_handler)

    # the whole trace once, then the same function on one message at a time
    assert sizes == [len(messages)] + [1] * len(messages)
    for m, seg, old, new in zip(messages, result.segmentations,
                                before.segmentations, clean.segmentations):
        assert seg.cuts == (old.cuts if m.id == victim else new.cuts)
    assert result.edits == [e for e in clean.edits
                            if (e.message_id, e.provenance) != (victim, refine.PASS_CROP_CHARS)]
    failures = [r.getMessage() for r in caplog.records if r.getMessage().startswith("pass ")]
    assert failures == [f"pass crop_chars failed on message {victim}: refused message {victim}"]
    assert tracer.counts[tracer.pass_id]["refine.pass_failures"] == 1


@pytest.mark.parametrize("name", sorted(refine.PRESETS))
def test_the_tracer_covers_a_traced_segment_run(tmp_path, name):
    # what a traced benchmark pass checks: no site is absent, every site
    # the preset reaches records a span, and the count hooks read the
    # arguments and results they expect
    hex_path, out = tmp_path / "mixed.hex", tmp_path / "out"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        spec = dataclasses.replace(synth.reference_specs()["mixed"], message_count=150,
                                   rng_seed=1)
        messages, truth = synth.generate(spec)
        traceio.save_hexlines(str(hex_path), messages)
        assert cli.main(["segment", "--trace", str(hex_path), "--preset", name,
                         "--no-dedupe", "--out", str(out)]) == 0
        segmentations = traceio.load_segmentation(str(out / "segments.json"), messages)
        evaluate.score_trace(segmentations, truth, messages)
    finally:
        tracer.uninstall()
    base, passes = refine.PRESETS[name]
    before_pca = refine.Pipeline(base, passes[:passes.index(refine.PASS_PCA)])
    clustered = sum(len(seg.cuts) + 1
                    for seg in refine.run_pipeline(messages, before_pca).segmentations)
    counts = tracer.counts[tracer.pass_id]
    assert tracer.absent == []
    assert counts[tracing.INTERPRETABLE] > 0  # so the per-leaf sites are expected too
    assert tracing.expected_sites({name}, counts[tracing.INTERPRETABLE]) - tracer.reached() \
        == set()
    assert counts["refine.segments_clustered"] == clustered
    assert counts["dissim.pairwise_segments"] >= counts["dissim.pairwise_unique"] > 0
    assert counts["rules.edits_proposed"] >= counts["rules.edits_applied"] > 0


@pytest.mark.parametrize("name", sorted(refine.PRESETS))
@pytest.mark.parametrize("spec", sorted(synth.reference_specs()))
def test_run_pipeline_builds_no_segment_ref(monkeypatch, spec, name):
    # the per-segment record and the overlay's copy of the members are
    # gone: no message is split per segment, every member is an index
    # into the clustered layout's segments, and an overlay holds only
    # one shift per member of its leaf
    split, segments_of = [], model.segments_of
    monkeypatch.setattr(model, "segments_of",
                        lambda seg, msg: split.append(seg) or segments_of(seg, msg))
    messages, _ = synth.generate(dataclasses.replace(synth.reference_specs()[spec],
                                                     message_count=60, rng_seed=3))
    model.segments_of(model.Segmentation(messages[0].id, ()), messages[0])
    assert len(split) == 1  # the counter sees a call
    split.clear()
    result = refine.run_pipeline(messages, refine.preset(name))
    assert result.tree is not None and result.edits
    assert split == []
    assert not any(hasattr(module, "segments_of") for module in (refine, rules, cluster, dissim))
    segments = result.trace.edges.size - 1
    for leaf in (leaf for root in result.tree for leaf in root.leaves()):
        assert all(type(m) is int and 0 <= m < segments for m in leaf.members)
        if leaf.overlay is not None:
            assert len(leaf.overlay.shifts) == len(leaf.members)


@pytest.mark.parametrize("name", sorted(refine.PRESETS))
@pytest.mark.parametrize("spec", sorted(synth.reference_specs()))
def test_run_pipeline_keeps_one_layout(monkeypatch, spec, name):
    messages, _ = synth.generate(dataclasses.replace(synth.reference_specs()[spec],
                                                     message_count=60, rng_seed=3))
    built, calls, check = [], Counter(), model.Segmentation.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    def layout_in_and_out(attr, fn):
        def wrapper(trace, *knobs):
            assert isinstance(trace, refine.JoinedTrace), attr
            out = fn(trace, *knobs)
            assert isinstance(out, refine.JoinedTrace), attr
            calls[attr] += 1
            return out
        return wrapper

    static = [attr for _, attr in tracing.SITES["refine.static_s"][0]]
    for attr in static:
        monkeypatch.setattr(refine, attr, layout_in_and_out(attr, getattr(refine, attr)))
    joins = _count_calls(monkeypatch, ["join_trace"])
    monkeypatch.setattr(model.Segmentation, "__post_init__", counted)
    result = refine.run_pipeline(messages, refine.preset(name))
    assert result.tree is not None and result.edits
    assert len(built) == 2 * len(messages)  # the base segmenter's and the result's
    assert joins == {"join_trace": 1}
    assert {attr for attr in static if calls[attr]} == \
        {attr for attr in static if f"refine.{attr}" not in tracing.UNREACHED[name]}
