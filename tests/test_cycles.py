"""Every command path is free of reference cycles, and `cli.main` restores the collector.

`cli.main` runs its command with Python's cyclic garbage collector off.
That frees everything only while the program makes no reference cycles,
since reference counting alone cannot free a cycle.  Here the collector
is off around each command; `gc.collect()` runs before and after it,
and the second call must find nothing.
"""

import dataclasses
import gc
import logging
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import protoseg
from protoseg import cli, refine, synth, traceio
from protoseg.cli import main
from protoseg.model import UsageError

SPECS = sorted(synth.reference_specs())


@pytest.fixture
def collector_off():
    """The collector off for the test, the setting it had restored after."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def cyclic_garbage(argv) -> tuple:
    """(exit code, type names of the objects `gc.collect()` finds after main(argv))."""
    assert not gc.isenabled()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)  # keep what the collection finds, to name it
    try:
        code = main(argv)
        assert not gc.isenabled()
        found = gc.collect()
        names = sorted(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert found == len(names)
    return code, names


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """spec name -> (hex trace, truth file) of a small trace of every bundled spec."""
    root = tmp_path_factory.mktemp("traces")
    out = {}
    for name, spec in synth.reference_specs().items():
        messages, truth = synth.generate(dataclasses.replace(spec, message_count=80))
        trace, truth_path = root / f"{name}.hex", root / f"{name}.truth.json"
        traceio.save_hexlines(str(trace), messages)
        traceio.save_ground_truth(str(truth_path), truth)
        out[name] = str(trace), str(truth_path)
    return out


@pytest.mark.parametrize("preset", sorted(refine.PRESETS))
@pytest.mark.parametrize("spec", SPECS)
def test_segment_leaves_no_cyclic_garbage(traces, tmp_path, collector_off, spec, preset):
    trace, _ = traces[spec]
    argv = ["segment", "--trace", trace, "--preset", preset, "--no-dedupe",
            "--out", str(tmp_path)]
    assert cyclic_garbage(argv) == (0, [])
    assert (tmp_path / "clusters.json").exists()


def test_external_base_leaves_no_cyclic_garbage(traces, tmp_path, collector_off):
    trace, truth = traces["mixed"]
    argv = ["segment", "--trace", trace, "--no-dedupe", "--base", "external",
            "--external-segments", truth, "--out", str(tmp_path)]
    assert cyclic_garbage(argv) == (0, [])


def test_isolated_pass_failure_leaves_no_cyclic_garbage(traces, tmp_path, collector_off,
                                                        monkeypatch, caplog):
    # split_fixed refuses one message: the pass runs again one message at a
    # time, logs that message's failure and keeps its cuts
    split_fixed, victim = refine.split_fixed, 3

    def failing(trace, *knobs):
        if victim in trace.ids.tolist():
            raise UsageError(f"refused message {victim}")
        return split_fixed(trace, *knobs)

    monkeypatch.setattr(refine, "split_fixed", failing)
    trace, _ = traces["mixed"]
    argv = ["segment", "--trace", trace, "--no-dedupe", "--out", str(tmp_path)]
    with caplog.at_level(logging.WARNING, logger="protoseg"):
        assert cyclic_garbage(argv) == (0, [])
    assert [r.getMessage() for r in caplog.records] == [
        f"pass split_fixed failed on message {victim}: refused message {victim}"]


def test_evaluate_inspect_and_synth_leave_no_cyclic_garbage(traces, tmp_path, collector_off,
                                                            capsys):
    trace, truth = traces["chars"]
    segments = tmp_path / "seg" / "segments.json"
    assert main(["segment", "--trace", trace, "--no-dedupe",
                 "--out", str(segments.parent)]) == 0
    spec = tmp_path / "spec.json"
    spec.write_text((resources.files("protoseg") / "specs" / "chars.json").read_text())
    for argv in (
        ["evaluate", "--trace", trace, "--no-dedupe", "--truth", truth,
         "--segments", str(segments), truth, "--out", str(tmp_path / "eval")],
        ["inspect", "--trace", trace, "--no-dedupe", "--segments", str(segments)],
        ["inspect", "--trace", trace, "--limit", "3"],
        ["synth", "--spec", str(spec), "--messages", "40", "--out", str(tmp_path / "syn")],
    ):
        assert cyclic_garbage(argv) == (0, []), argv[0]
    assert (tmp_path / "eval" / "report.json").exists()
    assert (tmp_path / "syn" / "trace.hex").exists()


def test_commands_leave_numpy_ma_unimported(traces, tmp_path):
    # importing numpy.ma leaves cyclic garbage, which a command run with
    # the collector off keeps; np.unique and np.percentile import it on
    # their first call.  A fresh interpreter, since this one may hold it.
    trace, truth = traces["chars"]
    argvs = [["segment", "--trace", trace, "--no-dedupe", "--preset", name,
              "--out", str(tmp_path / name)] for name in sorted(refine.PRESETS)]
    argvs.append(["evaluate", "--trace", trace, "--no-dedupe", "--truth", truth, "--segments",
                  *(os.path.join(argv[-1], "segments.json") for argv in argvs),
                  "--out", str(tmp_path / "eval")])
    script = (f"import sys\nfrom protoseg.cli import main\n"
              f"for argv in {argvs!r}:\n    assert main(argv) == 0, argv\n"
              "print('numpy.ma' in sys.modules)")
    src = str(Path(protoseg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    assert out.splitlines()[-1] == "False"


def test_error_exits_leave_no_cyclic_garbage(traces, tmp_path, collector_off, capsys):
    trace, _ = traces["mixed"]
    assert cyclic_garbage(["segment", "--trace", trace, "--param", "nope=3",
                           "--out", str(tmp_path)]) == (1, [])
    assert cyclic_garbage(["segment", "--trace", str(tmp_path / "missing.hex"),
                           "--out", str(tmp_path)]) == (2, [])


class TestCollectorToggle:
    """The command runs with the collector off; main gives back the caller's setting."""

    @pytest.fixture(params=[True, False], ids=["caller_on", "caller_off"])
    def caller(self, request):
        enabled = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        try:
            yield request.param
        finally:
            (gc.enable if enabled else gc.disable)()

    @pytest.fixture
    def seen(self, monkeypatch):
        """The collector setting each `inspect` command ran under."""
        seen, inspect = [], cli._COMMANDS["inspect"]

        def recording(args):
            seen.append(gc.isenabled())
            return inspect(args)

        monkeypatch.setitem(cli._COMMANDS, "inspect", recording)
        return seen

    def test_exit_0(self, traces, caller, seen, capsys):
        assert main(["inspect", "--trace", traces["mixed"][0], "--limit", "1"]) == 0
        assert seen == [False] and gc.isenabled() == caller

    def test_exit_1_from_the_command(self, traces, caller, seen, capsys):
        assert main(["inspect", "--trace", traces["mixed"][0], "--limit", "-1"]) == 1
        assert seen == [False] and gc.isenabled() == caller

    def test_exit_1_from_the_parser(self, caller, seen, capsys):
        assert main(["inspect", "--bogus-flag"]) == 1
        assert seen == [] and gc.isenabled() == caller

    def test_exit_2(self, tmp_path, caller, seen, capsys):
        assert main(["inspect", "--trace", str(tmp_path / "missing.hex")]) == 2
        assert seen == [False] and gc.isenabled() == caller

    def test_unexpected_exception_propagates(self, caller, monkeypatch, capsys, tmp_path):
        def crash(args):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._COMMANDS, "inspect", crash)
        with pytest.raises(RuntimeError, match="boom"):
            main(["inspect", "--trace", str(tmp_path / "t.hex")])
        assert gc.isenabled() == caller

    def test_segment_runs_with_the_collector_off(self, traces, tmp_path, caller, monkeypatch):
        seen, run_pipeline = [], refine.run_pipeline

        def recording(*args, **kwargs):
            seen.append(gc.isenabled())
            return run_pipeline(*args, **kwargs)

        monkeypatch.setattr(refine, "run_pipeline", recording)
        assert main(["segment", "--trace", traces["mixed"][0], "--out", str(tmp_path)]) == 0
        assert seen == [False] and gc.isenabled() == caller
