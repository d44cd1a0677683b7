"""protoseg benchmark: workloads timed through the `protoseg segment` command.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dup_heavy --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each workload generates its synthetic traces from the seed, writes them
as hex-line files and runs `protoseg segment` over every trace in this
process (`cli.main([...])`), one pass after another, until the time is
up (at least MIN_PASSES passes; the run ends at the pass boundary
nearest the deadline).  Every pass's artifacts are checked
(checks.py) and scored against the generated ground truth.  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones: set-up time (the
median of several fresh processes that import protoseg and write the
inputs), the mean pass wall time, throughput, peak RSS, quality
scores and the share of checked traces.  Set-up and pass times are
scaled to a reference host speed with the calibration kernel of
speed.py; the raw times are printed and kept in the details.  With
`--trace 1` untraced and traced passes alternate and the metrics are
the per-layer ones of tracing.py, medians over the traced passes; such
a run is not correct unless the trace accounts for the program's time
(coverage_failures).  Metric names and units come from BENCHMARK.json.

Details (per-trace SHA-256 of the artifacts, per-pass times, failures,
and with tracing the spans) go to `.bench_out/<workload>/`.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

import speed
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

MIN_PASSES = 3
SETUP_PROBES = 5

PRESETS = ("nullpca", "nemepca")

# name -> (spec/preset pairs, messages per trace, needs --force); why is in BENCHMARK.json
WORKLOADS = {
    "dup_heavy": ([("mixed", "nullpca")], 1500, False),
    "unique_heavy": ([("chars", "nemepca")], 3000, True),
    "small_sweep": (None, 200, False),
}

# what each end-to-end metric means; names, units and bounds are in BENCHMARK.json
MEANING = {
    "setup_s": "fresh interpreter start until the inputs are written: import, "
               "synth.generate, hex trace; median of a run's set-up probes, each "
               "scaled to reference host speed (speed.py)",
    "wall_s": "one `segment` call over every trace of the workload: a run's mean pass time, "
              "scaled to reference host speed by its mean calibration-kernel time (speed.py)",
    "msgs_per_s": "messages segmented per pass divided by wall_s",
    "peak_rss_mb": "ru_maxrss of the run's own process (one workload per process)",
    "fms_like": "mean over the workload's traces of each trace's median fms_like",
    "near_f1": "mean over the workload's traces of each trace's median one-byte-tolerant F1",
    "passed_frac": "segment calls whose exit code and artifacts passed every check, "
                   "over calls attempted (1 - failed_frac)",
}


def declared() -> dict:
    """BENCHMARK.json of this checkout: the workloads and the metrics with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _import_protoseg():
    """Import protoseg from this checkout's src/, never from site-packages."""
    if not os.path.isfile(os.path.join(SRC, "protoseg", "__init__.py")):
        raise ImportError(f"no protoseg package under {SRC}")
    sys.path.insert(0, SRC)
    import protoseg
    import protoseg.cli  # noqa: F401  (the whole program, as `protoseg segment` loads it)
    if not os.path.abspath(protoseg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"protoseg imported from {protoseg.__file__}, not from {SRC}")


@dataclasses.dataclass
class Trace:
    """One generated trace and the preset `segment` runs on it."""

    name: str
    spec: str
    preset: str
    rng_seed: int
    hex_path: str
    out_dir: str
    messages: list
    truth: object
    base: dict = None


def _rng_seed(workload: str, spec: str, seed: int) -> int:
    return random.Random(f"{workload}/{spec}/{seed}").getrandbits(31)


def trace_plan(workload: str, messages: int = None) -> tuple:
    """(spec/preset pairs, messages per trace, force) of a workload."""
    from protoseg import synth
    pairs, count, force = WORKLOADS[workload]
    if pairs is None:
        pairs = [(spec, p) for spec in sorted(synth.reference_specs()) for p in PRESETS]
    return pairs, messages or count, force


def set_up(workload: str, seed: int, work_dir: str, messages: int = None) -> list:
    """Generate the workload's traces and write them as hex-line files."""
    from protoseg import synth, traceio
    pairs, count, _ = trace_plan(workload, messages)
    specs = synth.reference_specs()
    generated = {}
    traces = []
    for spec_name, preset in pairs:
        if spec_name not in generated:
            rng_seed = _rng_seed(workload, spec_name, seed)
            spec = dataclasses.replace(specs[spec_name], message_count=count,
                                       rng_seed=rng_seed)
            msgs, truth = synth.generate(spec)
            hex_path = os.path.join(work_dir, "inputs", f"{spec_name}.hex")
            traceio.save_hexlines(hex_path, msgs)
            generated[spec_name] = (rng_seed, hex_path, msgs, truth)
        rng_seed, hex_path, msgs, truth = generated[spec_name]
        name = f"{spec_name}-{preset}"
        traces.append(Trace(name, spec_name, preset, rng_seed, hex_path,
                            os.path.join(work_dir, "out", name), msgs, truth))
    return traces


def measure_setup(workload: str, seed: int, work_dir: str, messages: int = None) -> list:
    """Seconds from spawning a fresh interpreter until its inputs are written.

    Each probe is bracketed by calibration kernels, so the samples are
    at reference speed like the pass times.
    """
    samples = []
    kernels = [speed.kernel_seconds()]
    probe_dir = os.path.join(work_dir, "setup-probe")
    for _ in range(SETUP_PROBES):
        argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
                "--workload", workload, "--seed", str(seed), "--out", probe_dir]
        if messages:
            argv += ["--messages", str(messages)]
        start = time.time()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]) - start)
        kernels.append(speed.kernel_seconds())
    return speed.scaled(samples, kernels)


def _segment_argv(trace: Trace, force: bool) -> list:
    argv = ["segment", "--trace", trace.hex_path, "--preset", trace.preset,
            "--no-dedupe", "--out", trace.out_dir]
    return argv + ["--force"] if force else argv


def run_pass(traces: list, force: bool, tracer=None) -> tuple:
    """Run `segment` once over every trace; returns (wall seconds, exit codes)."""
    import checks
    from protoseg import cli
    for trace in traces:  # a call that writes nothing must not pass on stale files
        for name in checks.ARTIFACTS:
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(trace.out_dir, name))
    codes = []
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        for trace in traces:
            if tracer:
                tracer.trace = trace.name
            try:
                codes.append(cli.main(_segment_argv(trace, force)))
            except Exception:  # a crash fails this trace, not the benchmark
                codes.append(traceback.format_exc(limit=3))
        wall = time.perf_counter() - start
    return wall, codes


def check_pass(traces: list, codes: list, reference: dict, tracer=None) -> list:
    """Check and score every trace of a pass; returns one record per trace."""
    import checks
    from protoseg import evaluate
    records = []
    for trace, code in zip(traces, codes):
        if tracer:
            tracer.trace = trace.name
        digests = checks.artifact_digests(trace.out_dir)
        if code != 0:
            failures = [f"segment exited with {code!r}"]
            segs = None
        else:
            failures, segs = checks.check_trace(trace.out_dir, trace.messages,
                                                trace.preset, trace.base)
        first = reference.setdefault(trace.name, digests)
        if not failures and digests != first:
            failures.append("artifacts differ from the first pass")
        scores = {"fms_like": 0.0, "near_f1": 0.0}
        if segs is not None:
            report = evaluate.score_trace(segs, trace.truth, trace.messages)
            scores = {k: report.medians.get(k, 0.0) for k in scores}
        records.append({"trace": trace.name, "failures": failures,
                        "artifacts": digests, **scores})
    return records


def _layer_metrics(tracer, passes: list) -> dict:
    """Per-layer metrics: medians over the traced passes, plus the tracing overhead."""
    per_pass = []
    for i, p in enumerate(passes):
        if p["traced"]:
            size = sum(d["bytes"] for r in p["traces"] for d in r["artifacts"].values() if d)
            per_pass.append(tracer.pass_metrics(i, p["wall_s"], size))
    # a count that never happened in some pass is 0 there
    names = set().union(*per_pass)
    layer = tracing.median_metrics([{k: p.get(k, 0.0) for k in names} for p in per_pass])
    layer["synth.generate_s"] = tracer.self_times("setup").get("synth.generate_s", 0.0)
    # the first pass warms up, so traced passes never come first and it is left out here
    plain = [p["wall_s"] for p in passes[1:] if not p["traced"]]
    layer["trace.untraced_wall_s"] = statistics.median(plain)
    layer["trace.overhead_s"] = layer["trace.wall_s"] - layer["trace.untraced_wall_s"]
    return layer


def coverage_failures(tracer, presets: set, layer: dict) -> list:
    """Why the traced passes do not account for the program's time, if they do not."""
    failures = [f"absent layer function: {site}" for site in tracer.absent]
    reached = tracer.reached()
    failures += [f"layer function recorded no span: {site}"
                 for site in sorted(tracing.expected_sites(
                     presets, layer.get(tracing.INTERPRETABLE, 0)) - reached - set(tracer.absent))]
    frac = layer["trace.attributed_frac"]
    if abs(frac - 1.0) > 0.05:
        failures.append(f"attribution check: named layer functions claim {frac:.3f} "
                        f"of the traced wall time less the tracer's cost")
    return failures


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 messages: int = None) -> dict:
    """Run one workload; returns the result object printed as the last line."""
    import checks  # imports protoseg, so only after _import_protoseg
    work_dir = os.path.join(OUT, workload)
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()
    traces = set_up(workload, seed, work_dir, messages)
    if tracer:
        tracer.uninstall()
    for t in traces:
        t.base = checks.base_segmentation(t.messages, t.preset)
    _, _, force = trace_plan(workload, messages)

    passes = []
    reference = {}
    kernels = [speed.kernel_seconds()]
    deadline = time.perf_counter() + seconds
    # stop at the pass boundary nearest the deadline, so runs last about `seconds`
    while len(passes) < MIN_PASSES or time.perf_counter() + passes[-1]["wall_s"] / 2 < deadline:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.pass_id = len(passes)
            tracer.install()
        wall, codes = run_pass(traces, force, tracer)
        records = check_pass(traces, codes, reference, tracer)
        if traced:
            tracer.uninstall()
        kernels.append(speed.kernel_seconds())
        passes.append({"traced": traced, "wall_s": wall, "traces": records})

    calls = [r for p in passes for r in p["traces"]]
    failed = [r for r in calls if r["failures"]]
    result = {"correct": not failed, "attempted": len(calls), "failed": len(failed)}
    spec = declared()
    coverage = []
    if tracer:
        layer = _layer_metrics(tracer, passes)
        coverage = coverage_failures(tracer, {t.preset for t in traces}, layer)
        result["correct"] = result["correct"] and not coverage
        # counts that no pass recorded, such as warnings never logged, are 0
        result["metrics"] = {m["name"]: {"value": layer.get(m["name"], 0.0), "unit": m["unit"]}
                             for m in spec["per_layer"]}
        os.makedirs(work_dir, exist_ok=True)
        tracer.write_spans(os.path.join(work_dir, f"spans-seed{seed}.tsv"))
    else:
        wall = speed.at_reference([p["wall_s"] for p in passes], kernels)
        setup = measure_setup(workload, seed, work_dir, messages)
        first = passes[0]["traces"]
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "msgs_per_s": sum(len(t.messages) for t in traces) / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "fms_like": statistics.fmean(r["fms_like"] for r in first),
            "near_f1": statistics.fmean(r["near_f1"] for r in first),
            "passed_frac": 1.0 - len(failed) / len(calls),
        }
        result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                             for m in spec["end_to_end"]}

    details = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "traces": [{"name": t.name, "spec": t.spec, "preset": t.preset,
                    "rng_seed": t.rng_seed, "messages": len(t.messages)} for t in traces],
        "passes": passes, "kernel_s": kernels, "result": result,
        "absent": tracer.absent if tracer else [], "coverage_failures": coverage,
        "layer": layer if tracer else None,
    }
    os.makedirs(work_dir, exist_ok=True)
    with open(os.path.join(work_dir, f"result-seed{seed}-trace{int(trace)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    for r in passes[0]["traces"]:
        hashes = " ".join(f"{k}={v['sha256'][:16] if v else '-'}"
                          for k, v in r["artifacts"].items())
        print(f"{r['trace']}: fms_like={r['fms_like']:.4f} near_f1={r['near_f1']:.4f} {hashes}")
    for r in failed:
        print(f"FAILED {r['trace']}: {'; '.join(r['failures'])}")
    for line in coverage:
        print(f"FAILED tracing: {line}")
    print(f"{len(passes)} passes, wall seconds per pass (* traced), and calibration kernel "
          f"seconds around them:")
    print("  pass   " + " ".join(f"{p['wall_s']:.3f}{'*' if p['traced'] else ''}" for p in passes))
    print("  kernel " + " ".join(f"{k:.4f}" for k in kernels))
    for k, m in result["metrics"].items():
        print(f"{k} = {m['value']:.6g} {m['unit']}")
    return result


def run_all(seed: int, seconds: int) -> dict:
    """Each workload in a fresh process, so that peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"{workload} failed: {proc.stderr.strip()}")
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, m in result["metrics"].items():
            combined["metrics"][f"{workload}/{k}"] = m
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--messages", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--out", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        _import_protoseg()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        set_up(args.workload, args.seed, args.out, args.messages)
        print(time.time())
        return 0
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.messages)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
