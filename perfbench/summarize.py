"""Summarize benchmark result files into one baseline record.

After runs of `perfbench/run.py` over several seeds, from the root of a
checkout:

    python3 perfbench/summarize.py --commit <rev> [--write perfbench/baseline.json]

For each workload it reports every end-to-end metric's median, quartiles
and spread (quartile distance over median) across the `--trace 0` result
files in `.bench_out/<workload>/`, and from the `--trace 1` files each
layer's self time as a share of the traced wall time plus the layer
counts.  Two such records, one per commit, settle a speed claim; the
per-trace artifact digests in the result files settle a byte-identity one.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracing  # noqa: E402

def _results(workload: str, trace: int) -> list:
    pattern = os.path.join(run.OUT, workload, f"result-seed*-trace{trace}.json")
    out = []
    for path in glob.glob(pattern):
        with open(path, encoding="utf-8") as fh:
            out.append(json.load(fh))
    return sorted(out, key=lambda r: r["seed"])


def _spread(values: list) -> dict:
    med = statistics.median(values)
    entry = {"median": med, "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        entry.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
    return entry


def machine() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__, "blas": blas}


def summarize(commit: str) -> dict:
    declared = run.declared()
    record = {
        "commit": commit,
        "machine": machine(),
        "run_seconds": declared["run_seconds"],
        "end_to_end": [dict(m, meaning=run.MEANING[m["name"]]) for m in declared["end_to_end"]],
        "workloads": {},
    }
    segment_layers = [k for k in tracing.SITES if k not in tracing.OUTSIDE_SEGMENT]
    for w in declared["workloads"]:
        name = w["name"]
        pairs, count, force = run.trace_plan(name)
        entry = {"why": w["why"], "traces": [f"{s}-{p}" for s, p in pairs],
                 "messages_per_trace": count, "force": force}
        plain = _results(name, 0)
        if plain:
            entry["seeds"] = [r["seed"] for r in plain]
            entry["failed"] = sum(r["result"]["failed"] for r in plain)
            entry["end_to_end"] = {
                k: dict(_spread([r["result"]["metrics"][k]["value"] for r in plain]),
                        unit=plain[0]["result"]["metrics"][k]["unit"])
                for k in plain[0]["result"]["metrics"]}
        traced = _results(name, 1)
        if traced:
            layer = {k: statistics.median(r["result"]["metrics"][k]["value"] for r in traced)
                     for k in traced[0]["result"]["metrics"]}
            wall = layer["trace.wall_s"]
            entry["traced_seeds"] = [r["seed"] for r in traced]
            entry["layer_share_of_traced_wall"] = {
                k: layer[k] / wall for k in sorted(segment_layers, key=lambda k: -layer[k])}
            entry["per_layer"] = layer
            # over every traced seed, not only the median: the workload's purpose must hold on each
            entry["per_layer_range"] = {}
            for k in [*tracing.RATIOS, "trace.attributed_frac"]:
                values = [r["result"]["metrics"][k]["value"] for r in traced]
                entry["per_layer_range"][k] = [min(values), max(values)]
        record["workloads"][name] = entry
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", required=True, help="revision the results were measured at")
    parser.add_argument("--write", default=None, help="write the record here instead of stdout")
    args = parser.parse_args(argv)
    run._import_protoseg()
    text = json.dumps(summarize(args.commit), indent=1) + "\n"
    if args.write:
        with open(args.write, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
