"""Paired timing of this checkout's protoseg against another commit's, in one process.

Usage, from the root of a checkout:

    python3 tests/ab_timing.py --against REV --workload dup_heavy --pairs 40

It exports `src/protoseg` of commit REV with `git archive` into a
temporary directory under another package name, imports it beside this
checkout's `protoseg` (working-tree edits included), and builds the
workload's traces with the benchmark's own `set_up` from
`perfbench/run.py`.  Each pair runs one `segment` pass over every trace
of the workload with each package, through its `cli.main` as the
benchmark calls it, the order alternating from pair to pair.  Every
pass's artifacts must be byte-identical to the other package's; the
script stops with an error at the first pass where they differ.  It
prints each pair's pass times and ratio (this checkout over REV), then
the median ratio, its quartiles and the number of pairs this checkout
won.  `--against HEAD` on a clean tree is the A/A control.

A host's speed can drift by tens of percent between processes, so two
benchmark runs resolve only large effects; pairs taken in one process
see the same drift on both sides and resolve effects of a few percent.
A pass starts from whatever state the one before left, as in the
benchmark, which forces no garbage collection between its passes
either: a forced `gc.collect()` before each pass would clear the
collector's counts and so hide the collections a pass pays for.
pytest does not collect this file (no test_ prefix).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import io
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run as bench  # noqa: E402
from checks import ARTIFACTS  # noqa: E402

OTHER = "protoseg_against"  # the package name REV's protoseg is imported under


def load_revision(rev: str, tmp: str):
    """REV's protoseg package, imported from tmp as OTHER."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev, "src/protoseg"],
                             check=True, stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tmp)
    # the package imports its modules relatively, so it loads under any name
    os.rename(os.path.join(tmp, "src", "protoseg"), os.path.join(tmp, OTHER))
    sys.path.insert(0, tmp)
    importlib.import_module(f"{OTHER}.cli")
    return sys.modules[OTHER]


def segment_pass(package, traces: list, force: bool, out_root: str) -> tuple:
    """(seconds, artifact bytes per trace) of one `segment` call per trace."""
    main = package.cli.main
    runs = [dataclasses.replace(t, out_dir=os.path.join(out_root, t.name)) for t in traces]
    argvs = [bench._segment_argv(t, force) for t in runs]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        codes = [main(argv) for argv in argvs]
        seconds = time.perf_counter() - start
    if any(codes):
        raise SystemExit(f"{package.__name__}: segment exited with {codes}")
    artifacts = {}
    for t in runs:
        for name in ARTIFACTS:
            with open(os.path.join(t.out_dir, name), "rb") as fh:
                artifacts[t.name, name] = fh.read()
    return seconds, artifacts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, metavar="REV")
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1, help="the workload's trace seed")
    args = parser.parse_args(argv)

    import protoseg
    import protoseg.cli  # noqa: F401
    if not os.path.abspath(protoseg.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"protoseg imported from {protoseg.__file__}, not from this checkout")
    with tempfile.TemporaryDirectory() as tmp:
        other = load_revision(args.against, os.path.join(tmp, "rev"))
        traces = bench.set_up(args.workload, args.seed, os.path.join(tmp, "work"))
        _, _, force = bench.trace_plan(args.workload)
        sides = {"rev": other, "this": protoseg}
        for name, package in sides.items():  # warm-up, not timed
            segment_pass(package, traces, force, os.path.join(tmp, "out", name))
        ratios, times = [], {"rev": [], "this": []}
        for pair in range(args.pairs):
            order = ("rev", "this") if pair % 2 == 0 else ("this", "rev")
            outputs = {}
            for name in order:
                seconds, outputs[name] = segment_pass(sides[name], traces, force,
                                                      os.path.join(tmp, "out", name))
                times[name].append(seconds)
            if outputs["rev"] != outputs["this"]:
                differ = sorted({key for key in outputs["rev"]
                                 if outputs["rev"][key] != outputs["this"].get(key)})
                raise SystemExit(f"pair {pair}: artifacts differ: {differ}")
            ratios.append(times["this"][-1] / times["rev"][-1])
            print(f"pair {pair:3d}  {args.against} {times['rev'][-1]:.4f} s  "
                  f"this {times['this'][-1]:.4f} s  ratio {ratios[-1]:.4f}", flush=True)
    quartiles = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    wins = sum(r < 1 for r in ratios)
    print(f"{args.workload}: {len(ratios)} pairs, artifacts identical in every pass; "
          f"median pass time {args.against} {statistics.median(times['rev']):.4f} s, "
          f"this {statistics.median(times['this']):.4f} s; "
          f"ratio median {statistics.median(ratios):.4f} "
          f"[{quartiles[0]:.4f}, {quartiles[2]:.4f}], "
          f"this checkout faster in {wins}/{len(ratios)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
