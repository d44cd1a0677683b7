"""Peak RSS of `refine.run_pipeline`, one fresh process per trace.

Usage, from the root of a checkout:

    python3 tests/peak_rss.py
    python3 tests/peak_rss.py mixed/nullpca@5000 chars/nemepca@6000 --runs 2
    python3 tests/peak_rss.py --against REV

Each trace is SPEC/PRESET@N: the bundled spec SPEC with N messages and
rng_seed 1, generated by `synth.generate` and refined once by
`run_pipeline` under PRESET in a new Python process, which then prints
its `ru_maxrss` (MB of 2^20 bytes) and the seconds `run_pipeline` took.
`ru_maxrss` only ever grows, so a process measures one trace and
nothing else: no CLI, no artifact writing.  The defaults are the five
traces of ROADMAP item 3's table.

`--against REV` exports `src/protoseg` of commit REV with `git archive`
into a temporary directory and measures it too, each trace's processes
alternating between REV and this checkout (working-tree edits
included).  Both trees import their package once beforehand with
their bytecode cached in one temporary `PYTHONPYCACHEPREFIX`, so no
measured process pays the compiler's memory.  pytest does not collect
this file (no test_ prefix).
"""

from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TRACES = ("mixed/nullpca@2000", "mixed/nullpca@5000", "nullsep/nullpca@5000",
          "chars/nemepca@6000", "mixed/nullpca@10000")

CHILD = """
import dataclasses, resource, sys, time
from protoseg import refine, synth
spec, preset, n = sys.argv[1], sys.argv[2], int(sys.argv[3])
messages, _ = synth.generate(dataclasses.replace(synth.reference_specs()[spec],
                                                 message_count=n, rng_seed=1))
start = time.perf_counter()
refine.run_pipeline(messages, refine.preset(preset))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, time.perf_counter() - start)
"""


def trace_args(trace: str) -> list:
    """[spec, preset, n] of SPEC/PRESET@N."""
    try:
        spec, rest = trace.split("/")
        preset, n = rest.split("@")
        return [spec, preset, str(int(n))]
    except ValueError:
        raise SystemExit(f"not a SPEC/PRESET@N trace: {trace!r}") from None


def measure(src: str, args: list, cache: str) -> tuple:
    """(peak RSS in MB, run_pipeline seconds) of one fresh process on the package under src."""
    env = {**os.environ, "PYTHONPATH": src, "PYTHONPYCACHEPREFIX": cache}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    out = subprocess.run([sys.executable, "-c", CHILD, *args], env=env, check=True,
                         stdout=subprocess.PIPE, text=True).stdout.split()
    return float(out[0]), float(out[1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("traces", nargs="*", default=TRACES, metavar="SPEC/PRESET@N")
    parser.add_argument("--against", metavar="REV")
    parser.add_argument("--runs", type=int, default=1, help="processes per trace and tree")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        trees = {"this": os.path.join(ROOT, "src")}
        if args.against:
            archive = subprocess.run(["git", "-C", ROOT, "archive", args.against, "src/protoseg"],
                                     check=True, stdout=subprocess.PIPE).stdout
            with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
                tar.extractall(os.path.join(tmp, "rev"))
            trees = {args.against: os.path.join(tmp, "rev", "src"), **trees}
        caches = {}
        for name, src in trees.items():  # compile each tree into its own cache
            caches[name] = os.path.join(tmp, "cache", str(len(caches)))
            env = {**os.environ, "PYTHONPATH": src, "PYTHONPYCACHEPREFIX": caches[name]}
            env.pop("PYTHONDONTWRITEBYTECODE", None)
            subprocess.run([sys.executable, "-c", "import protoseg.refine, protoseg.synth"],
                           env=env, check=True)
        for trace in args.traces:
            targs = trace_args(trace)
            for run in range(args.runs):
                names = list(trees) if run % 2 == 0 else list(trees)[::-1]
                results = {name: measure(trees[name], targs, caches[name]) for name in names}
                print(f"{trace:24s} " + "  ".join(
                    f"{name} {results[name][0]:8.1f} MB {results[name][1]:6.2f} s"
                    for name in trees), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
