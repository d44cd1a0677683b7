"""SHA-256 of every `segment` artifact, by bytes and by JSON value, over the 108-trace identity set.

Usage, from the root of a checkout:

    python3 tests/trace_digests.py > digests.txt

The set is the six bundled specs x seeds {0, 3, 7} x {150, 600, 1500}
messages, each generated with rng_seed 1000 * seed + messages and
segmented under both presets with `--no-dedupe`, through `cli.main` as
the `segment` command runs.  Each artifact file gets one line,

    <spec>/<preset>/s<seed>/n<messages> <artifact> <sha256 of bytes> <sha256 of value>

where the value digest is the SHA-256 of the compact re-dump of the
parsed file, `json.dumps(value, separators=(",", ":"))`, so it does
not depend on the file's layout.  The output of two checkouts is
compared with one `diff`: a change meant to keep the artifacts
byte-identical leaves it empty, and a layout-only change leaves the
last column unchanged (`cut -d" " -f1,2,4` of both outputs compare
equal).  The script
imports protoseg from this checkout's src/ and writes nothing outside
a temporary directory.  pytest does not collect it (no test_ prefix).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from protoseg import synth, traceio  # noqa: E402
from protoseg.cli import main  # noqa: E402

ARTIFACTS = ("segments.json", "edits.json", "clusters.json")
PRESETS = ("nullpca", "nemepca")
SEEDS = (0, 3, 7)
SIZES = (150, 600, 1500)


def trace_digests(work_dir: str):
    """Yield one (trace, artifact, bytes sha256, value sha256) per artifact file of the set."""
    for name, spec in sorted(synth.reference_specs().items()):
        for seed in SEEDS:
            for n in SIZES:
                messages, _ = synth.generate(
                    dataclasses.replace(spec, message_count=n, rng_seed=1000 * seed + n))
                hex_path = os.path.join(work_dir, f"{name}-s{seed}-n{n}.hex")
                traceio.save_hexlines(hex_path, messages)
                for preset in PRESETS:
                    trace = f"{name}/{preset}/s{seed}/n{n}"
                    out = os.path.join(work_dir, trace.replace("/", "-"))
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = main(["segment", "--trace", hex_path, "--preset", preset,
                                     "--no-dedupe", "--out", out])
                    if code != 0:
                        raise SystemExit(f"segment exited with {code} on {trace}")
                    for artifact in ARTIFACTS:
                        with open(os.path.join(out, artifact), "rb") as fh:
                            raw = fh.read()
                        value = json.dumps(json.loads(raw), separators=(",", ":"))
                        yield (trace, artifact, hashlib.sha256(raw).hexdigest(),
                               hashlib.sha256(value.encode("utf-8")).hexdigest())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work_dir:
        for line in trace_digests(work_dir):
            print(*line, flush=True)
