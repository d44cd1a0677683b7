"""SHA-256 of every `segment` artifact, by bytes and by JSON value, over the identity set.

Usage, from the root of a checkout:

    python3 tests/trace_digests.py > digests.txt
    python3 tests/trace_digests.py --against REV

The set has two parts.  The 108-trace part is the six bundled specs x
seeds {0, 3, 7} x {150, 600, 1500} messages, each generated with
rng_seed 1000 * seed + messages and segmented under both presets with
`--no-dedupe`.  The external part, `external_cases`, is the length-
tolerant path: traces whose external base segmentation puts segments of
several lengths into one cluster, segmented with `--base external`
under nullpca.  Every run goes through `cli.main` as the `segment`
command runs.  Each artifact file gets one line,

    <trace> <artifact> <sha256 of bytes> <sha256 of value>

where <trace> is <spec>/<preset>/s<seed>/n<messages> for the 108-trace
part and external/<case> for the external part, and the value digest is
the SHA-256 of the compact re-dump of the parsed file,
`json.dumps(value, separators=(",", ":"))`, so it does not depend on
the file's layout.  The output of two checkouts is compared with one
`diff`: a change meant to keep the artifacts byte-identical leaves it
empty, and a layout-only change leaves the last column unchanged
(`cut -d" " -f1,2,4` of both outputs compare equal).  Run as a
script, it imports protoseg from the src/ next to its own directory; it
writes nothing outside a temporary directory.

`--against REV` makes that comparison itself: it exports commit REV
with `git archive` into a temporary directory, runs a copy of this
script there (so REV's protoseg makes REV's digests) while it makes
this checkout's digests, working-tree edits included, and prints the
unified diff of the two outputs.  It exits 1 when they differ and 0,
with a one-line note on stderr, when they are identical.  pytest does not collect
it (no test_ prefix); `tests/test_identity.py` imports `external_cases`
from here and pins the external cases' digests.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import difflib
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tarfile
import tempfile

if __name__ == "__main__":  # a script imports protoseg from its own checkout
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                    "src"))

from protoseg import synth, traceio  # noqa: E402
from protoseg.cli import main  # noqa: E402

ARTIFACTS = ("segments.json", "edits.json", "clusters.json")
PRESETS = ("nullpca", "nemepca")
SEEDS = (0, 3, 7)
SIZES = (150, 600, 1500)
EXTERNAL_SPECS = ("chars", "mixed", "nullsep")
EXTERNAL_MESSAGES = 300


def window_cuts(length: int) -> list:
    """Cuts of 4-byte windows over a payload, its last 4 to 7 bytes merged into one segment."""
    return list(range(4, length - 3, 4))


def prototype_payloads(count: int, seed: int) -> list:
    """count payloads of 7 to 10 bytes, each a window of one of three mutated 10-byte prototypes.

    A payload starts 0 to 2 bytes into its prototype, with up to two of
    the prototype's bytes replaced at random.
    """
    rng = random.Random(seed)
    prototypes = [[rng.randrange(256) for _ in range(10)] for _ in range(3)]
    payloads = []
    for _ in range(count):
        value = list(rng.choice(prototypes))
        for _ in range(rng.randrange(3)):
            value[rng.randrange(10)] = rng.randrange(256)
        start = rng.randrange(3)
        payloads.append(bytes(value[start:start + rng.randint(7, 10 - start)]))
    return payloads


def external_cases(work_dir: str) -> dict:
    """{case: `segment` arguments but --out} of the external part, inputs written to work_dir.

    "<spec>/windows" is the spec's trace of 300 messages (rng_seed 1) cut
    by `window_cuts`, so its one root holds segments of 4 to 7 bytes.
    The specs' DBSCAN children hold one length each, so those cases
    reuse only zero offsets; "prototypes/whole" takes each payload of
    `prototype_payloads(300, 5)` as one segment, and there a child of
    several lengths reuses nonzero offsets and `build_matrix` fills
    unobserved cells with column means.
    """
    specs = synth.reference_specs()
    inputs = {
        f"{name}/windows": (
            [m.payload for m in synth.generate(dataclasses.replace(
                specs[name], message_count=EXTERNAL_MESSAGES, rng_seed=1))[0]],
            window_cuts)
        for name in EXTERNAL_SPECS
    }
    inputs["prototypes/whole"] = (prototype_payloads(EXTERNAL_MESSAGES, 5), lambda length: [])
    cases = {}
    for case, (payloads, cuts) in inputs.items():
        stem = os.path.join(work_dir, case.replace("/", "-"))
        traceio.write_text_atomic(stem + ".hex", "".join(p.hex() + "\n" for p in payloads))
        traceio.write_json_atomic(stem + ".json",
                                  {str(i): cuts(len(p)) for i, p in enumerate(payloads)})
        cases[case] = ["segment", "--trace", stem + ".hex", "--preset", "nullpca",
                       "--base", "external", "--external-segments", stem + ".json",
                       "--no-dedupe"]
    return cases


def segment_digests(trace: str, argv: list, out: str):
    """Run `segment` with argv into out; yield one (trace, artifact, bytes sha256, value sha256) per artifact."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, "--out", out])
    if code != 0:
        raise SystemExit(f"segment exited with {code} on {trace}")
    for artifact in ARTIFACTS:
        with open(os.path.join(out, artifact), "rb") as fh:
            raw = fh.read()
        value = json.dumps(json.loads(raw), separators=(",", ":"))
        yield (trace, artifact, hashlib.sha256(raw).hexdigest(),
               hashlib.sha256(value.encode("utf-8")).hexdigest())


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
                    yield from segment_digests(
                        trace, ["segment", "--trace", hex_path, "--preset", preset, "--no-dedupe"],
                        os.path.join(work_dir, trace.replace("/", "-")))
    for case, argv in external_cases(work_dir).items():
        trace = f"external/{case}"
        yield from segment_digests(trace, argv, os.path.join(work_dir, trace.replace("/", "-")))


def diff_against(rev: str) -> int:
    """Print the diff of REV's digests and this checkout's; 1 when they differ, else 0."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    archive = subprocess.run(["git", "-C", root, "archive", rev],
                             check=True, stdout=subprocess.PIPE).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp)
        script = os.path.join(tmp, "tests", os.path.basename(__file__))
        os.makedirs(os.path.dirname(script), exist_ok=True)
        shutil.copyfile(os.path.abspath(__file__), script)
        theirs = subprocess.Popen([sys.executable, script], stdout=subprocess.PIPE, text=True)
        try:
            with tempfile.TemporaryDirectory() as work_dir:
                ours = [" ".join(line) + "\n" for line in trace_digests(work_dir)]
        except BaseException:  # do not leave REV's run behind in a deleted directory
            theirs.kill()
            theirs.wait()
            raise
        output = theirs.communicate()[0]
    if theirs.returncode:
        raise SystemExit(f"the digests of {rev} exited with {theirs.returncode}")
    diff = list(difflib.unified_diff(output.splitlines(keepends=True), ours,
                                     fromfile=rev, tofile="this checkout"))
    sys.stdout.writelines(diff)
    if diff:
        return 1
    print(f"{len(ours)} lines, no difference against {rev}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Digests of the segment artifacts.")
    parser.add_argument("--against", metavar="REV",
                        help="compare with the digests of git commit REV and print the diff")
    rev = parser.parse_args().against
    if rev is not None:
        sys.exit(diff_against(rev))
    with tempfile.TemporaryDirectory() as work_dir:
        for line in trace_digests(work_dir):
            print(*line, flush=True)
