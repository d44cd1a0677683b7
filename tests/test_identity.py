"""Golden SHA-256 digests of the `segment` artifacts.

Refactors and kernel rewrites must leave `segments.json`, `edits.json`
and `clusters.json` byte-identical.  This test runs the `segment`
command on every bundled spec under both presets at 150 messages with
fixed rng seeds and compares each artifact's SHA-256 with the digest
pinned below.

The digests were recorded on commit b1b2241, before the byte-pair table
Canberra kernel and the gather-based `build_matrix` replaced the
broadcast kernel and the per-member loop, so they pin the output of the
older code.  The artifacts hold no floats, only integers and names
(message and node ids, cut offsets, edit kinds and provenances,
verdicts, depths, member ranges), but floats computed by numpy
(dissimilarities, eps, eigenvalues) decide which of them appear, so a
different numpy or BLAS build may change them; a digest that changes
with the code unchanged points there first.

One duplicate-heavy case, `mixed` under nullpca at 600 messages, is
pinned as well: its length groups hold several times more segments
than distinct values and its tree recurses below the length split, so
the clustering at distinct-value resolution is checked on a deep tree.
Its digests were recorded on commit 629f117, before the clustering
moved from segment to distinct-value resolution.  `chars` under
nemepca at 600 messages is pinned too, because its bit-congruence base
segmentation and entropy merge decide most of its cuts; its digests
were recorded on commit fd9dfbb, before the vectorised base segmenter
and the per-run entropy table replaced the per-byte loops.

The `clusters.json` digests were re-pinned when that file moved to its
compact format 2, which lists each member once, at its leaf: the new
files equal the older ones converted to format 2 (each node's member
count kept, members dropped from inner nodes), and the `segments.json`
and `edits.json` digests stayed as they were.

The `segments.json` and `edits.json` digests were re-pinned when every
JSON artifact became the compact `json.dumps(value, separators=(",",
":"))` of one writer: each new file equals the compact re-dump of the
older, indented one, so the values did not change (the value column of
`tests/trace_digests.py` shows the same on the 108-trace set), and the
`clusters.json` digests, already compact, stayed as they were.

The same runs also check that `edits.json` is a faithful log: replayed
in order over the preset's base segmentation, every edit is valid when
it is applied and the result is `segments.json`.

The bundled specs under either preset split every root into groups of
one length, so none of the cases above compares values of different
lengths.  The external cases of `tests/trace_digests.py` do: their
`segment --base external` runs put segments of several lengths into one
cluster.  Their digests were recorded on commit 7ba1d39, while the
Canberra sums still followed numpy's pairwise summation order, and the
runs record which length-tolerant code paths each case reaches.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from trace_digests import external_cases

from protoseg import dissim, refine, synth, traceio
from protoseg.cli import main

ARTIFACTS = ("segments.json", "edits.json", "clusters.json")
MESSAGES = 150

# "<spec>/<preset>": SHA-256 of (segments.json, edits.json, clusters.json)
GOLDEN = {
    "chars/nemepca": (
        "62911dfc7a07532aa76348819e4ab4df569e1377274e3a3d2b6836dd75eb8b9e",
        "c0306748dfe01a675e650bd67d301c5dc771b97ccae5aa548c7435b6c4272a27",
        "3a4d8e83a1405d5b8a83fcde27dbf10b02b6bcc42ec93c3418268bd1eabf5886",
    ),
    "chars/nullpca": (
        "145b0ec09c97f4397c7a1644e18deab3526e2ee89c4dbd854a113eebd9f3709d",
        "5df01f860b7b1d6ecef976e651104b11e3e5157a29a31ec7d8c48285f7a73a72",
        "f900917c8a6fae15ef0ace27163fc7041bdc44dcd1ce12dc75df3f9f2427678a",
    ),
    "fixed/nemepca": (
        "5684e5a1e67819b174ea77a2c07b9e7716b05c340aad1cb40724da0961e7ccb3",
        "677031fcaac89dcff0627e00b2b862e5e6beb184bfe46c54eb0c64287724934a",
        "10449b8c93fcf396b6c0add57618a9ced92f70aed04440c2e0e5f0de1163bc8c",
    ),
    "fixed/nullpca": (
        "3527a66891ae89a80f93f0513c3b367ca8c5d60ebc559eb0458c70c8baa65231",
        "defe4a7cd8640a3ad751ef00662aacb49f3cd6a8bb8fcbebbe93870a04e76015",
        "cac750d550c5efeb445582073ba8cdd808e684277ae0142212ef80f77391a3f3",
    ),
    "mixed/nemepca": (
        "52966497a975381125453357c7ec395ad278fc9dc0d134af7f368cba000875d6",
        "137717e9b979b0354c956dae670b724be0ffe4684486f7c2216bc0a78bc7445c",
        "7231548e82f836218f22fb1491ac37e3be5bb33c29311226152895da70cb6e97",
    ),
    "mixed/nullpca": (
        "bcca5d492784f306c78e9ab9c51edc611959cbc8db20505c89fd6e7351dc0b20",
        "0dd5035fcf9e0ade7b021510f8addf980367adc5347609b2cf3e678b8b911b8f",
        "6fbb54d9e82510a8c7ee0a270373d1852891505d22e13540c5c960ebbf10c0c8",
    ),
    "nullsep/nemepca": (
        "661f1460e892d5f6ea4f31805220a5f5a110bed60492fa0c6cd8b9d7cb744240",
        "0edd863e3a9fae4195020b0b20d4b8a7efb4fbf74c99afd838fe2ba8e3251281",
        "979799f6281016a0be9f0109946c77da2ddc9ff5c35a56e38b79a558b1113bcd",
    ),
    "nullsep/nullpca": (
        "98edc22a81506a2ca83567ec3248d8a69c5a3a9c7208fb499319f3c4d58b313e",
        "b41f7d3c6f493e69f4859680b01904044a96845b571d65f486b961cdad9f4bde",
        "5233722a6ae96b0ed90f3e5042ab6f0489ede1f6748d0a71e43622712bdb4e34",
    ),
    "optional/nemepca": (
        "9b759df490d2349cbf1e2f4dda13bec56d1df8f4f1f1b9bd7370a57cb3bbe699",
        "1cf3fe143ea1363eab9a771c080c8abab58d9545bb8ebf90afb7e0882c6ee7f1",
        "17c9296100fea956d079bfe141c80efb3d15d956785e469d84237145f878fee6",
    ),
    "optional/nullpca": (
        "3dc9d34e6081dcf33593762d00eca236a56bf714dabedec7f79e0f937f73f8a2",
        "97da03ce1416b30ed1de48219e6f80c3b91cd1362c15d8b63c472e212b161678",
        "85dbd7b7e2d0589a7c54bdea2ded3acecaabd00df54f8718e7de0e72884afd09",
    ),
    "packed/nemepca": (
        "ec9cd41bb064127b777e35cbcdb4f9eb3321cc3834c7cbf965ed7e44931d60ef",
        "d43e4856146db8aa6449bfb544a0edbcb3222f7673e120506a8cb21c9da31fb4",
        "a8aac67274dc04e182ff2af8cc8683659b598b10c55f779f879331840b3067c0",
    ),
    "packed/nullpca": (
        "72b120952e89ed9a5ab08c04f332e1faa5411bbd5a42c2e0c5decbec5c94973b",
        "f6bd27dcfcfcea6869f78c0eb5746f105fb446ef08b66e3c122fbd4c92b134fb",
        "8c76e3a670f0b7c572bab1ae8a2b28e469d867d7bb15c3ada80800bd0d786365",
    ),
}

# "<spec>/<preset>@<messages>": the same digests for the larger cases
GOLDEN_LARGE = {
    "mixed/nullpca@600": (
        "eb2c5f1696c95ab118faba5027822290b60c67bdf732ec472eca8b59862aff3d",
        "64e0fb0ef910d18b9911dda886e5f5e3a5870e8bd21d0e294932ac4225c45745",
        "1ee6ce55fab6b49f681d6047c1bff3929f8b8ba0d8c1d0e9972709b97a2e8d47",
    ),
    "chars/nemepca@600": (
        "22b5f39c1cdc165cc134fe9a14e2ddabf619e13a20dc603fb0ad6aaaaf9e81b6",
        "066574f55283f46ea3f59d94ee956aef2be40c3e6052ab6ab4880919d3ac09dd",
        "c21fc2b2e8b43bc5547be395f4562313791450edea7e2c37f4146b3ca89a2fd4",
    ),
}


# "<case>" of `trace_digests.external_cases`: the same digests
GOLDEN_EXTERNAL = {
    "chars/windows": (
        "0b5a47b4e3c44b7a61c4f2d16e168872861b406d0a974738ff89db32b125ad50",
        "9c8b5aacb99b11540fa13d131487dc89c6a3cfddcf65e866d629ef5a09274125",
        "d9ed152efebfe5e131b045b76e6e99a22e560fb9c10ee08e87a0df84194b2fe9",
    ),
    "mixed/windows": (
        "0721884bc424200b1b489fcb8a65cbcf9296d706eae8941500326b7665615419",
        "27836337b3eae686e571e5e4f5e1f97c07432aabf104256a88658674fa34abf8",
        "95101a01a19b95125cc2f21edc23e053c5dc642fa8a72db1fb038cd40ef9564a",
    ),
    "nullsep/windows": (
        "92088fe39204cf7aa1d31ba83070454237ecb522499c1e699ca93e101624f394",
        "25fc6ea3a2f0390b37d747d8d4761fda34bfe56a042ff761adf160bdab1b7bb7",
        "8b736b1baa11b4979d7a8f7e01464ad7381017607ee1449f4bb93bee7d18832e",
    ),
    "prototypes/whole": (
        "aee3e3ac54f49547a5696c44935478b89943d352faf48c394f9ebeac90eb4b4d",
        "d1d8a3b468fbf28a1ef515f396dee058710f104c2fd8f3ed29dfa6c6d6285c10",
        "b0925de3524a92def294223a555ce7721dca0474d47e0ab2f05b5b66b78021b6",
    ),
}

# length-tolerant paths: `dissimilarity` of two lengths, `pairwise` over
# several lengths, an overlay taking nonzero offsets from an ancestor's,
# and `build_matrix` filling unobserved cells with column means
UNEQUAL, LENGTHS, REUSE, FILL = "unequal", "lengths", "reuse", "fill"
REACHED = {
    "chars/windows": {UNEQUAL, LENGTHS},
    "mixed/windows": {UNEQUAL, LENGTHS},
    "nullsep/windows": {UNEQUAL, LENGTHS},
    "prototypes/whole": {UNEQUAL, LENGTHS, REUSE, FILL},
}


def split_case(case):
    """(spec, preset, message count) of a GOLDEN or GOLDEN_LARGE key."""
    name, _, count = case.partition("@")
    spec, preset = name.split("/")
    return spec, preset, int(count or MESSAGES)


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """Hex trace of (spec, message count), spec k of n messages seeded with n + k, made on first use."""
    root = tmp_path_factory.mktemp("identity")
    specs = sorted(synth.reference_specs().items())
    paths = {}

    def trace(name, count=MESSAGES):
        if (name, count) not in paths:
            k, spec = next((k, spec) for k, (n, spec) in enumerate(specs) if n == name)
            spec = dataclasses.replace(spec, message_count=count, rng_seed=count + k)
            messages, _ = synth.generate(spec)
            paths[name, count] = root / f"{name}-{count}.hex"
            traceio.save_hexlines(str(paths[name, count]), messages)
        return paths[name, count]
    return trace


@pytest.fixture(scope="module")
def runs(traces, tmp_path_factory):
    """Output directory of one `segment` run per case, made on first use."""
    root = tmp_path_factory.mktemp("runs")
    done = {}

    def run(case):
        if case not in done:
            spec, preset, count = split_case(case)
            out = root / case.replace("/", "-").replace("@", "-")
            assert main(["segment", "--trace", str(traces(spec, count)), "--preset", preset,
                         "--no-dedupe", "--out", str(out)]) == 0
            done[case] = out
        return done[case]
    return run


@pytest.fixture(scope="module")
def external_runs(tmp_path_factory):
    """{case: (output directory, paths reached)} of every external case, run once."""
    root = tmp_path_factory.mktemp("external")
    runs = {}
    paths = set()
    dissimilarity, pairwise = dissim.dissimilarity, dissim.pairwise
    overlay_cluster, build_matrix = dissim.overlay_cluster, dissim.build_matrix

    def recorded_dissimilarity(s, t):
        if len(s) != len(t):
            paths.add(UNEQUAL)
        return dissimilarity(s, t)

    def recorded_pairwise(values, out=None):
        if len(set(map(len, values))) > 1:
            paths.add(LENGTHS)
        return pairwise(values, out)

    def recorded_overlay(values, dist, inverse, known=None):
        overlay = overlay_cluster(values, dist, inverse, known)
        medoid = values[inverse[overlay.reference]]
        if known and medoid in known and np.any(np.asarray(known[medoid]) != 0):
            paths.add(REUSE)
        return overlay

    def recorded_matrix(overlay, values, inverse):
        matrix = build_matrix(overlay, values, inverse)
        if not matrix.mask.all():
            paths.add(FILL)
        return matrix

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dissim, "dissimilarity", recorded_dissimilarity)
        mp.setattr(dissim, "pairwise", recorded_pairwise)
        mp.setattr(dissim, "overlay_cluster", recorded_overlay)
        mp.setattr(dissim, "build_matrix", recorded_matrix)
        for case, argv in external_cases(str(root)).items():
            paths.clear()
            out = root / case.replace("/", "-")
            assert main([*argv, "--out", str(out)]) == 0
            runs[case] = (out, frozenset(paths))
    return runs


def digests(out):
    return tuple(hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ARTIFACTS)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_artifacts_match_golden_digests(case, runs, capsys):
    assert digests(runs(case)) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(GOLDEN_LARGE))
def test_large_artifacts_match_golden_digests(case, runs, capsys):
    assert digests(runs(case)) == GOLDEN_LARGE[case]


@pytest.mark.parametrize("case", sorted(GOLDEN_EXTERNAL))
def test_external_artifacts_match_golden_digests(case, external_runs, capsys):
    assert digests(external_runs[case][0]) == GOLDEN_EXTERNAL[case]


def test_external_cases_reach_the_length_tolerant_paths(external_runs, capsys):
    assert {case: paths for case, (_, paths) in external_runs.items()} == REACHED


def replay(cuts: set, length: int, edits) -> set:
    """Apply one message's edits in order, asserting each is valid when applied."""
    for e in edits:
        kind, offset = e["kind"], e["offset"]
        assert 0 < offset < length, e
        if kind == "add":
            assert offset not in cuts, e
            cuts.add(offset)
        elif kind == "move":
            assert e["old_offset"] in cuts and offset not in cuts, e
            cuts.remove(e["old_offset"])
            cuts.add(offset)
        else:
            assert kind == "remove" and offset in cuts, e
            cuts.remove(offset)
    return cuts


@pytest.mark.parametrize("case", sorted(GOLDEN) + sorted(GOLDEN_LARGE))
def test_edit_log_replays_to_segments(case, runs, traces, capsys):
    spec, preset, count = split_case(case)
    out = runs(case)
    messages = traceio.load_trace(traceio.TraceSpec(str(traces(spec, count)), dedupe=False))
    if refine.PRESETS[preset][0] == refine.BASE_NULL_BYTES:
        base = [refine.null_segmenter(m) for m in messages]
    else:
        sigma = refine.PipelineConfig().sigma
        base = [refine.bit_congruence_segmenter(m, sigma) for m in messages]
    edits = json.loads((out / "edits.json").read_text())
    segments = json.loads((out / "segments.json").read_text())
    assert edits  # every case edits something, so the replay is not vacuous
    assert set(map(int, segments)) == {m.id for m in messages}
    assert {e["message"] for e in edits} <= set(map(int, segments))
    for m, seg in zip(messages, base):
        mine = [e for e in edits if e["message"] == m.id]
        assert sorted(replay(set(seg.cuts), len(m.payload), mine)) == segments[str(m.id)]
