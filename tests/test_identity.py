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

The same runs also check that `edits.json` is a faithful log: replayed
in order over the preset's base segmentation, every edit is valid when
it is applied and the result is `segments.json`.
"""

import dataclasses
import hashlib
import json

import pytest

from protoseg import refine, synth, traceio
from protoseg.cli import main

ARTIFACTS = ("segments.json", "edits.json", "clusters.json")
MESSAGES = 150

# "<spec>/<preset>": SHA-256 of (segments.json, edits.json, clusters.json)
GOLDEN = {
    "chars/nemepca": (
        "e145d1938ad5d8f4443489d432fcf341bfa1f7178d7d3b447430b6b7f33587a8",
        "d9b665412240c704d97209fc1d3cf46112bd2c3516c3ba020b2801052e3a9409",
        "3a4d8e83a1405d5b8a83fcde27dbf10b02b6bcc42ec93c3418268bd1eabf5886",
    ),
    "chars/nullpca": (
        "02bbbb1084637307f5a575de7293243bccb9343d2d3efc36f6de625b82fdf2d8",
        "7d41b6d86cba0beda0662a2931ce72e94dc57b4cc302dc0066dd127974b43bf4",
        "f900917c8a6fae15ef0ace27163fc7041bdc44dcd1ce12dc75df3f9f2427678a",
    ),
    "fixed/nemepca": (
        "61264fa5c039b3da4faca63eecb476017a14ada0484979bc937d8d3f0096328e",
        "b3d8d08d72a397e703b89dc0d9483d31b8599d320b519a31bd7118b374ee9fc1",
        "10449b8c93fcf396b6c0add57618a9ced92f70aed04440c2e0e5f0de1163bc8c",
    ),
    "fixed/nullpca": (
        "c96b5ee5fbca28374e580c3e5bd10f744333fb671efa17cd5276d48b71258757",
        "f18f3180556bc59f9fd73e94ca617ca6e6a1dc771b76616291bad71a67edbb9c",
        "cac750d550c5efeb445582073ba8cdd808e684277ae0142212ef80f77391a3f3",
    ),
    "mixed/nemepca": (
        "77f7c435810846e54018f1b72733e4614931707a2b110cc4a8fc9d60862d7a57",
        "c40b451a2721cc937c88633e9e62fdee8940106b079e665eda82bf27ecbf44e2",
        "7231548e82f836218f22fb1491ac37e3be5bb33c29311226152895da70cb6e97",
    ),
    "mixed/nullpca": (
        "abc4b1fbfef5c9757e6aaccde44cdb4da436907ae3d06a392b3ab76a280db255",
        "5a7a2f5bfa4576da716c15ab3074c4daceeb0c9040862331e81630413ff5aeb5",
        "6fbb54d9e82510a8c7ee0a270373d1852891505d22e13540c5c960ebbf10c0c8",
    ),
    "nullsep/nemepca": (
        "d028f98f53a7abb560bc7aef16cdac4ceda62681c7328f2a6e8ca276e686158f",
        "9208adba027b69eaded35841a57955878ab0fc1bd87c6a4b19b4d47f94aced3b",
        "979799f6281016a0be9f0109946c77da2ddc9ff5c35a56e38b79a558b1113bcd",
    ),
    "nullsep/nullpca": (
        "fb357b7fadf5f54396d2de9c41382526a80029fa5428d1c838dbe831fe27b041",
        "7a480c72f0c714d4fd91d5a8121099bb057f76fc362749092d65a1f5662d835b",
        "5233722a6ae96b0ed90f3e5042ab6f0489ede1f6748d0a71e43622712bdb4e34",
    ),
    "optional/nemepca": (
        "d16e0308c68c9d13dfa1598647f6adcf1d9a90cc00a504288f984809be3510a4",
        "edc6123863042899628b9cf5596992d5d0e8acd6fa8f4c4a89b53d848a20cfef",
        "17c9296100fea956d079bfe141c80efb3d15d956785e469d84237145f878fee6",
    ),
    "optional/nullpca": (
        "1d9b483a702158e57998f5f0dcd4a2e37d7cf11cc3eeb4a38e9264324a94341b",
        "91066a1ad7f60f2a3abaebb43ccbff18fd818acc8df08a65fad00c8141521ab3",
        "85dbd7b7e2d0589a7c54bdea2ded3acecaabd00df54f8718e7de0e72884afd09",
    ),
    "packed/nemepca": (
        "a3646238c94b381ec946f7dbf5fd63f68353578bc6dbf9bcc479b77da0d03532",
        "4111ba4b92a8c5bfb3976f3e5c7dc77ca49d00494367ff7939ab87987c503d03",
        "a8aac67274dc04e182ff2af8cc8683659b598b10c55f779f879331840b3067c0",
    ),
    "packed/nullpca": (
        "695075eb5a3d08e31b8c3926252d673dabfaac1e741c2c2a95132d33ee4d0a6a",
        "66e8d748b844f903557838c017f401c66e85e3312ade12161fee2069a3b25223",
        "8c76e3a670f0b7c572bab1ae8a2b28e469d867d7bb15c3ada80800bd0d786365",
    ),
}

# "<spec>/<preset>@<messages>": the same digests for the larger cases
GOLDEN_LARGE = {
    "mixed/nullpca@600": (
        "0f13d31b0808ab14637731528f9555a7b746ab02887bc5aac52bd62dad850080",
        "f295f57c6fb152e29e783eef0d6e54e888538d855b307e9497f78fe657202091",
        "1ee6ce55fab6b49f681d6047c1bff3929f8b8ba0d8c1d0e9972709b97a2e8d47",
    ),
    "chars/nemepca@600": (
        "a6f7658688c28faceeb7b88b1bebce76447f4b1394db28a1770eb1462a3a6b38",
        "4c6834aa5aad84e8d2d8d925b8001ba4f295254a0b8bf8ea783c413c068abaad",
        "c21fc2b2e8b43bc5547be395f4562313791450edea7e2c37f4146b3ca89a2fd4",
    ),
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


def digests(out):
    return tuple(hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ARTIFACTS)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_artifacts_match_golden_digests(case, runs, capsys):
    assert digests(runs(case)) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(GOLDEN_LARGE))
def test_large_artifacts_match_golden_digests(case, runs, capsys):
    assert digests(runs(case)) == GOLDEN_LARGE[case]


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
