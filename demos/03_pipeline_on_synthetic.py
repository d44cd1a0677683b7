#!/usr/bin/env python3
"""Full pipeline run on a bundled synthetic protocol, scored against truth.

Generates the mixed fixed/variable reference protocol, segments it with
the nullpca preset, and compares the result with the bare null-bytes
base segmentation.
"""

from protoseg import evaluate, refine, synth
from protoseg.model import segments_of

spec = synth.reference_specs()["mixed"]
messages, truth = synth.generate(spec)
print(f"spec {spec.name!r}: {len(messages)} messages, "
      f"e.g. {messages[0].payload.hex()}")

base_segs = [refine.null_segmenter(m) for m in messages]
result = refine.run_pipeline(messages, refine.preset("nullpca"))

base_report = evaluate.score_trace(base_segs, truth, messages, name="null_bytes")
pca_report = evaluate.score_trace(result.segmentations, truth, messages, name="nullpca")

print(f"\nedits applied by the pipeline: {len(result.edits)}")
for metric in ("exact_f1", "near_f1", "fms_like"):
    print(f"median {metric:9s}: base {base_report.medians[metric]:.3f} "
          f"-> nullpca {pca_report.medians[metric]:.3f}")

msg = messages[0]
print(f"\nmessage 0, truth cuts {truth.cuts[0]}:")
for name, seg in (("base", base_segs[0]), ("nullpca", result.segmentations[0])):
    parts = "|".join(value.hex() for value in segments_of(seg, msg))
    print(f"  {name:8s} {parts}")

print("\n" + evaluate.compare_csv([base_report, pca_report]).splitlines()[-1])
