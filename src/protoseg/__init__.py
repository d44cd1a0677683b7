"""protoseg: field-boundary inference for unknown binary network protocols.

A coarse message segmentation (from the null-byte or bit-congruence
base segmenter, or imported from elsewhere) is refined by clustering
similar segments, analyzing each cluster's byte-wise covariance
spectrum, and moving or adding boundaries where the variance structure
marks field transitions.  Synthetic-protocol generation and a scoring
harness against ground truth round out the toolkit.

The usual entry points:

    traceio.load_trace / TraceSpec     ingest pcap or hexline traces
    refine.preset / run_pipeline       segment with nullpca or nemepca
    synth.generate / reference_specs   fixtures with exact ground truth
    evaluate.score_trace               compare against ground truth
"""

from .model import AnalysisParams, GroundTruth, Message, Segmentation, segments_of
from .refine import Pipeline, PipelineConfig, preset, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "AnalysisParams",
    "GroundTruth",
    "Message",
    "Pipeline",
    "PipelineConfig",
    "Segmentation",
    "preset",
    "run_pipeline",
    "segments_of",
    "__version__",
]
