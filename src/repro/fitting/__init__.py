"""Model fitting: regression, online segmentation, segment building."""

from .model_builder import (
    StreamModelBuilder,
    build_segments,
    compile_model_clause,
    predictive_segment,
)
from .regression import FitResult, fit_polynomial
from .segmentation import OnlineSegmenter, SegmentFit

__all__ = [
    "FitResult",
    "OnlineSegmenter",
    "SegmentFit",
    "StreamModelBuilder",
    "build_segments",
    "compile_model_clause",
    "fit_polynomial",
    "predictive_segment",
]
