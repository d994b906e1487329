"""Model fitting: regression, time-series segmentation, segment building."""

from .model_builder import (
    StreamModelBuilder,
    build_segments,
    compile_model_clause,
    predictive_segment,
)
from .regression import FitResult, fit_polynomial
from .segmentation import (
    OnlineSegmenter,
    SegmentFit,
    bottom_up_segmentation,
    sliding_window_segmentation,
    swab_segmentation,
)

__all__ = [
    "FitResult",
    "OnlineSegmenter",
    "SegmentFit",
    "StreamModelBuilder",
    "bottom_up_segmentation",
    "build_segments",
    "compile_model_clause",
    "fit_polynomial",
    "predictive_segment",
    "sliding_window_segmentation",
    "swab_segmentation",
]
