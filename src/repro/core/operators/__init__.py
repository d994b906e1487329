"""Continuous-time (segment) operator implementations — Fig. 3 of the paper."""

from .aggregate_minmax import ContinuousExtremumAggregate
from .aggregate_sum import ContinuousSumAggregate, make_aggregate
from .base import AttributeBinding, ContinuousOperator, partial_evaluate
from .filter_op import ContinuousFilter
from .groupby import ContinuousGroupBy
from .join_op import ContinuousJoin, SymmetricSelfJoin
from .map_op import ContinuousMap, Projection
from .sampler import OutputSampler

__all__ = [
    "AttributeBinding",
    "ContinuousExtremumAggregate",
    "ContinuousFilter",
    "ContinuousGroupBy",
    "ContinuousJoin",
    "ContinuousMap",
    "ContinuousOperator",
    "ContinuousSumAggregate",
    "OutputSampler",
    "Projection",
    "SymmetricSelfJoin",
    "make_aggregate",
    "partial_evaluate",
]
