"""Discrete stream-processing engine: the Borealis stand-in baseline.

Provides the tuple datatype, schemas, discrete operators (filter, map,
nested-loop sliding-window join, windowed aggregates with group-by), a
push-based plan executor, and the throughput/latency/queueing
instrumentation used by the benchmarks.
"""

from .metrics import (
    Counter,
    CounterRegistry,
    Gauge,
    QueueingModel,
    RunMetrics,
    Stopwatch,
    counter_snapshot,
    gauge_snapshot,
    get_counter,
    get_gauge,
    measure_service_time,
    reset_counters,
)
from .operators import (
    DiscreteFilter,
    DiscreteHashJoin,
    DiscreteMap,
    DiscreteNestedLoopJoin,
    DiscreteOperator,
    DiscreteWindowAggregate,
)
from .plan import DiscretePlan
from .resilience import BreakerConfig, BreakerState, CircuitBreaker
from .tuples import ColumnBatch, Schema, StreamDef, StreamTuple

__all__ = [
    "BreakerConfig",
    "BreakerState",
    "CircuitBreaker",
    "ColumnBatch",
    "Counter",
    "CounterRegistry",
    "DiscreteFilter",
    "DiscreteHashJoin",
    "DiscreteMap",
    "DiscreteNestedLoopJoin",
    "DiscreteOperator",
    "DiscretePlan",
    "DiscreteWindowAggregate",
    "Gauge",
    "QueueingModel",
    "RunMetrics",
    "Schema",
    "Stopwatch",
    "StreamDef",
    "StreamTuple",
    "counter_snapshot",
    "gauge_snapshot",
    "get_counter",
    "get_gauge",
    "measure_service_time",
    "reset_counters",
]
