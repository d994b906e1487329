"""Query transform: logical plan → plan of simultaneous equation systems.

This is the paper's Section III-C query transform: each logical operator
is replaced, operator by operator, with its continuous (segment)
implementation, producing a :class:`ContinuousPlan` whose every node
consumes and produces segments.

The inverse-direction lowering to the discrete baseline engine lives in
:mod:`repro.engine.lowering`; the two share logical plans so every
benchmark compares the same query shape on both paths.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import PlanError
from .operators import (
    ContinuousFilter,
    ContinuousGroupBy,
    ContinuousJoin,
    ContinuousMap,
    ContinuousOperator,
    make_aggregate,
)
from .plan import ContinuousPlan, NodeRef
from .segment import Segment, resolve_constant

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from ..query.planner import PlannedQuery


class TransformedQuery:
    """A continuous plan plus input-wiring metadata.

    ``push(stream, segment)`` fans the segment out to every scan of the
    stream (self-joins scan the same stream twice) and returns the output
    segments of the whole query.
    """

    def __init__(
        self,
        plan: ContinuousPlan,
        stream_sources: dict[str, list[str]],
        sample_period: float | None = None,
        inferred_period: float | None = None,
        error_bound: object = None,
    ):
        self.plan = plan
        self.stream_sources = stream_sources
        self.sample_period = sample_period
        #: Output rate inferred from the aggregates' slide parameters
        #: (Section III-C); used when no explicit SAMPLE PERIOD is given.
        self.inferred_period = inferred_period
        self.error_bound = error_bound

    @property
    def effective_sample_period(self) -> float | None:
        """Explicit ``SAMPLE PERIOD`` if given, else the slide-derived rate."""
        if self.sample_period is not None:
            return self.sample_period
        return self.inferred_period

    def push(self, stream: str, segment: Segment) -> list[Segment]:
        sources = self.stream_sources.get(stream)
        if not sources:
            raise PlanError(
                f"query has no scan of stream {stream!r}; "
                f"streams: {list(self.stream_sources)}"
            )
        outputs: list[Segment] = []
        for source in sources:
            outputs.extend(self.plan.push(source, segment))
        return outputs

    def materialize(self, outputs: list[Segment]) -> list[dict]:
        """Sample output segments into tuples (Section III-C).

        Uses the explicit ``SAMPLE PERIOD`` or the aggregate-slide
        inference; selective-only queries must specify a rate.
        """
        period = self.effective_sample_period
        if period is None:
            raise PlanError(
                "output sampling needs a rate: add SAMPLE PERIOD to the "
                "query (selective operators have no inferable output rate)"
            )
        from .operators.sampler import OutputSampler

        sampler = OutputSampler(period)
        rows: list[dict] = []
        for segment in outputs:
            rows.extend(sampler.tuples(segment))
        return rows

    def reset(self) -> None:
        self.plan.reset()


def to_continuous_plan(
    planned: "PlannedQuery", approximate_degree: int | None = 2
) -> TransformedQuery:
    """Lower a planned query to a continuous (equation-system) plan."""
    from ..query.logical import (
        LogicalAggregate,
        LogicalFilter,
        LogicalJoin,
        LogicalNode,
        LogicalProject,
        LogicalScan,
    )

    plan = ContinuousPlan("continuous")

    def lower(node: LogicalNode) -> tuple[NodeRef, str | None]:
        """Returns ``(plan node, binding alias of its output)``."""
        if isinstance(node, LogicalScan):
            ref = plan.add_source(node.source_name)
            return ref, node.binding_name
        if isinstance(node, LogicalFilter):
            child, alias = lower(node.child)
            op = ContinuousFilter(node.predicate, alias=alias)
            return plan.add_operator(op, [child]), alias
        if isinstance(node, LogicalProject):
            child, alias = lower(node.child)
            op = ContinuousMap(
                node.projections,
                alias=alias,
                approximate_degree=approximate_degree,
            )
            return plan.add_operator(op, [child]), None
        if isinstance(node, LogicalJoin):
            left, _ = lower(node.left)
            right, _ = lower(node.right)
            op = ContinuousJoin(
                node.predicate,
                left_alias=node.left_alias,
                right_alias=node.right_alias,
                window=node.window,
            )
            return plan.add_operator(op, [(left, 0), (right, 1)]), None
        if isinstance(node, LogicalAggregate):
            child, _ = lower(node.child)
            op = _build_groupby(node)
            return plan.add_operator(op, [child]), None
        raise PlanError(f"cannot lower logical node {node!r}")

    root, _ = lower(planned.root)
    plan.set_output(root)
    # Section III-C: an aggregate's output rate is implied by its window
    # slide; the smallest slide in the plan bounds the output rate.
    slides = [
        node.slide
        for node in planned.root.walk()
        if isinstance(node, LogicalAggregate) and node.slide
    ]
    return TransformedQuery(
        plan,
        stream_sources=dict(planned.stream_sources),
        sample_period=(
            planned.sample_spec.period if planned.sample_spec else None
        ),
        inferred_period=min(slides) if slides else None,
        error_bound=planned.error_spec,
    )


class AggregateFactory:
    """Picklable zero-arg factory building one aggregate instance.

    Plans are pickled wholesale by the durability snapshot, so the
    group-by's per-group factory cannot be a closure — this class
    carries the aggregate parameters as plain attributes instead.
    """

    def __init__(self, func, attr, window, slide, output_attr):
        self.func = func
        self.attr = attr
        self.window = window
        self.slide = slide
        self.output_attr = output_attr

    def __call__(self) -> ContinuousOperator:
        return make_aggregate(
            self.func,
            self.attr,
            window=self.window,
            slide=self.slide,
            output_attr=self.output_attr,
        )


class ConstantFieldsKey:
    """Picklable grouping key over a segment's unmodeled constants."""

    def __init__(self, group_fields: tuple[str, ...]):
        self.group_fields = tuple(group_fields)

    def __call__(self, segment: Segment):
        return tuple(
            resolve_constant(segment, f) for f in self.group_fields
        )


def _build_groupby(node) -> ContinuousOperator:
    """Per-group continuous aggregate for a LogicalAggregate node."""
    factory = AggregateFactory(
        node.func, node.attr, node.window, node.slide, node.output_attr
    )
    group_key = (
        ConstantFieldsKey(tuple(node.group_fields))
        if node.group_fields
        else None
    )
    return ContinuousGroupBy(
        factory,
        group_key=group_key,
        name=f"group-by({node.func}({node.attr}))",
    )
