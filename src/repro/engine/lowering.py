"""Lowering of logical plans to the discrete baseline engine.

The mirror image of :mod:`repro.core.transform`: the same logical nodes
become tuple-at-a-time operators (filter, map, nested-loop sliding-window
join, windowed aggregates), so benchmark comparisons run identical query
shapes through both engines.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from ..core.errors import PlanError
from .operators import (
    DiscreteFilter,
    DiscreteMap,
    DiscreteNestedLoopJoin,
    DiscreteWindowAggregate,
)
from .plan import DiscreteNodeRef, DiscretePlan
from .tuples import StreamTuple

if TYPE_CHECKING:  # pragma: no cover
    from ..query.planner import PlannedQuery


class LoweredQuery:
    """A discrete plan plus input-wiring metadata."""

    def __init__(self, plan: DiscretePlan, stream_sources: dict[str, list[str]]):
        self.plan = plan
        self.stream_sources = stream_sources

    def push(self, stream: str, tup: StreamTuple) -> list[StreamTuple]:
        sources = self.stream_sources.get(stream)
        if not sources:
            raise PlanError(
                f"query has no scan of stream {stream!r}; "
                f"streams: {list(self.stream_sources)}"
            )
        outputs: list[StreamTuple] = []
        for source in sources:
            outputs.extend(self.plan.push(source, tup))
        return outputs

    def renamed(self, stream_map: Mapping[str, str]) -> "LoweredQuery":
        """This query fed from streams renamed by ``stream_map``."""
        return LoweredQuery(
            self.plan,
            {stream_map[s]: src for s, src in self.stream_sources.items()},
        )

    def flush(self) -> list[StreamTuple]:
        return self.plan.flush()

    def reset(self) -> None:
        self.plan.reset()


def to_discrete_plan(planned: "PlannedQuery") -> LoweredQuery:
    """Lower a planned query to a discrete (tuple) plan."""
    from ..query.logical import (
        LogicalAggregate,
        LogicalFilter,
        LogicalJoin,
        LogicalNode,
        LogicalProject,
        LogicalScan,
    )

    plan = DiscretePlan("discrete")

    def lower(node: LogicalNode) -> tuple[DiscreteNodeRef, str | None]:
        if isinstance(node, LogicalScan):
            ref = plan.add_source(node.source_name)
            return ref, node.binding_name
        if isinstance(node, LogicalFilter):
            child, alias = lower(node.child)
            op = DiscreteFilter(node.predicate, alias=alias)
            return plan.add_operator(op, [child]), alias
        if isinstance(node, LogicalProject):
            child, alias = lower(node.child)
            op = DiscreteMap(node.projections, alias=alias)
            return plan.add_operator(op, [child]), None
        if isinstance(node, LogicalJoin):
            left, _ = lower(node.left)
            right, _ = lower(node.right)
            op = DiscreteNestedLoopJoin(
                node.predicate,
                left_alias=node.left_alias,
                right_alias=node.right_alias,
                window=node.window,
            )
            return plan.add_operator(op, [(left, 0), (right, 1)]), None
        if isinstance(node, LogicalAggregate):
            child, _ = lower(node.child)
            op = DiscreteWindowAggregate(
                node.attr.split(".")[-1],
                node.func,
                window=node.window,
                slide=node.slide,
                output_attr=node.output_attr,
                group_fields=tuple(f.split(".")[-1] for f in node.group_fields),
            )
            return plan.add_operator(op, [child]), None
        raise PlanError(f"cannot lower logical node {node!r}")

    root, _ = lower(planned.root)
    plan.set_output(root)
    return LoweredQuery(plan, dict(planned.stream_sources))
