"""Query transform: logical plan → plan of simultaneous equation systems.

This is the paper's Section III-C query transform: each logical operator
is replaced, operator by operator, with its continuous (segment)
implementation, producing a :class:`ContinuousPlan` whose every node
consumes and produces segments.

A join of a stream with itself that is invariant under swapping its two
sides (see :mod:`repro.core.symmetry`) is rewritten on the way: one
source, a :class:`~repro.core.operators.SymmetricSelfJoin` that computes
each unordered pair once, group-bys that share a state between a group
and its mirror, and an output stage that emits each result's mirror
twin.  Its answers are bit-identical to the plain lowering's, which
:func:`_plain_continuous_plan` keeps reachable for tests.

The inverse-direction lowering to the discrete baseline engine lives in
:mod:`repro.engine.lowering`; the two share logical plans so every
benchmark compares the same query shape on both paths.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from .errors import PlanError
from .expr import Attr
from .operators import (
    ContinuousFilter,
    ContinuousGroupBy,
    ContinuousJoin,
    ContinuousMap,
    ContinuousOperator,
    SymmetricSelfJoin,
    make_aggregate,
)
from .plan import ContinuousPlan, NodeRef
from .segment import Segment, resolve_constant
from .symmetry import (
    INV,
    GroupMirror,
    MirrorTwins,
    Swap,
    distinct_attrs,
    invariant_predicate,
    parity,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from ..query.planner import PlannedQuery


class TransformedQuery:
    """A continuous plan plus input-wiring metadata.

    ``push(stream, segment)`` fans the segment out to every source of the
    stream and returns the output segments of the whole query.  A plain
    self-join scans its stream twice; a rewritten one has one source and
    its plan appends the mirror twins.
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

    def renamed(self, stream_map: Mapping[str, str]) -> "TransformedQuery":
        """This query fed from streams renamed by ``stream_map``.

        Shares the plan and carries every other field, so a caller that
        re-namespaces the inputs (the server's per-graph stream names)
        keeps whatever the lowering built, a self-join's mirror stage
        included.
        """
        query = copy.copy(self)
        query.stream_sources = {
            stream_map[stream]: sources
            for stream, sources in self.stream_sources.items()
        }
        return query

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
    """Lower a planned query to a continuous (equation-system) plan.

    A swap-invariant self-join is rewritten to compute each unordered
    pair once (see the module docstring); its answers are unchanged.
    """
    return _lower(planned, approximate_degree, _self_join_symmetry(planned))


def _plain_continuous_plan(
    planned: "PlannedQuery", approximate_degree: int | None = 2
) -> TransformedQuery:
    """The lowering without the self-join rewrite: the reference the
    rewritten plans are tested against."""
    return _lower(planned, approximate_degree, None)


def _lower(
    planned: "PlannedQuery",
    approximate_degree: int | None,
    symmetry: "_SelfJoinSymmetry | None",
) -> TransformedQuery:
    from ..query.logical import (
        LogicalAggregate,
        LogicalFilter,
        LogicalJoin,
        LogicalNode,
        LogicalProject,
        LogicalScan,
    )

    plan = ContinuousPlan("continuous")
    stream_sources = dict(planned.stream_sources)

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
        if symmetry is not None and node is symmetry.join:
            scan = node.left
            stream_sources[scan.stream] = [scan.source_name]
            op = SymmetricSelfJoin(
                node.predicate,
                left_alias=node.left_alias,
                right_alias=node.right_alias,
                window=node.window,
            )
            source = plan.add_source(scan.source_name)
            return plan.add_operator(op, [source]), None
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
            mirror = symmetry.groups[id(node)] if symmetry else None
            op = _build_groupby(node, mirror)
            return plan.add_operator(op, [child]), None
        raise PlanError(f"cannot lower logical node {node!r}")

    root, _ = lower(planned.root)
    plan.set_output(
        root, MirrorTwins(symmetry.output) if symmetry else None
    )
    # Section III-C: an aggregate's output rate is implied by its window
    # slide; the smallest slide in the plan bounds the output rate.
    slides = [
        node.slide
        for node in planned.root.walk()
        if isinstance(node, LogicalAggregate) and node.slide
    ]
    return TransformedQuery(
        plan,
        stream_sources=stream_sources,
        sample_period=(
            planned.sample_spec.period if planned.sample_spec else None
        ),
        inferred_period=min(slides) if slides else None,
        error_bound=planned.error_spec,
    )


@dataclass
class _SelfJoinSymmetry:
    """Where a swap-invariant self-join plan needs its rewrite."""

    #: The logical join lowered to a :class:`SymmetricSelfJoin`.
    join: object
    #: The swap at the plan's output: the mirror stage's rename map.
    output: Swap
    #: ``id(LogicalAggregate) -> GroupMirror`` for every group-by.
    groups: dict[int, GroupMirror] = field(default_factory=dict)


def _self_join_symmetry(planned: "PlannedQuery") -> _SelfJoinSymmetry | None:
    """The rewrite's plan-time facts, or ``None`` if it does not fire.

    It fires when the plan is a chain of filters, projections and
    aggregates over one join whose inputs scan the same stream (its
    only two scans) with equal windows and ``MODEL`` clauses, and when

    * the join predicate is swap-invariant and has a top-level conjunct
      ``<left>.a <> <right>.a``, so no segment pairs with itself;
    * every filter above is swap-invariant;
    * every projection maps the swap onto its columns: each is
      invariant or has a twin column (``S1.id as id1`` / ``S2.id as
      id2``);
    * every aggregate reads an invariant column, and groups by a
      swap-closed set of fields holding some ``<left>.a`` and its
      ``<right>.a``, so a group is never its own mirror.
    """
    from ..query.logical import (
        LogicalAggregate,
        LogicalFilter,
        LogicalJoin,
        LogicalProject,
        LogicalScan,
    )

    chain = []
    node = planned.root
    while isinstance(node, (LogicalFilter, LogicalProject, LogicalAggregate)):
        chain.append(node)
        node = node.child
    join = node
    if not (
        isinstance(join, LogicalJoin)
        and isinstance(join.left, LogicalScan)
        and isinstance(join.right, LogicalScan)
    ):
        return None
    left, right = join.left, join.right
    if (
        left.stream != right.stream
        or left.window != right.window
        or left.models != right.models
        or join.left_alias == join.right_alias
        or planned.stream_sources.get(left.stream)
        != [left.source_name, right.source_name]
    ):
        return None
    swap = Swap(join.left_alias, join.right_alias)
    distinct = distinct_attrs(join.predicate, swap)
    if not distinct or not invariant_predicate(join.predicate, swap):
        return None
    symmetry = _SelfJoinSymmetry(join, swap)
    # Column -> the join column it is a plain rename of.
    renames: dict[str, str] = {}

    def renamed_from(name: str) -> str | None:
        return name if swap.qualified(name) else renames.get(name)

    for op in reversed(chain):
        if isinstance(op, LogicalFilter):
            if not invariant_predicate(op.predicate, swap):
                return None
        elif isinstance(op, LogicalProject):
            swap = _projected_swap(op.projections, swap)
            if swap is None:
                return None
            renames = {
                **renames,
                **{
                    p.name: (
                        renamed_from(p.expr.name)
                        if isinstance(p.expr, Attr)
                        else None
                    )
                    for p in op.projections
                },
            }
        else:
            rows = swap
            swap = swap.with_static({op.output_attr: op.output_attr})
            fields = op.group_fields
            if swap is None or rows.name(op.attr) != op.attr or not fields:
                return None
            twins = [rows.name(f) for f in fields]
            if not all(t in fields for t in twins):
                return None
            if not any(
                renamed_from(f) == f"{join.left_alias}.{a}"
                and renamed_from(t) == f"{join.right_alias}.{a}"
                for f, t in zip(fields, twins)
                for a in distinct
            ):
                return None
            perm = tuple(fields.index(t) for t in twins)
            symmetry.groups[id(op)] = GroupMirror(perm, rows, swap)
    symmetry.output = swap
    return symmetry


def _projected_swap(projections, swap: Swap) -> Swap | None:
    """The swap after ``projections``; ``None`` if some column has no
    twin (e.g. ``S1.x - S2.x``, which the swap negates)."""
    names = [p.name for p in projections]
    if len(set(names)) != len(names):
        return None
    pairs = {}
    for p in projections:
        if parity(p.expr, swap) == INV:
            image = p.name
        else:
            twin = swap.expr(p.expr)
            image = next(
                (q.name for q in projections if q.expr == twin), None
            )
            if image is None:
                return None
        if swap.qualified(p.name):
            # A join column passed through under its own name.
            if image != swap.name(p.name):
                return None
        else:
            pairs[p.name] = image
    return swap.with_static(pairs)


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


def _build_groupby(node, mirror: GroupMirror | None = None) -> ContinuousOperator:
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
        mirror=mirror,
    )
