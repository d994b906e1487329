"""Continuous query plans: DAGs of equation-system operators.

Pulse performs operator-by-operator transformation of a regular stream
query, instantiating "an internal query plan comprised of simultaneous
equation systems" (Section III-C).  :class:`ContinuousPlan` is that plan:
a DAG whose nodes wrap :class:`ContinuousOperator` instances and whose
edges route segments — segments are the plan's first-class datatype.

The executor is push-based: :meth:`push` delivers one input segment to a
source and drains the resulting cascade, returning the segments that
reached the plan's output.  Per-node counters feed the benchmarks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from .errors import PlanError
from .operators.base import ContinuousOperator
from .segment import Segment


@dataclass
class PlanNode:
    """One node of the plan DAG."""

    node_id: int
    operator: ContinuousOperator | None  # None for sources
    label: str
    #: Downstream edges as ``(successor_id, successor_port)``.
    successors: list[tuple[int, int]] = field(default_factory=list)
    #: Execution counters.
    segments_in: int = 0
    segments_out: int = 0

    @property
    def is_source(self) -> bool:
        return self.operator is None


class NodeRef:
    """Opaque handle to a plan node (returned by the builder methods)."""

    __slots__ = ("node_id", "_plan")

    def __init__(self, node_id: int, plan: "ContinuousPlan"):
        self.node_id = node_id
        self._plan = plan

    def __repr__(self) -> str:
        return f"NodeRef({self.node_id})"


#: Observer invoked for every (operator, input segment, outputs) step, used
#: by the lineage store during validated execution.
StepObserver = Callable[[PlanNode, Segment, list[Segment]], None]

#: Context-manager factory wrapping each run an operator processes (see
#: :meth:`ContinuousPlan._cascade`), installed by
#: :func:`repro.engine.tracing.enable_observability`; called with
#: ``(label, node_id, run_length)``.  Unlike :data:`StepObserver` (which
#: fires *after* each input's step), this wraps the whole run, so solve
#: spans opened while the run is processed nest under the operator span.
#: ``None`` (the default) keeps the cascade at one global load + ``is
#: None`` test per run.
_OPERATOR_TRACE: Callable | None = None


def set_operator_trace(hook: Callable | None) -> None:
    """Install (or clear) the operator span hook."""
    global _OPERATOR_TRACE
    _OPERATOR_TRACE = hook


def operator_trace() -> Callable | None:
    return _OPERATOR_TRACE


class ContinuousPlan:
    """Builder and push-based executor for a DAG of continuous operators."""

    def __init__(self, name: str = "plan"):
        self.name = name
        self._nodes: dict[int, PlanNode] = {}
        self._sources: dict[str, int] = {}
        self._output_id: int | None = None
        self._mirror_id: int | None = None
        self._next_id = 0
        self._observers: list[StepObserver] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_source(self, name: str) -> NodeRef:
        """Declare a named input stream."""
        if name in self._sources:
            raise PlanError(f"duplicate source {name!r}")
        node = self._new_node(None, f"source:{name}")
        self._sources[name] = node.node_id
        return NodeRef(node.node_id, self)

    def add_operator(
        self,
        operator: ContinuousOperator,
        inputs: Iterable[NodeRef | tuple[NodeRef, int]],
    ) -> NodeRef:
        """Add an operator fed by ``inputs``.

        Each input is a :class:`NodeRef` (port 0) or ``(ref, port)``.
        """
        node = self._new_node(operator, operator.name)
        wired = 0
        for item in inputs:
            ref, port = item if isinstance(item, tuple) else (item, 0)
            if ref._plan is not self:
                raise PlanError("input node belongs to a different plan")
            self._nodes[ref.node_id].successors.append((node.node_id, port))
            wired += 1
        if wired != operator.arity:
            raise PlanError(
                f"operator {operator.name!r} has arity {operator.arity}, "
                f"got {wired} inputs"
            )
        return NodeRef(node.node_id, self)

    def set_output(
        self, ref: NodeRef, mirror: ContinuousOperator | None = None
    ) -> None:
        """Make ``ref`` the output node.

        ``mirror`` is a swap-invariant self-join's output stage
        (:class:`~repro.core.symmetry.MirrorTwins`): every :meth:`push`
        then returns its results followed by each one's mirror twin, in
        the same order — the results the join's second input would
        have produced.
        """
        self._output_id = ref.node_id
        if mirror is not None:
            self._mirror_id = self._new_node(mirror, mirror.name).node_id

    def _new_node(self, operator: ContinuousOperator | None, label: str) -> PlanNode:
        node = PlanNode(self._next_id, operator, label)
        self._nodes[self._next_id] = node
        self._next_id += 1
        return node

    def add_observer(self, observer: StepObserver) -> None:
        """Register a per-step observer (e.g. the lineage recorder)."""
        self._observers.append(observer)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def sources(self) -> tuple[str, ...]:
        return tuple(self._sources)

    def node(self, ref: NodeRef) -> PlanNode:
        return self._nodes[ref.node_id]

    def nodes(self) -> Mapping[int, PlanNode]:
        return dict(self._nodes)

    def operators(self) -> list[ContinuousOperator]:
        return [n.operator for n in self._nodes.values() if n.operator]

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def push(self, source: str, segment: Segment) -> list[Segment]:
        """Deliver one segment to ``source`` and drain the cascade.

        Returns the segments that reached the output node (which are also
        produced if the output node has no successors and emits them).
        """
        if source not in self._sources:
            raise PlanError(
                f"unknown source {source!r}; declared: {list(self._sources)}"
            )
        if self._output_id is None:
            raise PlanError("plan has no output node; call set_output()")
        results: list[Segment] = []
        src = self._nodes[self._sources[source]]
        src.segments_in += 1
        src.segments_out += 1
        if self._sources[source] == self._output_id:
            results.append(segment)
        initial = [(succ_id, port, segment) for succ_id, port in src.successors]
        self._cascade(initial, results)
        if self._mirror_id is not None:
            self._mirror(results)
        return results

    def _mirror(self, results: list[Segment]) -> None:
        """Append each result's mirror twin, in result order."""
        node = self._nodes[self._mirror_id]
        twins: list[Segment] = []
        for out in results:
            node.segments_in += 1
            mirrored = node.operator.process(out)
            node.segments_out += len(mirrored)
            for observer in self._observers:
                observer(node, out, mirrored)
            twins.extend(mirrored)
        results.extend(twins)

    def _cascade(
        self,
        initial: list[tuple[int, int, Segment]],
        results: list[Segment],
    ) -> None:
        """Drain the FIFO cascade, handing each operator whole runs.

        A run is the maximal stretch of consecutive queue entries bound
        for the same ``(node, port)``.  FIFO order processes those back
        to back with nothing in between, so handing them over at once
        changes no order anywhere: the operator sees the same inputs in
        the same sequence, and each input's counters, observers and
        output routing happen as its outputs are drawn from
        :meth:`~ContinuousOperator.process_run` — before the next
        input's are, exactly as one ``process`` call per entry did.
        """
        queue: deque[tuple[int, int, Segment]] = deque(initial)
        while queue:
            node_id, port, seg = queue.popleft()
            run = [seg]
            while queue and queue[0][0] == node_id and queue[0][1] == port:
                run.append(queue.popleft()[2])
            node = self._nodes[node_id]
            hook = _OPERATOR_TRACE
            if hook is None:
                self._deliver(node, port, run, queue, results)
            else:
                with hook(node.label, node_id, len(run)):
                    self._deliver(node, port, run, queue, results)

    def _deliver(
        self,
        node: PlanNode,
        port: int,
        run: list[Segment],
        queue: deque[tuple[int, int, Segment]],
        results: list[Segment],
    ) -> None:
        """One run through ``node``; outputs join the queue per input."""
        steps = node.operator.process_run(run, port)
        to_output = node.node_id == self._output_id
        for seg in run:
            node.segments_in += 1
            outputs = next(steps)
            node.segments_out += len(outputs)
            for observer in self._observers:
                observer(node, seg, outputs)
            for out in outputs:
                if to_output:
                    results.append(out)
                for succ_id, succ_port in node.successors:
                    queue.append((succ_id, succ_port, out))

    def flush(self) -> list[Segment]:
        """Flush buffered operator state at end of stream.

        Nodes flush in construction order (topological, since inputs are
        built before their consumers); flushed segments cascade through
        downstream operators like regular arrivals.
        """
        results: list[Segment] = []
        for node_id in sorted(self._nodes):
            node = self._nodes[node_id]
            if node.operator is None:
                continue
            flushed = node.operator.flush()
            node.segments_out += len(flushed)
            for out in flushed:
                if node_id == self._output_id:
                    results.append(out)
                self._cascade(
                    [(succ_id, port, out) for succ_id, port in node.successors],
                    results,
                )
        return results

    def reset(self) -> None:
        for node in self._nodes.values():
            if node.operator is not None:
                node.operator.reset()
            node.segments_in = 0
            node.segments_out = 0

    def stats(self) -> dict[str, tuple[int, int]]:
        """Per-node ``(segments_in, segments_out)`` counters."""
        return {
            f"{n.node_id}:{n.label}": (n.segments_in, n.segments_out)
            for n in self._nodes.values()
        }

    def __repr__(self) -> str:
        return f"ContinuousPlan({self.name!r}, {len(self._nodes)} nodes)"
