"""Continuous filter: the simplest selective-operator transform.

Fig. 3, row 1: per input segment, instantiate the equation system
``D = [x_i - c_i]`` from the segment's own models, solve ``D t R 0`` over
the segment's valid range, and emit ``{(t, x_i) | D t R 0}`` — the input
models restricted to the solution time ranges (point segments for
equality comparisons).
"""

from __future__ import annotations

from ..equation_system import EquationSystem
from ..predicate import BoolExpr
from ..segment import Segment
from .base import SelectiveOperator


class ContinuousFilter(SelectiveOperator):
    """Stateless selective operator over single segments.

    Parameters
    ----------
    predicate:
        The filter predicate; may mix modeled-attribute comparisons
        (compiled into the equation system) and discrete-attribute
        comparisons (folded to literals per segment).
    alias:
        Optional stream alias so qualified references (``S.price``)
        resolve against this input.
    """

    arity = 1

    def __init__(self, predicate: BoolExpr, alias: str | None = None, name: str = "filter"):
        super().__init__(predicate)
        self.alias = alias
        self.name = name

    def _probe_segment(self, segment: Segment):
        return self._probe(
            {self.alias: segment},
            segment.fold_sig,
            segment.content_sig,
            segment.t_start,
            segment.t_end,
        )

    def process(self, segment: Segment, port: int = 0) -> list[Segment]:
        residual, system, solution = self._probe_segment(segment)
        if system is None:
            if residual.value:
                return [segment]
            return []
        if solution is None:
            self.systems_solved += 1
            solution = system.solve(segment.t_start, segment.t_end)
            # Successful solves only: a raising system never lands
            # here, so faulted content re-fails on every probe.
            self._solution_store.store(
                segment.content_sig,
                system,
                (segment.t_start, segment.t_end, solution),
            )
        outputs: list[Segment] = []
        for iv in solution.intervals:
            outputs.append(segment.restrict(iv.lo, iv.hi))
        for p in solution.points:
            outputs.append(segment.at_instant(p))
        return outputs

    def prime_tasks(self, segment: Segment, port: int = 0):
        """Exact prediction: the filter is stateless, so the system
        probed here is the one ``process`` will find in the store.
        Probes the store already answers predict nothing."""
        _, system, solution = self._probe_segment(segment)
        if system is None or solution is not None:
            return []
        return system.row_tasks(segment.t_start, segment.t_end)

    def slack_system(self, segment: Segment) -> EquationSystem | None:
        """The equation system for slack computation on a null result."""
        return self._probe_segment(segment)[1]
