"""Continuous filter: the simplest selective-operator transform.

Fig. 3, row 1: per input segment, instantiate the equation system
``D = [x_i - c_i]`` from the segment's own models, solve ``D t R 0`` over
the segment's valid range, and emit ``{(t, x_i) | D t R 0}`` — the input
models restricted to the solution time ranges (point segments for
equality comparisons).  The systems of a whole run of inputs (e.g. the
window pieces one aggregate arrival emits) solve in one kernel sweep.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ..equation_system import EquationSystem, solve_systems_batch
from ..errors import SolverError
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
        return self._probe({self.alias: segment}, segment.fold_sig)

    def process(self, segment: Segment, port: int = 0) -> list[Segment]:
        return next(self.process_run((segment,), port))

    def process_run(
        self, segments: Sequence[Segment], port: int = 0
    ) -> Iterator[list[Segment]]:
        """Filter a run of inputs with one pooled kernel sweep.

        Probes every input once, solves every compiled system in one
        :func:`solve_systems_batch` call, then emits per input, in
        input order.  A failure (a probe that raises, a system whose
        solve fails) surfaces at its own input, after the inputs before
        it were yielded; no input behind it is counted.
        """
        steps: list[tuple] = []  # (residual, job index or None)
        jobs: list[tuple[EquationSystem, float, float]] = []
        probe_error: Exception | None = None
        for segment in segments:
            try:
                residual, system = self._probe_segment(segment)
            except Exception as exc:
                probe_error = exc
                break
            job = None
            if system is not None:
                job = len(jobs)
                jobs.append((system, segment.t_start, segment.t_end))
            steps.append((residual, job))
        failures: dict[int, SolverError] = {}
        solved = solve_systems_batch(jobs, failures) if jobs else []
        for segment, (residual, job) in zip(segments, steps):
            if job is None:
                yield [segment] if residual.value else []
                continue
            self.systems_solved += 1
            if job in failures:
                raise failures[job]
            solution = solved[job]
            outputs = [
                segment.restrict(iv.lo, iv.hi) for iv in solution.intervals
            ]
            outputs.extend(segment.at_instant(p) for p in solution.points)
            yield outputs
        if probe_error is not None:
            raise probe_error

    def slack_system(self, segment: Segment) -> EquationSystem | None:
        """The equation system for slack computation on a null result."""
        return self._probe_segment(segment)[1]
