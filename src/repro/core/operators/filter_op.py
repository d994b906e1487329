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
        return self._probe(
            {self.alias: segment},
            segment.fold_sig,
            segment.content_sig,
            segment.t_start,
            segment.t_end,
        )

    def process(self, segment: Segment, port: int = 0) -> list[Segment]:
        return next(self.process_run((segment,), port))

    def process_run(
        self, segments: Sequence[Segment], port: int = 0
    ) -> Iterator[list[Segment]]:
        """Filter a run of inputs with one pooled kernel sweep.

        Probes every input once, solves every system the solution store
        does not answer in one :func:`solve_systems_batch` call, then
        stores and emits per input, in input order.  What the store
        holds and ``systems_solved`` counts end where one ``process``
        call per input leaves them:

        * an input repeating the content of an earlier input whose solve
          is still pending is probed only once that solve is stored, as
          it would be one at a time — usually a store hit; if not, it
          solves on its own;
        * every input touches its store entry again in input order, so
          the store's recency order, which decides its evictions, is the
          one-at-a-time order too;
        * a failure (a probe that raises, a system whose solve fails)
          surfaces at its own input, after the inputs before it were
          stored and yielded; no input behind it is counted or has its
          solution stored (their systems stay compiled in the store).
        """
        steps: list[tuple | None] = []  # None: probed when its turn comes
        jobs: list[tuple[EquationSystem, float, float]] = []
        waiting: set = set()  # content sigs of this run's pending jobs
        probe_error: Exception | None = None
        for segment in segments:
            sig = segment.content_sig
            if sig is not None and sig in waiting:
                steps.append(None)
                continue
            try:
                residual, system, solution = self._probe_segment(segment)
            except Exception as exc:
                probe_error = exc
                break
            job = None
            if system is not None and solution is None:
                job = len(jobs)
                jobs.append((system, segment.t_start, segment.t_end))
                if sig is not None:
                    waiting.add(sig)
            steps.append((residual, system, solution, job))
        failures: dict[int, SolverError] = {}
        solved = solve_systems_batch(jobs, failures) if jobs else []
        for segment, step in zip(segments, steps):
            if step is None:
                residual, system, solution = self._probe_segment(segment)
                if system is not None and solution is None:
                    self.systems_solved += 1
                    solution = solve_systems_batch(
                        [(system, segment.t_start, segment.t_end)]
                    )[0]
            else:
                residual, system, solution, job = step
                if job is not None:
                    self.systems_solved += 1
                    if job in failures:
                        raise failures[job]
                    solution = solved[job]
            if system is None:
                yield [segment] if residual.value else []
                continue
            # Successful solves only: a raising system never lands
            # here, so faulted content re-fails on every probe.  For a
            # stored answer this only refreshes the entry's recency.
            self._solution_store.store(
                segment.content_sig,
                system,
                (segment.t_start, segment.t_end, solution),
            )
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
