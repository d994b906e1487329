"""Pulse's two operating modes (Section II-A).

**Predictive processing** runs the query on models of *unseen* data: a
tuple instantiates a predictive model via the query's MODEL clause, the
equation-system plan precomputes results off into the future, and
subsequent real tuples are merely *validated* against the model — the
solver re-executes only on a bound violation (or when no model is
active).  This is what lets Pulse process far fewer items than a
tuple-at-a-time engine.

**Historical processing** fits a model of a recorded stream once and
feeds the compact segment stream to many queries ("what-if" /
parameter-sweep analysis), amortizing the modeling cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from ..engine.tuples import StreamTuple
from ..fitting.model_builder import build_segments, predictive_segment

from .expr import Expr
from .segment import Segment
from .transform import TransformedQuery, to_continuous_plan
from .validation.bounds import ErrorBound
from .validation.inversion import collect_dependencies
from .validation.splitters import SplitHeuristic
from .validation.validator import Outcome, QueryValidator


@dataclass
class PredictiveStats:
    tuples_in: int = 0
    models_built: int = 0
    tuples_dropped: int = 0
    violations: int = 0

    @property
    def drop_rate(self) -> float:
        return self.tuples_dropped / self.tuples_in if self.tuples_in else 0.0


class PredictiveProcessor:
    """Online predictive execution of one transformed query.

    Parameters
    ----------
    planned:
        The planned query (from :func:`repro.query.plan_query`).
    model_exprs:
        ``attribute -> MODEL expression`` used to instantiate predictive
        models from tuples (the query's MODEL clauses).
    horizon:
        Prediction horizon: each model is valid ``horizon`` seconds past
        its instantiating tuple.
    bound:
        Output accuracy bound (from ``ERROR WITHIN``).
    key_fields / constant_fields:
        Tuple fields forming the key / carried as unmodeled attributes.
    splitter:
        Bound split heuristic ("equi" or "gradient", Section IV-C).
    """

    def __init__(
        self,
        planned,
        model_exprs: Mapping[str, Expr],
        horizon: float,
        bound: ErrorBound,
        key_fields: Sequence[str] = (),
        constant_fields: Sequence[str] = (),
        splitter: str | SplitHeuristic = "equi",
        slack_validation: bool = True,
    ):
        self.planned = planned
        self.model_exprs = dict(model_exprs)
        self.horizon = horizon
        self.key_fields = tuple(key_fields)
        self.constant_fields = tuple(constant_fields)
        self.query: TransformedQuery = to_continuous_plan(planned)
        self.validator = QueryValidator(
            self.query,
            bound,
            splitter=splitter,
            dependencies=collect_dependencies(planned.root),
        )
        self.slack_validation = slack_validation
        self.stats = PredictiveStats()
        #: The single input stream this processor feeds (queries with one
        #: base stream; self-joins fan out internally).
        self._stream = next(iter(planned.stream_sources))

    @classmethod
    def from_query(
        cls,
        planned,
        horizon: float,
        bound: ErrorBound | None = None,
        key_fields: Sequence[str] = (),
        constant_fields: Sequence[str] = (),
        **kwargs,
    ) -> "PredictiveProcessor":
        """Build a processor from the query's own MODEL clauses.

        Figure 1's declarative specification (``FROM A MODEL A.x = A.x +
        A.v * t``) carries the model expressions inside the query text;
        this constructor extracts them from the planned scans.  The
        error bound likewise defaults to the query's ``ERROR WITHIN``.
        """
        from ..query.logical import LogicalScan

        model_exprs: dict[str, Expr] = {}
        for node in planned.root.walk():
            if not isinstance(node, LogicalScan):
                continue
            for clause in node.models:
                attr = clause.attr.split(".")[-1]
                model_exprs[attr] = clause.expr
        if not model_exprs:
            from .errors import PlanError

            raise PlanError(
                "the query declares no MODEL clauses; pass model_exprs "
                "to PredictiveProcessor directly"
            )
        if bound is None:
            if planned.error_spec is None:
                raise ValueError(
                    "no bound given and the query has no ERROR WITHIN"
                )
            bound = ErrorBound.from_spec(planned.error_spec)
        return cls(
            planned,
            model_exprs=model_exprs,
            horizon=horizon,
            bound=bound,
            key_fields=key_fields,
            constant_fields=constant_fields,
            **kwargs,
        )

    # ------------------------------------------------------------------
    def process_tuple(self, tup: StreamTuple) -> list[Segment]:
        """Validate one tuple; re-model and re-solve only when needed.

        Returns newly produced (predicted) output segments — empty when
        the tuple was dropped by validation.
        """
        self.stats.tuples_in += 1
        key = tup.key(self.key_fields)
        outcomes = [
            self.validator.validate(key, attr, tup.time, float(tup[attr]))
            for attr in self.model_exprs
            if attr in tup
        ]
        if outcomes and all(o.can_drop for o in outcomes):
            if not self.slack_validation and any(
                o is Outcome.WITHIN_SLACK for o in outcomes
            ):
                # Ablation hook: slack validation disabled means nulls
                # force re-solving on every tuple.
                return self._rebuild(tup)
            self.stats.tuples_dropped += 1
            return []
        if any(o is Outcome.VIOLATION for o in outcomes):
            self.stats.violations += 1
        return self._rebuild(tup)

    def _rebuild(self, tup: StreamTuple) -> list[Segment]:
        """Instantiate a fresh predictive model and run the solver."""
        segment = predictive_segment(
            tup,
            self.model_exprs,
            horizon=self.horizon,
            key_fields=self.key_fields,
            constants=self.constant_fields,
        )
        self.stats.models_built += 1
        outputs = self.validator.ingest(self._stream, segment)
        return outputs

    def evict_before(self, watermark: float) -> None:
        self.validator.evict_before(watermark)


class HistoricalProcessor:
    """Offline what-if execution: model once, query many times.

    Parameters
    ----------
    tuples:
        The recorded stream (replayed from disk in the paper).
    attrs:
        Modeled attributes to fit.
    tolerance:
        Segmentation tolerance (absolute residual per piece).
    """

    def __init__(
        self,
        tuples: Iterable[StreamTuple],
        attrs: Sequence[str],
        tolerance: float,
        key_fields: Sequence[str] = (),
        constant_fields: Sequence[str] = (),
    ):
        self.segments = build_segments(
            list(tuples),
            attrs=attrs,
            tolerance=tolerance,
            key_fields=key_fields,
            constants=constant_fields,
        )

    @property
    def segment_count(self) -> int:
        return len(self.segments)

    def run(self, planned, stream: str | None = None) -> list[Segment]:
        """Execute one query over the stored model."""
        query = to_continuous_plan(planned)
        stream = stream or next(iter(planned.stream_sources))
        outputs: list[Segment] = []
        for segment in self.segments:
            outputs.extend(query.push(stream, segment))
        return outputs

    def run_many(
        self, planned_queries: Sequence, stream: str | None = None
    ) -> list[list[Segment]]:
        """The what-if sweep: every query reuses the same fitted model."""
        return [self.run(planned, stream) for planned in planned_queries]
