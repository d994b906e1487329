"""Building Pulse segments from tuples: the modeling component.

Two entry points mirror the paper's two operating modes (Section II-A):

* **Predictive**: :func:`predictive_segment` instantiates a numerical
  model from a single input tuple using the query's declarative
  ``MODEL`` clause (Figure 1) — coefficient attributes take the tuple's
  values, the time variable ``t`` is the offset from the tuple's
  timestamp, and the segment is valid for a prediction horizon.
* **Historical**: :class:`StreamModelBuilder` runs the online
  segmentation algorithm over the recorded stream, per key and across
  all modeled attributes simultaneously (one cut closes every
  attribute's piece so a segment carries a consistent set of models).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ..core.expr import Expr
from ..core.polynomial import Polynomial
from ..core.segment import Segment
from ..engine.tuples import StreamTuple
from .segmentation import OnlineSegmenter, SegmentFit


def compile_model_clause(
    expr: Expr, coefficients: Mapping[str, float], t_origin: float
) -> Polynomial:
    """Turn a ``MODEL`` expression into an absolute-time polynomial.

    ``expr`` references coefficient attributes and the reserved variable
    ``t`` (the delta timestamp).  Coefficients are bound to the tuple's
    values; ``t`` becomes ``(absolute_time - t_origin)`` so the returned
    polynomial is directly comparable across streams.
    """

    def resolve(name: str) -> Polynomial:
        base = name.split(".")[-1]
        if base == "t":
            return Polynomial([-t_origin, 1.0])
        if name in coefficients:
            return Polynomial.constant(float(coefficients[name]))
        if base in coefficients:
            return Polynomial.constant(float(coefficients[base]))
        raise KeyError(f"model coefficient {name!r} not found in tuple")

    return expr.to_polynomial(resolve)


def predictive_segment(
    tup: StreamTuple,
    model_exprs: Mapping[str, Expr],
    horizon: float,
    key_fields: Sequence[str] = (),
    constants: Sequence[str] = (),
) -> Segment:
    """Instantiate a predictive segment from one tuple.

    Parameters
    ----------
    tup:
        The input tuple supplying coefficient values.
    model_exprs:
        ``attribute -> MODEL expression``; attribute names are stripped
        of stream qualifiers (the clause ``MODEL A.x = ...`` defines
        attribute ``x``).
    horizon:
        Segment validity: ``[tup.time, tup.time + horizon)``.
    """
    t0 = tup.time
    models = {
        attr.split(".")[-1]: compile_model_clause(expr, tup, t0)
        for attr, expr in model_exprs.items()
    }
    consts = {f: tup[f] for f in constants if f in tup}
    key = tup.key(key_fields)
    return Segment(
        key=key,
        t_start=t0,
        t_end=t0 + horizon,
        models=models,
        constants=consts,
    )


class MultiAttributeSegmenter:
    """Online segmentation across several attributes with shared cuts.

    A Pulse segment carries one model per attribute over a *single* time
    range, so whichever attribute first exceeds the tolerance cuts the
    piece for all of them.
    """

    def __init__(self, attrs: Sequence[str], tolerance: float):
        self.attrs = tuple(attrs)
        self.tolerance = tolerance
        self._segmenters = {a: OnlineSegmenter(tolerance) for a in attrs}
        self._start: float | None = None
        self._count = 0

    def add(
        self, t: float, values: Sequence[float]
    ) -> dict[str, SegmentFit] | None:
        """Add one multi-attribute point (``values`` aligned with
        :attr:`attrs`); returns closed fits on a cut."""
        if self._start is None:
            self._start = t
        self._count += 1
        closed: dict[str, SegmentFit] | None = None
        segmenters = self._segmenters
        for attr, value in zip(self.attrs, values):
            fit = segmenters[attr].add(t, float(value))
            if fit is not None:
                if closed is None:
                    closed = {}
                closed[attr] = fit
        if closed is None:
            return None
        # Force the remaining attributes to cut at the same boundary.
        for attr, value in zip(self.attrs, values):
            if attr not in closed:
                seg = segmenters[attr]
                fit = seg.finish()
                # Re-seed with the current point so all attributes restart
                # together.
                seg.add(t, float(value))
                if fit is not None:
                    closed[attr] = fit
        self._start = t
        return closed

    def finish(self) -> dict[str, SegmentFit] | None:
        closed = {}
        for attr in self.attrs:
            fit = self._segmenters[attr].finish()
            if fit is not None:
                closed[attr] = fit
        return closed or None

    @property
    def points_consumed(self) -> int:
        return max(s.points_consumed for s in self._segmenters.values())


class StreamModelBuilder:
    """Streaming tuples → segments, per key (the modeling operator).

    Used standalone for Fig. 8's "modeling throughput" measurement and as
    the front end of historical processing: feed tuples with
    :meth:`add` (or bare points with :meth:`add_point`, as the server
    does from a column batch), collect emitted :class:`Segment` objects.
    """

    def __init__(
        self,
        attrs: Sequence[str],
        tolerance: float,
        key_fields: Sequence[str] = (),
        constants: Sequence[str] = (),
    ):
        self.attrs = tuple(attrs)
        self.tolerance = tolerance
        self.key_fields = tuple(key_fields)
        self.constants = tuple(constants)
        self._per_key: dict[tuple, MultiAttributeSegmenter] = {}
        self._const_values: dict[tuple, dict] = {}
        self.tuples_consumed = 0
        self.segments_emitted = 0

    def add(self, tup: StreamTuple) -> tuple[Segment, ...]:
        """Fit one tuple; returns the segment it closes, if any."""
        return self.add_point(
            tup.time,
            tup.key(self.key_fields),
            [tup[attr] for attr in self.attrs],
            [tup.get(field) for field in self.constants],
        )

    def add_point(
        self,
        t: float,
        key: tuple,
        values: Sequence[float],
        constants: Sequence = (),
    ) -> tuple[Segment, ...]:
        """Fit one point; returns the segment it closes, if any.

        ``values`` are aligned with :attr:`attrs`; ``constants`` with
        :attr:`constants` (``None`` where the row lacks the field), read
        only when ``key`` is new.
        """
        self.tuples_consumed += 1
        seg = self._per_key.get(key)
        if seg is None:
            seg = MultiAttributeSegmenter(self.attrs, self.tolerance)
            self._per_key[key] = seg
            self._const_values[key] = {
                f: v for f, v in zip(self.constants, constants) if v is not None
            }
        closed = seg.add(t, values)
        if closed is None:
            return ()
        return (self._emit(key, closed),)

    def finish(self) -> list[Segment]:
        out = []
        for key, seg in self._per_key.items():
            closed = seg.finish()
            if closed is not None:
                out.append(self._emit(key, closed))
        self._per_key.clear()
        return out

    def retarget(self, tolerance: float) -> list[Segment]:
        """Switch the fitting tolerance; seals open windows first.

        History already folded into open segmenter windows was fitted at
        the old tolerance and cannot be re-fit without the raw tuples,
        so the open windows are closed (and their segments returned, to
        be pushed downstream at the bound they were fitted under) and
        every tuple from here on fits at the new tolerance.  Keyed
        constants survive — only the segmenter windows reset.
        """
        sealed = self.finish()
        self.tolerance = float(tolerance)
        return sealed

    def _emit(self, key: tuple, fits: Mapping[str, SegmentFit]) -> Segment:
        t_start = min(f.t_start for f in fits.values())
        t_end = max(f.t_end for f in fits.values())
        self.segments_emitted += 1
        return Segment(
            key=key,
            t_start=t_start,
            t_end=t_end,
            models={attr: fit.poly for attr, fit in fits.items()},
            constants=self._const_values.get(key, {}),
        )


def build_segments(
    tuples: Iterable[StreamTuple],
    attrs: Sequence[str],
    tolerance: float,
    key_fields: Sequence[str] = (),
    constants: Sequence[str] = (),
) -> list[Segment]:
    """Batch helper: segment an entire recorded stream (historical mode)."""
    builder = StreamModelBuilder(
        attrs, tolerance, key_fields=key_fields, constants=constants
    )
    out: list[Segment] = []
    for tup in tuples:
        out.extend(builder.add(tup))
    out.extend(builder.finish())
    # Emission order follows cut times, but finish() flushes trailing
    # pieces per key at the very end; restore the monotone reference
    # timestamp order the data stream model assumes (Section II-B).
    out.sort(key=lambda s: (s.t_start, s.t_end))
    return out
