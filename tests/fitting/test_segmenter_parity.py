"""The online segmenter against its per-point ``Polynomial`` reference.

``OnlineSegmenter`` tests each point's residual in plain floats and
builds a :class:`Polynomial` only when a piece closes; the reference in
``tests/oracles.py`` builds and shifts one for every point.  Both must
agree bit for bit: the same cut indices, ``t_start``/``t_end``,
coefficient tuples and ``max_error``, on random walks that reach every
branch of the line fit (a clock origin at zero, where the shift is a
no-op; zero slopes and zero intercepts, which the shift skips; repeated
timestamps, where the normal equations degenerate; one-point closes)
and on the benchmark's own inputs.
"""

import pickle
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.tuples import StreamTuple
from repro.fitting import OnlineSegmenter, StreamModelBuilder
from repro.fitting.model_builder import MultiAttributeSegmenter
from tests.oracles import (
    PolynomialMultiSegmenter,
    PolynomialSegmenter,
    polynomial_line_fitting,
)

E2E = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"

ORIGINS = (0.0, 1e6, 1.7e9)


def _bits(x: float) -> str:
    """A float's exact identity: distinguishes -0.0 from 0.0."""
    return float(x).hex()


def _fit_bits(fit):
    if fit is None:
        return None
    return (
        _bits(fit.t_start),
        _bits(fit.t_end),
        tuple(_bits(c) for c in fit.poly.coeffs),
        _bits(fit.max_error),
    )


def _segment_bits(seg):
    return (
        seg.key,
        _bits(seg.t_start),
        _bits(seg.t_end),
        tuple(
            (attr, tuple(_bits(c) for c in poly.coeffs))
            for attr, poly in sorted(seg.models.items())
        ),
        tuple(sorted(seg.constants.items())),
    )


@st.composite
def walks(draw, max_points=60):
    """``(points, tolerance)``: a random walk on a coarse grid.

    Grid steps keep the running sums exact often enough that lines with
    an exactly zero slope or intercept occur; a zero time step repeats
    a timestamp.  ``noise`` adds off-grid jitter so rounded sums occur
    too.
    """
    origin = draw(st.sampled_from(ORIGINS))
    n = draw(st.integers(1, max_points))
    dts = draw(
        st.lists(
            st.sampled_from((0.0, 0.25, 0.5, 1.0, 0.01)), min_size=n, max_size=n
        )
    )
    steps = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    noise = draw(
        st.lists(
            st.floats(-0.3, 0.3, allow_nan=False), min_size=n, max_size=n
        )
        | st.just([0.0] * n)
    )
    y0 = draw(st.sampled_from((0.0, 1.0, -3.0, 60.25)))
    t, y = origin, y0
    points = []
    for dt, step, jitter in zip(dts, steps, noise):
        t += dt
        y += step
        points.append((t, y + jitter))
    tolerance = draw(st.sampled_from((0.0, 0.01, 0.5, 1.0, 2.5)))
    return points, tolerance


def _run(segmenter, points):
    """Every ``add`` result by index, then the ``finish`` result."""
    out = [_fit_bits(segmenter.add(t, y)) for t, y in points]
    out.append(_fit_bits(segmenter.finish()))
    return out


@settings(max_examples=300, deadline=None)
@given(walks())
def test_float_cut_test_matches_polynomial_reference(case):
    points, tolerance = case
    assert _run(OnlineSegmenter(tolerance), points) == _run(
        PolynomialSegmenter(tolerance), points
    )


@settings(max_examples=150, deadline=None)
@given(walks(), st.data())
def test_shared_cuts_match_polynomial_reference(case, data):
    """Two or three attributes: one attribute's cut forces the others to
    close with the cut point included and restart on it."""
    points, tolerance = case
    width = data.draw(st.integers(2, 3))
    attrs = ("a", "b", "c")[:width]
    offsets = data.draw(
        st.lists(
            st.sampled_from((0.0, 0.5, -1.0)), min_size=width, max_size=width
        )
    )
    # one value per attribute, aligned with ``attrs``
    rows = [
        (t, [y * (i + 1) + off for i, off in enumerate(offsets)])
        for t, y in points
    ]

    def run(segmenter):
        out = []
        for t, values in rows:
            closed = segmenter.add(t, values)
            out.append(
                None
                if closed is None
                else {a: _fit_bits(fit) for a, fit in closed.items()}
            )
        closed = segmenter.finish()
        out.append(
            None if closed is None else {a: _fit_bits(f) for a, f in closed.items()}
        )
        return out

    assert run(MultiAttributeSegmenter(attrs, tolerance)) == run(
        PolynomialMultiSegmenter(attrs, tolerance)
    )


def test_first_window_at_zero_is_unshifted():
    """A window starting at ``t = 0`` takes the ``delta == 0`` branch:
    the line is the local fit itself, and the cut matches the reference."""
    points = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 0.0)]
    ours, ref = OnlineSegmenter(0.5), PolynomialSegmenter(0.5)
    assert _run(ours, points) == _run(ref, points)
    seg = OnlineSegmenter(0.5)
    closed = [seg.add(t, y) for t, y in points][-1]
    assert closed.poly.coeffs == (0.0, 1.0)


def test_one_point_close_and_repeated_timestamps():
    # A cut leaves one point in the window; finish closes it alone.  Two
    # points at one timestamp make the normal equations degenerate.
    points = [(5.0, 1.0), (5.0, 3.0), (5.0, 2.0), (6.0, 40.0)]
    for origin in ORIGINS:
        shifted = [(origin + t, y) for t, y in points]
        ours = _run(OnlineSegmenter(1.0), shifted)
        assert ours == _run(PolynomialSegmenter(1.0), shifted)
        assert ours[-2] is not None and ours[-1] is not None


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(E2E))
    try:
        import workloads

        yield workloads
    finally:
        sys.path.remove(str(E2E))
        sys.modules.pop("workloads", None)


def _build(workload, tuples):
    fit = workload.fit
    builder = StreamModelBuilder(
        fit["attrs"], workload.error_bound,
        key_fields=fit["key_fields"], constants=fit["key_fields"],
    )
    out = []
    for tup in tuples:
        out.extend(builder.add(tup))
    out.extend(builder.finish())
    return [_segment_bits(s) for s in out]


@pytest.mark.parametrize(
    "name", ["fit_filter_smooth", "macd_churn", "following_churn"]
)
def test_benchmark_inputs_fit_bit_exactly(workloads, name):
    workload = workloads.WORKLOADS[name]
    rows, _ = workload.generate(11, 5_000)
    tuples = [StreamTuple(row) for row in rows]
    ours = _build(workload, tuples)
    with polynomial_line_fitting():
        ref = _build(workload, tuples)
    assert ours == ref
    assert len(ours) > 10


def test_pickled_builder_resumes_mid_window():
    """Bridge snapshots pickle the builders: one restored mid-window
    emits what one that never was pickled emits, over the rest."""
    rows = []
    for i in range(400):
        t = i * 0.05
        for key in ("p", "q"):
            # A zigzag: x turns every 30 points, so windows close.
            x = abs((i + 7 * len(key)) % 60 - 30) * 0.05
            wobble = ((i * 7 + len(key)) % 11 - 5) * 0.002
            rows.append(
                StreamTuple({"time": t, "id": key, "x": x + wobble, "y": 2.0 - t})
            )
    live = StreamModelBuilder(("x", "y"), 0.05, key_fields=("id",))
    head = []
    for split, row in enumerate(rows):
        head.extend(live.add(row))
        windows = [
            s._n
            for multi in live._per_key.values()
            for s in multi._segmenters.values()
        ]
        if head and len(windows) == 4 and min(windows) > 2:
            break
    restored = pickle.loads(pickle.dumps(live))

    def tail(builder):
        out = [s for row in rows[split + 1:] for s in builder.add(row)]
        out.extend(builder.finish())
        return [_segment_bits(s) for s in out]

    expected = tail(live)
    assert len(expected) > 2
    assert tail(restored) == expected


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP 'The online segmenter keeps its tolerance, at float "
    "cost': each point is tested against the line before it joins, then "
    "the piece emits the line refit over the whole window, which no "
    "earlier point is re-checked against",
)
def test_emitted_line_keeps_the_tolerance():
    # macd_churn's sym0 (seed 11, 20,000 tuples) over t = 33.65..33.93,
    # then the point that cuts the piece.
    prices = (
        [60.25] * 6 + [60.26] * 7 + [60.27] * 3 + [60.28] * 3
        + [60.27] * 7 + [60.28, 60.27, 60.27, 60.26]
    )
    times = [k / 500 for k in range(16825, 16975, 5)]
    seg = OnlineSegmenter(0.01)
    closed = [seg.add(t, y) for t, y in zip(times, prices)]
    assert closed[:-1] == [None] * 29
    fit = closed[-1]
    assert fit.poly.coeffs == (57.03563546797391, 0.09556650246324268)
    assert fit.max_error <= 0.01
    worst = max(abs(fit.poly(t) - y) for t, y in zip(times[:-1], prices[:-1]))
    assert worst <= 0.01
