"""Run hand-off vs the segment-at-a-time cascade: the same execution.

``ContinuousPlan._cascade`` hands each operator the maximal run of
consecutive queue entries bound for it, and the filter solves a run's
systems in one pooled kernel sweep.  The executor it replaced — one
``process`` call per entry — lives on in ``tests/oracles.py``; this
suite drives both over Hypothesis-drawn inputs and holds them equal on
everything the cascade exposes: every output segment (ids pinned, so
creation order counts too), per-node ``segments_in``/``segments_out``,
``systems_solved``, every step-observer record and the typed error a
failing push raises.

The inputs cover And/Or/Not predicates with equality atoms (point
outputs) and discretely folded atoms, models of degree 1 to 4, runs in
which pieces repeat an earlier piece's content (over the same or a
different domain), two successors interleaving their entries, a
content-addressed fault on the k-th system of a run, and the MACD and
"following" query shapes end to end.  ``solve_systems_batch`` itself is
held to per-job ``EquationSystem.solve`` over jobs that include empty
domains and equality systems.
"""

import itertools
from contextlib import contextmanager, nullcontext

from hypothesis import given, settings, strategies as st

from repro.core import segment as segment_module
from repro.core.batch_solver import set_fault_hook
from repro.core.equation_system import EquationSystem, solve_systems_batch
from repro.core.errors import SolverError, SolverFailure
from repro.core.expr import Attr, Const
from repro.core.intervals import TimeSet
from repro.core.operators import ContinuousFilter
from repro.core.operators.base import ContinuousOperator
from repro.core.plan import ContinuousPlan
from repro.core.polynomial import Polynomial
from repro.core.predicate import And, Comparison, Not, Or
from repro.core.relation import Rel
from repro.core.segment import Segment
from repro.core.transform import to_continuous_plan
from repro.query import parse_query, plan_query
from tests.oracles import segment_at_a_time

#: A model coefficient this large marks poisoned content: every solve
#: task built from it faults, in both executors alike.
POISON = 600.0


def _content_fault(task):
    if max(abs(c) for c in task[0].coeffs) >= POISON / 2:
        raise SolverFailure("injected", "poisoned content marker")
    return task


@contextmanager
def pinned_segment_ids():
    saved = segment_module._segment_ids
    segment_module._segment_ids = itertools.count(1)
    try:
        yield
    finally:
        segment_module._segment_ids = saved


def _describe(seg: Segment) -> tuple:
    return (
        seg.seg_id,
        seg.key,
        seg.t_start,
        seg.t_end,
        {a: p.coeffs for a, p in seg.models.items()},
        dict(seg.constants),
        seg.lineage,
    )


def _timeset(ts) -> tuple:
    return (
        tuple((iv.lo, iv.hi) for iv in ts.intervals),
        tuple(ts.points),
    )


def _observe(build, feed, oracle: bool, poisoned: bool):
    """Run ``feed`` through the plan ``build`` makes; everything seen."""
    records: list = []
    outputs: list = []
    error = None
    executor = segment_at_a_time() if oracle else nullcontext()
    with pinned_segment_ids(), executor:
        query, plan = build()
        plan.add_observer(
            lambda node, seg, outs: records.append(
                (node.node_id, _describe(seg), [_describe(o) for o in outs])
            )
        )
        set_fault_hook(_content_fault if poisoned else None)
        try:
            for stream, segment in feed():
                outputs.append(
                    [_describe(o) for o in query.push(stream, segment)]
                )
            outputs.append([_describe(o) for o in plan.flush()])
        except SolverError as exc:
            error = (type(exc), getattr(exc, "reason", None), str(exc))
        finally:
            set_fault_hook(None)
    operators = plan.operators()
    return {
        "outputs": outputs,
        "stats": plan.stats(),
        "systems_solved": [
            getattr(op, "systems_solved", None) for op in operators
        ],
        "records": records,
        "error": error,
    }


def _assert_same_execution(build, feed, poisoned=False):
    runs = _observe(build, feed, oracle=False, poisoned=poisoned)
    oracle = _observe(build, feed, oracle=True, poisoned=poisoned)
    for field in oracle:
        assert runs[field] == oracle[field], field
    return runs


# ----------------------------------------------------------------------
# predicates and pieces
# ----------------------------------------------------------------------
_REL = st.sampled_from(list(Rel))
_LEVEL = st.sampled_from([-1.0, 0.0, 0.5, 2.0])
_ATOM = st.one_of(
    st.builds(lambda a, r, c: Comparison(Attr(a), r, Const(c)),
              st.sampled_from(["x", "y"]), _REL, _LEVEL),
    st.builds(lambda r: Comparison(Attr("x"), r, Attr("y")), _REL),
    # folds to a literal per piece: no system at all
    st.builds(lambda r: Comparison(Attr("sym"), r, Const("a")),
              st.sampled_from([Rel.EQ, Rel.NE])),
)
_PREDICATE = st.recursive(
    _ATOM,
    lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=3).map(lambda cs: And(*cs)),
        st.lists(inner, min_size=2, max_size=3).map(lambda cs: Or(*cs)),
        st.builds(Not, inner),
    ),
    max_leaves=4,
)
_COEFF = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0])
#: Degree 1 to 4, leading coefficient non-zero.
_MODEL = st.integers(1, 4).flatmap(
    lambda d: st.tuples(
        st.lists(_COEFF, min_size=d, max_size=d),
        st.sampled_from([-1.0, 0.5, 1.0, 2.0]),
    ).map(lambda parts: tuple(parts[0]) + (parts[1],))
)
_SPAN = st.tuples(st.sampled_from([0.0, 0.5, 1.0, 3.0]),
                  st.sampled_from([0.5, 1.0, 2.5, 4.0]))
#: A fresh piece, or one repeating the content of the ``j``-th piece
#: built so far (this run's or an earlier one's) — over its domain or
#: a new one.
_PIECE = st.one_of(
    st.tuples(st.just("new"), _SPAN, _MODEL, _MODEL,
              st.sampled_from(["a", "b"])),
    st.tuples(st.just("repeat"), st.integers(0, 15),
              st.one_of(st.none(), _SPAN)),
)
_RUNS = st.lists(st.lists(_PIECE, min_size=1, max_size=8),
                 min_size=1, max_size=4)


def _pieces(run_specs, poison_at, history):
    """The segments of one scripted run (built inside the pinned ids);
    ``history`` holds every piece built so far, earlier runs' too."""
    out: list[Segment] = []
    for i, spec in enumerate(run_specs):
        if spec[0] == "repeat" and history:
            base = history[spec[1] % len(history)]
            lo, width = spec[2] if spec[2] is not None else (
                base.t_start, base.t_end - base.t_start)
            out.append(Segment(base.key, lo, lo + width, base.models,
                               base.constants))
            history.append(out[-1])
            continue
        if spec[0] == "repeat":
            spec = ("new", (0.0, 1.0), (1.0, 1.0), (0.0, -1.0), "a")
        _, (lo, width), xs, ys, sym = spec
        xs = list(xs)
        if i == poison_at:
            xs[1] = POISON
        out.append(Segment(
            (sym,), lo, lo + width,
            {"x": Polynomial(xs), "y": Polynomial(ys)}, {"sym": sym},
        ))
        history.append(out[-1])
    return out


class Fanout(ContinuousOperator):
    """Emits the next scripted run of pieces per input."""

    def __init__(self, runs):
        self._runs = list(runs)

    def process(self, segment, port=0):
        return self._runs.pop(0) if self._runs else []


def _fanout_build(first, second, runs, poison, branch):
    def build():
        history: list[Segment] = []
        scripted = [
            _pieces(specs, poison[1] if poison and poison[0] == r else None,
                    history)
            for r, specs in enumerate(runs)
        ]
        plan = ContinuousPlan("runs")
        src = plan.add_source("in")
        fan = plan.add_operator(Fanout(scripted), [src])
        f1 = plan.add_operator(ContinuousFilter(first, name="f1"), [fan])
        if branch:
            # a sibling successor: fan's entries alternate between the
            # two filters, so every run is one entry long
            plan.add_operator(ContinuousFilter(second, name="side"), [fan])
        # f1 emits restricted copies: f2's runs repeat content over
        # disjoint domains
        f2 = plan.add_operator(ContinuousFilter(second, name="f2"), [f1])
        plan.set_output(f2)
        return plan, plan

    def feed():
        for r in range(len(runs)):
            yield "in", Segment(("t",), float(r), r + 1.0, {})

    return build, feed


@settings(max_examples=120, deadline=None)
@given(
    first=_PREDICATE,
    second=_PREDICATE,
    runs=_RUNS,
    poison=st.one_of(st.none(), st.tuples(st.integers(0, 3),
                                          st.integers(0, 7))),
    branch=st.booleans(),
)
def test_filter_runs_match_segment_at_a_time(
    first, second, runs, poison, branch
):
    build, feed = _fanout_build(first, second, runs, poison, branch)
    _assert_same_execution(build, feed, poisoned=poison is not None)


def test_repeated_content_and_kth_fault_are_exercised():
    """The drawn cases above include the two edge cases by construction;
    pin one of each so a strategy change cannot drop them silently."""
    x = Comparison(Attr("x"), Rel.GT, Const(0.0))
    same = ("new", (0.0, 4.0), (-1.0, 1.0), (0.0, 1.0), "a")
    other = ("new", (1.0, 2.0), (2.0, -1.0), (0.5, 1.0), "b")
    runs = [
        [same, ("repeat", 0, None), ("repeat", 0, (5.0, 2.0)), same],
        # repeated content behind a solve in the same run
        [other, ("repeat", 0, None)],
    ]
    result = _assert_same_execution(*_fanout_build(x, x, runs, None, False))
    assert result["error"] is None and any(result["outputs"])
    runs = [[same, other, same]]
    build, feed = _fanout_build(x, x, runs, (0, 1), False)
    result = _assert_same_execution(build, feed, poisoned=True)
    assert result["error"][1] == "injected"


# ----------------------------------------------------------------------
# the benchmark's query shapes
# ----------------------------------------------------------------------
MACD_SQL = """
select symbol, S.ap - L.ap as diff from
    (select symbol, avg(price) as ap from trades [size 2 advance 0.5]) as S
join
    (select symbol, avg(price) as ap from trades [size 4 advance 0.5]) as L
on (S.symbol = L.symbol)
where S.ap > L.ap
"""

FOLLOWING_SQL = """
select id1, id2, avg(dist) as avg_dist from
    (select S1.id as id1, S2.id as id2,
            sqrt(pow(S1.x - S2.x, 2) + pow(S1.y - S2.y, 2)) as dist
     from vessels [size 3 advance 1] as S1
     join vessels as S2 [size 3 advance 1]
     on (S1.id <> S2.id)) [size 4 advance 0.5] as Candidates
group by id1, id2 having avg(dist) < 25
"""

#: (key, width, model coefficients); segments several window advances
#: wide, so one arrival emits a run of window pieces.
_STEP = st.tuples(
    st.integers(0, 2),
    st.sampled_from([1.0, 2.0, 3.0]),
    st.lists(_COEFF, min_size=2, max_size=3),
)


def _sql_build(sql):
    def build():
        query = to_continuous_plan(plan_query(parse_query(sql)))
        return query, query.plan
    return build


def _sql_feed(stream, steps, attrs, key_attr, poison_at):
    def feed():
        ends: dict[int, float] = {}
        for i, (k, width, coeffs) in enumerate(steps):
            lo = ends.get(k, 0.0)
            ends[k] = lo + width
            models = {}
            for j, attr in enumerate(attrs):
                cs = [coeffs[0] + 3.0 * j, *coeffs[1:]]
                if i == poison_at:
                    # large enough to survive window averaging
                    cs[-1] = 100 * POISON
                models[attr] = Polynomial(cs)
            yield stream, Segment((f"k{k}",), lo, lo + width, models,
                                  {key_attr: f"k{k}"})
    return feed


@settings(max_examples=25, deadline=None)
@given(
    steps=st.lists(_STEP, min_size=1, max_size=14),
    poison_at=st.one_of(st.none(), st.integers(0, 13)),
)
def test_macd_shape_matches_segment_at_a_time(steps, poison_at):
    _assert_same_execution(
        _sql_build(MACD_SQL),
        _sql_feed("trades", steps, ["price"], "symbol", poison_at),
        poisoned=poison_at is not None,
    )


@settings(max_examples=10, deadline=None)
@given(
    steps=st.lists(_STEP, min_size=12, max_size=24),
    poison_at=st.one_of(st.none(), st.integers(0, 23)),
)
def test_following_shape_matches_segment_at_a_time(steps, poison_at):
    _assert_same_execution(
        _sql_build(FOLLOWING_SQL),
        _sql_feed("vessels", steps, ["x", "y"], "id", poison_at),
        poisoned=poison_at is not None,
    )


# ----------------------------------------------------------------------
# solve_systems_batch vs one EquationSystem.solve per job
# ----------------------------------------------------------------------
_JOB = st.tuples(
    _PREDICATE.filter(lambda p: "sym" not in p.attributes()),
    _MODEL,
    _MODEL,
    st.sampled_from([0.0, 1.0, 2.0]),
    st.sampled_from([-1.0, 0.0, 0.5, 3.0]),  # width; <= 0: empty domain
    st.booleans(),  # poisoned
)
#: All-equality conjunction: the equality fast path.
_EQUALITIES = And(
    Comparison(Attr("x"), Rel.EQ, Const(0.5)),
    Comparison(Attr("x"), Rel.EQ, Attr("y")),
)


def _system(pred, xs, ys, poisoned):
    xs = list(xs)
    if poisoned:
        xs[1] = POISON
    models = {"x": Polynomial(xs), "y": Polynomial(ys)}
    return EquationSystem.from_predicate(pred, models.__getitem__)


def _one_by_one(jobs, failures=None):
    """``solve_systems_batch``'s contract, one ``solve`` per job."""
    out = []
    for ji, (system, lo, hi) in enumerate(jobs):
        try:
            out.append(system.solve(lo, hi))
        except SolverError as exc:
            if failures is None:
                raise
            failures[ji] = exc
            out.append(TimeSet.empty())
    return out


def _failure(exc) -> tuple:
    return type(exc), getattr(exc, "reason", None)


@settings(max_examples=120, deadline=None)
@given(
    specs=st.lists(_JOB, min_size=1, max_size=6),
    equality_at=st.one_of(st.none(), st.integers(0, 5)),
    record=st.booleans(),
)
def test_pooled_jobs_match_one_solve_per_job(specs, equality_at, record):
    jobs = []
    for i, (pred, xs, ys, lo, width, poisoned) in enumerate(specs):
        if i == equality_at:
            pred = _EQUALITIES
        jobs.append((_system(pred, xs, ys, poisoned), lo, lo + width))
    outcomes = []
    set_fault_hook(_content_fault)
    try:
        for solve in (solve_systems_batch, _one_by_one):
            failures = {} if record else None
            try:
                result = [_timeset(t) for t in solve(jobs, failures)]
            except SolverError as exc:
                outcomes.append(("raised", _failure(exc)))
                continue
            recorded = {ji: _failure(e) for ji, e in (failures or {}).items()}
            outcomes.append((result, recorded))
    finally:
        set_fault_hook(None)
    assert outcomes[0] == outcomes[1]
