"""Solution-store-vs-full-re-solve parity: the store's bit-exactness gate.

Hypothesis drives randomized arrival interleavings — model refits,
re-emissions of unchanged content, overlapping successors (retirements),
and a poisoned key whose solves fault deterministically and trip the
circuit breaker — through the same workload twice: once under the full
re-solve oracle (``tests/oracles.py``: the store never serves a
solution) and once as the engine runs.

The contract under test:

* **Outputs are bit-exact** between the two runs, compared by value
  (key, time range, model coefficients, constants) — seg_ids and
  lineage are excluded because two runs allocate ids independently.
* **Row solves never increase**: the engine performs at most as many
  ``equation_system.row_solves`` as the oracle.
* **Faults do not depend on what was stored**: only successful solves
  are ever stored, so poisoned content re-fails on every probe in both
  runs and the breaker quarantines the same keys.

The last test pins the point of the store on the trace shape it exists
for: one refit followed by narrowing re-confirmations of the same
content, per key and epoch (the paper's Sec. II-A validation regime).
"""

from contextlib import nullcontext

from hypothesis import given, settings, strategies as st
import pytest

from repro.core.batch_solver import set_fault_hook
from repro.core.errors import SolverError
from repro.core.polynomial import Polynomial
from repro.core.segment import Segment
from repro.core.solve_cache import reset_global_solve_cache
from repro.core.transform import to_continuous_plan
from repro.engine.metrics import get_counter, reset_counters
from repro.engine.resilience import BreakerConfig
from repro.engine.scheduler import QueryRuntime
from repro.query import parse_query, plan_query
from tests.oracles import full_resolve

KEYS = ("a", "b", "poison")
#: Content marker: any solve task whose polynomial carries a huge
#: coefficient faults.  Content-addressed (not rate- or order-based),
#: so the fault fires identically in both runs.
POISON_LEVEL = 500.0


def _content_fault(task):
    poly = task[0]
    if max(abs(c) for c in poly.coeffs) >= POISON_LEVEL:
        raise SolverError("poisoned content marker")
    return task


QUERIES = {
    "filter": "select * from ticks where x > 1",
    "join": (
        "select from ticks T join quotes Q "
        "on (T.sym = Q.sym and T.x > Q.y)"
    ),
    "minagg": (
        "select sym, min(x) as mx from ticks [size 4 advance 2] "
        "group by sym"
    ),
}

_ATTR = {"ticks": "x", "quotes": "y"}


@st.composite
def traces(draw):
    """An interleaving of refits, re-emissions, and retirements."""
    events = []
    clock: dict = {}
    coeffs: dict = {}
    n = draw(st.integers(min_value=4, max_value=12))
    for _ in range(n):
        key = draw(st.sampled_from(KEYS))
        stream = draw(st.sampled_from(("ticks", "quotes")))
        slot = (stream, key)
        prev = coeffs.get(slot)
        kind = draw(st.sampled_from(("refit", "reemit", "retire")))
        if kind == "reemit" and prev is not None:
            c = prev
        else:
            c = (
                float(draw(st.integers(-3, 3))),
                float(draw(st.integers(-2, 2))),
            )
            if key == "poison" and draw(st.booleans()):
                c = (2 * POISON_LEVEL, c[1])
        start = clock.get(slot, 0.0)
        if kind == "retire" and slot in clock:
            start -= 1.0  # overlap: successor retires its predecessor
        coeffs[slot] = c
        clock[slot] = start + 2.0
        events.append(
            (
                stream,
                Segment(
                    (key,),
                    start,
                    start + 2.0,
                    {_ATTR[stream]: Polynomial(list(c))},
                    constants={"sym": key},
                ),
            )
        )
    return events


def canon(outputs):
    """Run-independent view of an output stream (no ids, no lineage)."""
    return [
        (
            s.key,
            s.t_start,
            s.t_end,
            {a: p.coeffs for a, p in sorted(s.models.items())},
            tuple(sorted(s.constants.items())),
        )
        for s in outputs
    ]


def run_trace(sql: str, trace, oracle: bool):
    reset_global_solve_cache()
    reset_counters()
    planned = plan_query(parse_query(sql))
    consumed = set(planned.stream_sources)
    with full_resolve() if oracle else nullcontext():
        rt = QueryRuntime(
            breaker=BreakerConfig(failure_threshold=2, backoff=10_000)
        )
        try:
            rt.register("q", to_continuous_plan(planned))
            for stream, item in trace:
                if stream in consumed:
                    rt.enqueue(stream, item)
            rt.run_until_idle()
            outputs = rt.outputs("q")
            errors = rt.step_errors
        finally:
            rt.close()
    return canon(outputs), get_counter("equation_system.row_solves").value, errors


@pytest.mark.parametrize("query", sorted(QUERIES))
@given(trace=traces())
@settings(max_examples=25, deadline=None)
def test_store_matches_full_resolve(query, trace):
    previous = set_fault_hook(_content_fault)
    try:
        full_out, full_solves, full_errors = run_trace(
            QUERIES[query], trace, oracle=True
        )
        out, solves, errors = run_trace(QUERIES[query], trace, oracle=False)
    finally:
        set_fault_hook(previous)
    assert out == full_out
    assert solves <= full_solves
    assert errors == full_errors


# ----------------------------------------------------------------------
# the re-confirmation trace: what the store is for
# ----------------------------------------------------------------------
def reconfirmation_trace(epochs=6, epoch_len=8, duration=4.0, step=0.25):
    """Update-heavy two-stream trace: refit epochs of re-confirmations.

    Per key and epoch, the join's right side refits once over the whole
    window; the left side refits, then re-emits the same model
    ``epoch_len - 1`` times over narrowing windows — exactly what a
    validated prediction does (Sec. II-A).  Coefficients are fresh per
    epoch, so nothing repeats byte-identically across epochs and the
    row-level solve cache cannot stand in for the store.
    """
    import random

    rng = random.Random(11)
    events = []
    for e in range(epochs):
        for k in ("a", "b"):
            s = e * duration
            c1 = [rng.uniform(-2, 2) for _ in range(3)]
            c2 = [rng.uniform(-2, 2) for _ in range(3)]
            events.append((
                "quotes",
                Segment((k,), s, s + duration, {"y": Polynomial(c2)},
                        constants={"sym": k}),
            ))
            for j in range(epoch_len):
                events.append((
                    "ticks",
                    Segment((k,), s + j * step, s + duration,
                            {"x": Polynomial(c1)}, constants={"sym": k}),
                ))
    return events


def test_reconfirmed_content_is_not_resolved():
    """Bit-exact against the oracle, with at least 3x fewer row solves."""
    trace = reconfirmation_trace()
    full_solves = solves = 0
    for query in ("filter", "join"):
        full_out, n_full, _ = run_trace(QUERIES[query], trace, oracle=True)
        out, n, _ = run_trace(QUERIES[query], trace, oracle=False)
        assert out == full_out
        assert full_out, "the trace must produce output to compare"
        assert get_counter("delta.store.hits").value > 0
        full_solves += n_full
        solves += n
    assert solves > 0
    assert full_solves >= 3 * solves, (full_solves, solves)
