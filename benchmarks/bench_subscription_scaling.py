"""Subscription scaling: shared-plan fan-out vs per-instance baseline.

The shared-plan runtime serves every subscription to a (query, mode)
from ONE operator graph solved at the tightest subscribed bound; the
pre-refactor server materialized a full per-(query, mode, bound)
instance — its own registration, fitting builders and solve work — per
subscriber.  This benchmark measures both economies on an identical
workload at growing subscription counts:

* **shared** — one :class:`~repro.server.bridge.EngineBridge`,
  ``N_QUERIES`` standing queries, ``n`` subscriptions fanned out over
  the shared graphs (bounds drawn from a strictly increasing ladder so
  the first subscriber per query is the tightest — no mid-run
  retargets, the steady-state economics);
* **baseline** — the old model reconstructed faithfully: one runtime,
  one registration + dedicated builders per subscription.

Recorded to ``BENCH_subscription_scaling.json``: per-count row-solve
counts, tracemalloc peaks and wall times for both sides, plus headline
growth ratios.  The run **fails** unless

* every subscriber's delivered stream is bit-exact with the baseline
  instance at its query's tightest bound (in-run parity — a recorded
  number always describes a correct fan-out),
* shared solve work stays ~flat while subscriptions grow
  (sub-linear growth), and
* the baseline does ≥ ``MIN_SOLVE_ADVANTAGE``× the shared solve work
  at the largest count.

``REPRO_BENCH_SMOKE=1`` shrinks the workload for CI.
"""

from __future__ import annotations

import os
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from harness import record_result  # noqa: E402

from repro.core.transform import to_continuous_plan  # noqa: E402
from repro.engine.metrics import get_counter, reset_counters  # noqa: E402
from repro.engine.scheduler import QueryRuntime  # noqa: E402
from repro.engine.tuples import ColumnBatch, StreamTuple  # noqa: E402
from repro.fitting.model_builder import StreamModelBuilder  # noqa: E402
from repro.query import parse_query, plan_query  # noqa: E402
from repro.server.bridge import EngineBridge, FitSpec  # noqa: E402

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
N_QUERIES = 8 if SMOKE else 24
SUB_COUNTS = (16, 64) if SMOKE else (64, 256, 1056)
TUPLES_PER_KEY = 20 if SMOKE else 40
KEYS = ("k0", "k1")
#: Bounds ladder: ``BASE_BOUND * (1 + j/n)`` for subscription ``j`` —
#: strictly increasing, so subscription ``j == query_index`` is its
#: query's tightest and the shared graph never retargets mid-run.
BASE_BOUND = 0.02
MIN_SOLVE_ADVANTAGE = 2.0 if SMOKE else 4.0
FIT = FitSpec(attrs=("x",), key_fields=("id",))


def query_text(i: int) -> str:
    return f"select * from s{i} where x > 0"


def bound(j: int, n: int) -> float:
    return BASE_BOUND * (1.0 + j / n)


def make_tuples(i: int) -> list[StreamTuple]:
    """Deterministic per-stream trace: exact linear zig-zag pieces.

    Four collinear points, then a drop — every fourth point forces a
    segment cut at any tolerance in the bench's bound ladder, so solve
    work per instance is substantial and identical across bounds.
    """
    out = []
    for key_idx, key in enumerate(KEYS):
        for j in range(TUPLES_PER_KEY):
            x = (j % 4) * 0.8 + 0.1 * i + 2.0 * key_idx
            out.append(
                StreamTuple(
                    {"time": 0.5 * j, "id": key, "x": float(x)}
                )
            )
    return out


TUPLES = {i: make_tuples(i) for i in range(N_QUERIES)}
ROW_SOLVES = get_counter("equation_system.row_solves")


def canon(outputs) -> list:
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


def _reset() -> None:
    reset_counters()


def run_shared(n_subs: int) -> dict:
    """n subscriptions over N_QUERIES shared graphs, one bridge."""
    _reset()
    delivered: dict[int, list] = defaultdict(list)

    def on_outputs(subscribers, info, outputs):
        for sub_id, _cursor in subscribers:
            delivered[sub_id].extend(outputs)

    bridge = EngineBridge(on_outputs=on_outputs)
    bridge.start()
    sub_query: dict[int, int] = {}
    try:
        solves0 = ROW_SOLVES.value
        tracemalloc.start()
        t0 = time.perf_counter()
        for i in range(N_QUERIES):
            bridge.register_query(f"q{i}", query_text(i), FIT).result()
        for j in range(n_subs):
            qi = j % N_QUERIES
            bridge.subscribe(
                j + 1, f"q{qi}", "continuous", bound(j, n_subs)
            ).result()
            sub_query[j + 1] = qi
        for i in range(N_QUERIES):
            bridge.ingest(
                None, f"s{i}", ColumnBatch.from_rows(TUPLES[i])
            ).result()
        bridge.flush().result()
        wall = time.perf_counter() - t0
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        solves = ROW_SOLVES.value - solves0
        stats = bridge.stats().result()
        n_graphs = len(stats["graphs"])
    finally:
        bridge.stop()
    return {
        "wall_s": wall,
        "row_solves": solves,
        "peak_bytes": peak,
        "graphs": n_graphs,
        "delivered": {k: canon(v) for k, v in delivered.items()},
        "sub_query": sub_query,
    }


def run_baseline(n_subs: int) -> dict:
    """The per-instance economics: one registration + dedicated
    builders per subscription, exactly as the pre-shared-plan bridge
    materialized them (one runtime, namespaced streams)."""
    _reset()
    planned = {
        i: plan_query(parse_query(query_text(i)))
        for i in range(N_QUERIES)
    }
    rt = QueryRuntime()
    per_query: dict[int, list] = defaultdict(list)
    outputs: dict[str, list] = {}
    solves0 = ROW_SOLVES.value
    tracemalloc.start()
    t0 = time.perf_counter()
    for j in range(n_subs):
        qi = j % N_QUERIES
        name = f"q{qi}~c@{j}"
        compiled = to_continuous_plan(planned[qi])
        stream = f"s{qi}"
        namespaced = compiled.renamed({stream: f"{name}/{stream}"})
        rt.register(name, namespaced)
        builder = StreamModelBuilder(
            FIT.attrs,
            bound(j, n_subs),
            key_fields=FIT.key_fields,
            constants=FIT.effective_constants,
        )
        per_query[qi].append((name, builder))
        outputs[name] = []
    for i in range(N_QUERIES):
        for tup in TUPLES[i]:
            for name, builder in per_query[i]:
                for seg in builder.add(tup):
                    rt.enqueue(f"{name}/s{i}", seg)
        rt.run_until_idle()
        for name, _builder in per_query[i]:
            outputs[name].extend(rt.outputs(name))
    for i in range(N_QUERIES):
        for name, builder in per_query[i]:
            for seg in builder.finish():
                rt.enqueue(f"{name}/s{i}", seg)
    rt.run_until_idle()
    for name_list in per_query.values():
        for name, _builder in name_list:
            outputs[name].extend(rt.outputs(name))
    wall = time.perf_counter() - t0
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    solves = ROW_SOLVES.value - solves0
    return {
        "wall_s": wall,
        "row_solves": solves,
        "peak_bytes": peak,
        "outputs": {k: canon(v) for k, v in outputs.items()},
    }


def assert_parity(n_subs: int, shared: dict, base: dict) -> int:
    """Every subscriber's stream == the baseline instance at its
    query's tightest bound (subscription ``j == qi`` is the tightest,
    and the shared graph solves at exactly that bound)."""
    checked = 0
    for sub_id, qi in shared["sub_query"].items():
        ref = base["outputs"][f"q{qi}~c@{qi}"]
        got = shared["delivered"].get(sub_id, [])
        if got != ref:
            raise SystemExit(
                f"PARITY FAILURE at n={n_subs}: subscription {sub_id} "
                f"(query q{qi}) diverged from the tightest-bound "
                f"baseline instance ({len(got)} vs {len(ref)} outputs)"
            )
        if not ref:
            raise SystemExit(
                f"VACUOUS PARITY at n={n_subs}: query q{qi} produced "
                f"no outputs — the workload is not exercising solves"
            )
        checked += 1
    return checked


def main() -> None:
    rows = []
    for n in SUB_COUNTS:
        shared = run_shared(n)
        base = run_baseline(n)
        checked = assert_parity(n, shared, base)
        rows.append(
            {
                "subscriptions": n,
                "queries": N_QUERIES,
                "shared_graphs": shared["graphs"],
                "parity_checked_subscriptions": checked,
                "shared_row_solves": shared["row_solves"],
                "baseline_row_solves": base["row_solves"],
                "shared_peak_mb": shared["peak_bytes"] / 1e6,
                "baseline_peak_mb": base["peak_bytes"] / 1e6,
                "shared_wall_s": shared["wall_s"],
                "baseline_wall_s": base["wall_s"],
            }
        )
        print(
            f"n={n:5d}  solves shared={shared['row_solves']:8d} "
            f"baseline={base['row_solves']:8d}  "
            f"peak shared={shared['peak_bytes']/1e6:7.2f}MB "
            f"baseline={base['peak_bytes']/1e6:7.2f}MB  "
            f"wall shared={shared['wall_s']:6.2f}s "
            f"baseline={base['wall_s']:6.2f}s"
        )

    first, last = rows[0], rows[-1]
    sub_growth = last["subscriptions"] / first["subscriptions"]
    solve_growth = (
        last["shared_row_solves"] / max(1, first["shared_row_solves"])
    )
    mem_growth = last["shared_peak_mb"] / first["shared_peak_mb"]
    solve_advantage = last["baseline_row_solves"] / max(
        1, last["shared_row_solves"]
    )
    mem_advantage = last["baseline_peak_mb"] / last["shared_peak_mb"]

    # Sub-linearity gates: shared work must grow far slower than the
    # subscription count (it is ~flat — the graphs do the same work
    # regardless of fan-out).
    if solve_growth > 1.5:
        raise SystemExit(
            f"shared solve count grew {solve_growth:.2f}x over a "
            f"{sub_growth:.1f}x subscription growth — not sub-linear"
        )
    if mem_growth > sub_growth / 2:
        raise SystemExit(
            f"shared memory grew {mem_growth:.2f}x over a "
            f"{sub_growth:.1f}x subscription growth — not sub-linear"
        )
    if solve_advantage < MIN_SOLVE_ADVANTAGE:
        raise SystemExit(
            f"baseline/shared solve ratio {solve_advantage:.2f}x at "
            f"n={last['subscriptions']} — expected ≥ "
            f"{MIN_SOLVE_ADVANTAGE}x"
        )

    metrics = {
        "smoke": SMOKE,
        "sub_counts": list(SUB_COUNTS),
        "rows": rows,
        "max_subscriptions": last["subscriptions"],
        "shared_solve_growth": solve_growth,
        "shared_mem_growth": mem_growth,
        "subscription_growth": sub_growth,
        "solve_advantage_at_max": solve_advantage,
        "mem_advantage_at_max": mem_advantage,
        "wall_time_s": sum(
            r["shared_wall_s"] + r["baseline_wall_s"] for r in rows
        ),
        "speedup": last["baseline_wall_s"] / last["shared_wall_s"],
    }
    path = record_result("subscription_scaling", metrics)
    print(f"recorded {path}")
    print(
        f"n={last['subscriptions']}: solve advantage "
        f"{solve_advantage:.1f}x, memory advantage "
        f"{mem_advantage:.1f}x, shared solve growth "
        f"{solve_growth:.2f}x over {sub_growth:.1f}x subscriptions"
    )


if __name__ == "__main__":
    main()
