"""Workload specs and seeded input generators for the e2e benchmark.

Everything that decides what load a run sees lives here: the query
texts (the paper's MACD and "following" SQL, copied in), the per-second
rates every phase is sized from, the subscription bounds, and the tuple
generators.  Nothing is imported from ``repro`` -- in particular not
``repro.workloads`` or ``repro.bench.queries`` -- so a later PR cannot
change the benchmark's inputs by editing the program.

Sizes are never derived from a measured rate: a phase of ``s`` seconds
gets ``rate * s`` tuples with ``rate`` a constant below, so both sides
of an A/B run see byte-identical load.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

FILTER_SQL = "select * from objects where x > 0"

#: Sec. V-B MACD: short and long moving averages joined on symbol,
#: selecting short-above-long.  Windows 4 and 12 with advance 1 keep the
#: paper's 1:3 ratio at this benchmark's ~45 s data span.  The paper's
#: ``error within`` clause is left out on purpose: every continuous
#: subscription passes its bound explicitly.
MACD_SQL = """
select symbol, S.ap - L.ap as diff from
    (select symbol, avg(price) as ap from
        trades [size 4 advance 1]) as S
join
    (select symbol, avg(price) as ap from
        trades [size 12 advance 1]) as L
on (S.symbol = L.symbol)
where S.ap > L.ap
"""

#: Sec. V-B "following": pairwise vessel distance, averaged over a long
#: window, thresholded in HAVING.
FOLLOWING_SQL = """
select id1, id2, avg(dist) as avg_dist from
    (select S1.id as id1, S2.id as id2,
            sqrt(pow(S1.x - S2.x, 2) + pow(S1.y - S2.y, 2)) as dist
     from vessels [size 10 advance 1] as S1
     join vessels as S2 [size 10 advance 1]
     on (S1.id <> S2.id)) [size 60 advance 10] as Candidates
group by id1, id2 having avg(dist) < 1000
"""


# ----------------------------------------------------------------------
# generators: numpy columns in, list of tuple dicts out
# ----------------------------------------------------------------------
def _piecewise_linear_paths(rng, starts, t_end, leg_s, speed, stagger=None):
    """Per start position: course-change times, and the position at
    each of them.

    Constant velocity between changes, so a linear model fits each leg
    exactly and the segmenter cuts only at a course change.  Start
    positions are the caller's constants, not draws: which side of
    ``x = 0`` an object is on, and which vessels are near each other,
    must not depend on the seed.

    Legs last ``leg_s`` give or take half.  With ``stagger``, they last
    exactly ``leg_s`` and path ``k`` turns ``stagger`` seconds after
    path ``k - 1``: fitted segments then close at an even rate, not in
    Poisson clumps.
    """
    paths = []
    count = max(4, int(2 * t_end / leg_s) + 4)
    for k, start in enumerate(starts):
        if stagger is None:
            gaps = rng.uniform(0.5 * leg_s, 1.5 * leg_s, size=count)
        else:
            gaps = np.full(count, leg_s)
            gaps[0] = (k + 1) * stagger
        times = np.concatenate(([0.0], np.cumsum(gaps)))
        angles = rng.uniform(0.0, 2.0 * np.pi, size=count)
        speeds = rng.uniform(0.5, 1.5, size=count) * speed
        vel = np.stack([speeds * np.cos(angles), speeds * np.sin(angles)], 1)
        points = np.vstack(
            [start, np.asarray(start) + np.cumsum(vel * gaps[:, None], axis=0)]
        )
        paths.append((times, points, vel))
    return paths


def _sample_paths(sources, n, data_rate, prefix):
    """Round-robin samples at ``1 / data_rate`` spacing.  ``sources`` is
    one ``(path, ahead)`` per key: the key is at time ``t`` where its
    path is at ``t + ahead``."""
    time = np.arange(n) / data_rate
    key = np.arange(n) % len(sources)
    cols = {name: np.empty(n) for name in ("x", "y", "vx", "vy")}
    for k, ((times, points, vel), ahead) in enumerate(sources):
        mask = key == k
        t = time[mask] + ahead
        leg = np.minimum(np.searchsorted(times, t, side="right") - 1,
                         len(vel) - 1)
        cols["x"][mask] = np.interp(t, times, points[:, 0])
        cols["y"][mask] = np.interp(t, times, points[:, 1])
        cols["vx"][mask] = vel[leg, 0]
        cols["vy"][mask] = vel[leg, 1]
    ids = [f"{prefix}{k}" for k in range(len(sources))]
    return time, key, ids, cols


def _rows(time, key, ids, key_field, cols) -> list[dict]:
    names = list(cols)
    columns = [cols[name].tolist() for name in names]
    return [
        {"time": t, key_field: ids[k], **dict(zip(names, values))}
        for t, k, *values in zip(time.tolist(), key.tolist(), *columns)
    ]


def _digest(time, key, cols) -> str:
    h = hashlib.sha256()
    for arr in (time, key, *cols.values()):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def smooth_objects(seed: int, n: int) -> tuple[list[dict], str]:
    """10 moving objects, ~300 samples per constant-velocity leg; five
    start well right of ``x = 0`` and five well left, so half the
    tuples pass ``x > 0`` whatever the seed."""
    rng = np.random.default_rng([seed, 1])
    data_rate = 1000.0
    starts = [
        ((1500.0 + 100.0 * k) * (1.0 if k % 2 == 0 else -1.0), 100.0 * k)
        for k in range(10)
    ]
    paths = _piecewise_linear_paths(
        rng, starts, n / data_rate, leg_s=3.0, speed=10.0
    )
    time, key, ids, cols = _sample_paths(
        [(path, 0.0) for path in paths], n, data_rate, "obj"
    )
    return _rows(time, key, ids, "id", cols), _digest(time, key, cols)


def trades(seed: int, n: int) -> tuple[list[dict], str]:
    """5 symbols, trending geometric walk quantized to cents.

    Volatility 1e-3 against a one-cent bound breaks the fitted model
    every ~3 trades: many small segments, the MACD churn regime.  What
    the query's cost depends on is held the same for every seed: the
    price levels (the bound is absolute, so the churn scales with them)
    and how many symbols trend up at any moment (it decides how often
    the short average is above the long one, and so the result rate).
    Trends flip every 10 s, staggered 4 s from symbol to symbol; the
    seed draws their strength and the shocks.
    """
    num_symbols, data_rate = 5, 500.0
    volatility, trend_s, tick = 1e-3, 10.0, 0.01
    step = num_symbols / data_rate
    per_symbol = -(-n // num_symbols)
    per_trend = int(trend_s / step)
    time = np.arange(n) / data_rate
    key = np.arange(n) % num_symbols
    price = np.empty(n)
    for k in range(num_symbols):
        # One generator per (symbol, purpose): a shorter run is then an
        # exact prefix of a longer one, which is how macd_churn_fleet2
        # gets "the first tuples of macd_churn's input".
        trend_rng, shock_rng = (
            np.random.default_rng([seed, 2, k, j]) for j in range(2)
        )
        trend = (np.arange(per_symbol) + k * 2 * per_trend // num_symbols
                 ) // per_trend
        strength = trend_rng.uniform(3e-4, 5e-4, size=int(trend[-1]) + 1)
        drift = strength[trend] * np.where(trend % 2 == 0, 1.0, -1.0)
        shock = shock_rng.normal(
            0.0, volatility * np.sqrt(step), size=per_symbol
        )
        walk = (60.0 + 10.0 * k) * np.cumprod(1.0 + drift * step + shock)
        mask = key == k
        price[mask] = (np.round(walk / tick) * tick)[: int(mask.sum())]
    rng = np.random.default_rng([seed, 2, num_symbols])
    qty = rng.integers(100, 1000, size=n).astype(float)
    cols = {"price": price, "qty": qty}
    ids = [f"sym{k}" for k in range(num_symbols)]
    return _rows(time, key, ids, "symbol", cols), _digest(time, key, cols)


def vessels(seed: int, n: int) -> tuple[list[dict], str]:
    """12 vessels turning every 20 s, 3 of them following another.

    30 reports/s overall, so a leg holds 50 reports: few segments, each
    one an all-pairs distance join.  A follower sails its leader's
    track 115 s behind it, at most 575 m away.  Leaders start on a 5 km
    grid and wander ~1 km, so only the follower pairs ever come within
    the query's 1000 m, for every seed.  Turns are staggered 20/12 s
    apart across all twelve, so one segment closes every 50 reports and
    a paced batch of 40 holds one or none: its median latency is that
    of a batch with one join, not a coin toss between the two.
    """
    rng = np.random.default_rng([seed, 3])
    data_rate, leg_s, behind = 30.0, 20.0, 115.0
    starts = [(5000.0 * (k % 3), 5000.0 * (k // 3)) for k in range(9)]
    paths = _piecewise_linear_paths(
        rng, starts, n / data_rate + behind, leg_s, speed=5.0,
        stagger=leg_s / 12,
    )
    sources = [(path, behind) for path in paths]
    sources += [(path, 0.0) for path in paths[:3]]
    time, key, ids, cols = _sample_paths(sources, n, data_rate, "vessel")
    return _rows(time, key, ids, "id", cols), _digest(time, key, cols)


# ----------------------------------------------------------------------
# specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    """One named traffic mix; every load-shaping number is a constant."""

    name: str
    why: str
    query: str
    stream: str
    fit: dict
    generate: Callable[[int, int], tuple[list[dict], str]]
    mode: str  # "discrete" | "continuous"
    error_bound: float | None  # explicit on every continuous subscribe
    paced_rate: int  # tuples/s offered in the open-loop phase
    paced_batch: int
    saturate_rate: int  # tuples per second of phase length (sizing only)
    saturate_batch: int
    warmup: int  # untimed tuples first: windows fill, code paths warm
    wal: bool = False  # serve --wal-dir <fresh tmp>
    fleet_workers: int = 0  # > 0: `repro route --workers N`
    reference_share: float = 0.2  # prefix checked against the reference

    def sizes(self, seconds: float) -> tuple[int, int]:
        """(paced, saturate) tuple counts: half the run length each,
        rounded down to whole batches."""
        half = seconds / 2.0
        paced = int(self.paced_rate * half)
        saturate = int(self.saturate_rate * half)
        return (
            max(1, paced // self.paced_batch) * self.paced_batch,
            max(1, saturate // self.saturate_batch) * self.saturate_batch,
        )

    def offsets(self, seconds: float, paced: bool = True):
        """Where the phases start in the run's one time-ordered input:
        ``(paced_at, saturate_at, end)`` after one setup tuple and the
        warm-up.  Without ``paced`` the saturate input follows the
        warm-up directly (the traced pass)."""
        n_paced, n_saturate = self.sizes(seconds)
        paced_at = 1 + self.warmup
        saturate_at = paced_at + (n_paced if paced else 0)
        return paced_at, saturate_at, saturate_at + n_saturate


_OBJECT_FIT = {"attrs": ["x", "y"], "key_fields": ["id"]}

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="wire_filter_discrete",
            why="trivial engine work per tuple: protocol decode/validate/"
            "encode, socket I/O and scheduler enqueue do nearly all of it",
            query=FILTER_SQL, stream="objects", fit=_OBJECT_FIT,
            generate=smooth_objects, mode="discrete", error_bound=None,
            paced_rate=20_000, paced_batch=200,
            saturate_rate=64_000, saturate_batch=500, warmup=5_000,
        ),
        Workload(
            name="wire_filter_discrete_wal",
            why="same input and rates with --wal-dir on: the gap to "
            "wire_filter_discrete is the WAL's cost and nothing else's",
            query=FILTER_SQL, stream="objects", fit=_OBJECT_FIT,
            generate=smooth_objects, mode="discrete", error_bound=None,
            paced_rate=20_000, paced_batch=200,
            saturate_rate=64_000, saturate_batch=500, warmup=5_000,
            wal=True,
        ),
        Workload(
            name="fit_filter_smooth",
            why="paper's headline regime (Fig. 5): hundreds of tuples per "
            "model, so fitting dominates and the solver sees few segments",
            query=FILTER_SQL, stream="objects", fit=_OBJECT_FIT,
            generate=smooth_objects, mode="continuous", error_bound=0.05,
            paced_rate=15_000, paced_batch=150,
            saturate_rate=52_000, saturate_batch=500, warmup=5_000,
        ),
        Workload(
            name="macd_churn",
            why="models refit every 2-3 tuples: windowed avg, equi-join, "
            "filter and one 1-row solve per segment dominate the server",
            query=MACD_SQL, stream="trades",
            fit={"attrs": ["price"], "key_fields": ["symbol"]},
            generate=trades, mode="continuous", error_bound=0.01,
            paced_rate=1_500, paced_batch=30,
            saturate_rate=3_750, saturate_batch=200, warmup=6_600,
            reference_share=0.25,
        ),
        Workload(
            name="following_churn",
            why="few segments but each an all-pairs inequality join with "
            "sqrt/pow and a long-window group-by: few large solves",
            query=FOLLOWING_SQL, stream="vessels", fit=_OBJECT_FIT,
            generate=vessels, mode="continuous", error_bound=5.0,
            paced_rate=2_000, paced_batch=40,
            saturate_rate=5_000, saturate_batch=200, warmup=2_400,
        ),
        Workload(
            name="macd_churn_fleet2",
            why="macd_churn's input through `repro route --workers 2`: the "
            "only workload where key routing, run splitting and merge work",
            query=MACD_SQL, stream="trades",
            fit={"attrs": ["price"], "key_fields": ["symbol"]},
            generate=trades, mode="continuous", error_bound=0.01,
            paced_rate=500, paced_batch=30,
            saturate_rate=700, saturate_batch=200, warmup=6_600,
            fleet_workers=2, reference_share=1.0,
        ),
    )
}
