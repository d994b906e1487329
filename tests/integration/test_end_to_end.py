"""End-to-end integration: the same queries on both processing paths.

These tests run full parsed queries through (a) the discrete baseline
engine on raw tuples and (b) the continuous engine on segments fitted
from the same tuples, then check that the two paths approximately agree
— "approximately" because the paper's Section IV-A explicitly allows
false positives/negatives at result boundaries.
"""

import math

import pytest

from repro.core.operators import OutputSampler
from repro.core.transform import to_continuous_plan
from repro.engine.lowering import to_discrete_plan
from repro.fitting import build_segments
from repro.query import parse_query, plan_query
from repro.workloads import (
    AisConfig,
    AisVesselGenerator,
    MovingObjectConfig,
    MovingObjectGenerator,
    NyseConfig,
    NyseTradeGenerator,
)


def run_discrete(planned, stream, tuples):
    query = to_discrete_plan(planned)
    outputs = []
    for tup in tuples:
        outputs.extend(query.push(stream, tup))
    outputs.extend(query.flush())
    return outputs


def run_continuous(planned, stream, segments):
    query = to_continuous_plan(planned)
    outputs = []
    for seg in segments:
        outputs.extend(query.push(stream, seg))
    return outputs


class TestFilterQuery:
    SQL = "select * from objects where x > 0"

    def test_paths_agree_on_sampled_times(self):
        gen = MovingObjectGenerator(
            MovingObjectConfig(num_objects=3, rate=300.0, tuples_per_segment=50)
        )
        tuples = list(gen.tuples(1500))
        planned = plan_query(parse_query(self.SQL))

        discrete_out = run_discrete(planned, "objects", tuples)
        discrete_pass = {
            (t["id"], round(t.time, 6)) for t in discrete_out
        }

        segments = build_segments(
            tuples, attrs=("x", "y"), tolerance=1e-6,
            key_fields=("id",), constants=("id",),
        )
        continuous_out = run_continuous(planned, "objects", segments)

        # Check every tuple's pass/fail against the continuous solution.
        agree = 0
        total = 0
        for tup in tuples:
            t = tup.time
            key = (tup["id"], round(t, 6))
            in_continuous = any(
                seg.constants.get("id") == tup["id"] and seg.contains_time(t)
                for seg in continuous_out
            )
            total += 1
            if in_continuous == (key in discrete_pass):
                agree += 1
        assert total > 0
        # Boundary tuples may flip (paper's false positives/negatives);
        # the bulk must agree.
        assert agree / total > 0.98

    def test_continuous_output_values_match_models(self):
        gen = MovingObjectGenerator(
            MovingObjectConfig(num_objects=2, rate=200.0, tuples_per_segment=40)
        )
        tuples = list(gen.tuples(400))
        planned = plan_query(parse_query(self.SQL))
        segments = build_segments(
            tuples, attrs=("x", "y"), tolerance=1e-6,
            key_fields=("id",), constants=("id",),
        )
        outputs = run_continuous(planned, "objects", segments)
        for seg in outputs:
            mid = 0.5 * (seg.t_start + seg.t_end)
            assert seg.value_at("x", mid) > -1e-6


class TestProximityJoinQuery:
    """A symmetric self-join (the rewrite computes each pair once and
    mirrors it) against the discrete nested-loop join, on a trace with
    two injected follower pairs sailing 50 m apart, well inside the
    query's 100 m."""

    SQL = """
    select from objects R join objects S on (R.id <> S.id)
    where pow(R.x - S.x, 2) + pow(R.y - S.y, 2) < 10000
    """

    @pytest.fixture(scope="class")
    def runs(self):
        gen = AisVesselGenerator(
            AisConfig(num_vessels=4, follower_pairs=2, rate=40.0,
                      follow_distance=50.0, course_period=30.0, seed=7)
        )
        tuples = list(gen.tuples(800))  # 20 seconds
        planned = plan_query(parse_query(self.SQL))
        discrete_out = run_discrete(planned, "objects", tuples)
        segments = build_segments(
            tuples, attrs=("x", "y"), tolerance=0.5,
            key_fields=("id",), constants=("id",),
        )
        continuous_out = run_continuous(planned, "objects", segments)
        return gen, discrete_out, continuous_out

    def test_join_detects_proximity_on_both_paths(self, runs):
        gen, discrete_out, continuous_out = runs
        discrete_pairs = {
            frozenset((t["r.id"], t["s.id"])) for t in discrete_out
        }
        continuous_pairs = {
            frozenset(
                (seg.constants["r.id"], seg.constants["s.id"])
            )
            for seg in continuous_out
        }
        # Both paths must find the same close-encounter pairs: the
        # injected ones.
        assert discrete_pairs == continuous_pairs
        assert continuous_pairs == {frozenset(p) for p in gen.follower_pairs}

    def test_continuous_ranges_cover_discrete_hits(self, runs):
        _, discrete_out, continuous_out = runs
        assert discrete_out and continuous_out
        covered = 0
        for hit in discrete_out:
            pair = frozenset((hit["r.id"], hit["s.id"]))
            t = hit.time
            for seg in continuous_out:
                seg_pair = frozenset(
                    (seg.constants["r.id"], seg.constants["s.id"])
                )
                if seg_pair == pair and seg.t_start - 0.02 <= t <= seg.t_end + 0.02:
                    covered += 1
                    break
        assert covered / len(discrete_out) > 0.95


class TestMacdQuery:
    SQL = """
    select symbol, S.ap - L.ap as diff from
        (select symbol, avg(price) as ap from
            trades [size 5 advance 1]) as S
    join
        (select symbol, avg(price) as ap from
            trades [size 15 advance 1]) as L
    on (S.symbol = L.symbol)
    where S.ap > L.ap
    """

    @pytest.fixture(scope="class")
    def runs(self):
        gen = NyseTradeGenerator(
            NyseConfig(num_symbols=2, rate=100.0, volatility=5e-5,
                       drift_period=30.0, seed=21)
        )
        tuples = list(gen.tuples(5000))  # 50 seconds
        planned = plan_query(parse_query(self.SQL))
        discrete_out = run_discrete(planned, "trades", tuples)
        segments = build_segments(
            tuples, attrs=("price",), tolerance=0.02,
            key_fields=("symbol",), constants=("symbol",),
        )
        continuous_out = run_continuous(planned, "trades", segments)
        return tuples, discrete_out, continuous_out

    def test_both_paths_produce_results(self, runs):
        _, discrete_out, continuous_out = runs
        assert discrete_out
        assert continuous_out

    def test_diff_values_close_at_shared_closes(self, runs):
        """Discrete MACD signals away from the crossing boundary are
        reproduced by the continuous path with matching diff values.

        Warmup closes (the long window not yet filled: the discrete
        engine emits over partial windows while the continuous window
        function requires full coverage) and near-zero diffs (the
        paper's boundary false negatives) are excluded.
        """
        _, discrete_out, continuous_out = runs
        checked = 0
        eligible = 0
        for row in discrete_out:
            c = row.time
            if c < 20.0 or row["diff"] < 0.05:
                continue
            eligible += 1
            sym = row["symbol"]
            for seg in continuous_out:
                if (
                    seg.constants.get("symbol") == sym
                    and seg.t_start <= c < seg.t_end
                ):
                    cont_diff = seg.value_at("diff", c)
                    assert cont_diff == pytest.approx(row["diff"], abs=0.15)
                    checked += 1
                    break
        assert eligible > 0
        assert checked >= 0.8 * eligible

    def test_positive_diff_invariant(self, runs):
        """The WHERE clause guarantees diff > 0 on both paths."""
        _, discrete_out, continuous_out = runs
        assert all(row["diff"] > 0 for row in discrete_out)
        sampler = OutputSampler(period=0.5)
        for seg in continuous_out:
            for row in sampler.tuples(seg):
                assert row["diff"] > -1e-6
