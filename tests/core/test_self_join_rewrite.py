"""The symmetric self-join rewrite: when it fires, and that it changes
no answer.

``to_continuous_plan`` lowers a swap-invariant self-join to one source,
a :class:`SymmetricSelfJoin` that computes each unordered pair once, and
an output stage emitting mirror twins.  The plain lowering
(``_plain_continuous_plan``) is the reference: every push must return
the same serialized rows in the same order.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import PlanError
from repro.core.expr import Abs, Attr, Const, Mul, Pow, Sqrt, Sub
from repro.core.operators import ContinuousGroupBy, SymmetricSelfJoin
from repro.core.polynomial import Polynomial
from repro.core.segment import Segment
from repro.core.symmetry import ANTI, INV, Swap, parity
from repro.core.transform import _plain_continuous_plan, to_continuous_plan
from repro.engine.tuples import StreamTuple
from repro.fitting.model_builder import StreamModelBuilder
from repro.query import parse_query, plan_query
from repro.server.protocol import serialize_results

FOLLOWING_SQL = """
select id1, id2, avg(dist) as avg_dist from
    (select S1.id as id1, S2.id as id2,
            sqrt(pow(S1.x - S2.x, 2) + pow(S1.y - S2.y, 2)) as dist
     from vessels [size 3 advance 1] as S1
     join vessels as S2 [size 3 advance 1]
     on (S1.id <> S2.id)) [size 4 advance 0.5] as Candidates
group by id1, id2 having avg(dist) < 30
"""


def _join(on, select="*", right_window="[size 3 advance 1]"):
    return (
        f"select {select} from vessels [size 3 advance 1] as a "
        f"join vessels {right_window} as b on ({on})"
    )


DISTANCE = "pow(a.x - b.x, 2) + pow(a.y - b.y, 2) < 900"

#: name -> (query, whether the rewrite must fire)
SHAPES = {
    "following": (FOLLOWING_SQL, True),
    "distance": (_join(f"a.id <> b.id and {DISTANCE}"), True),
    "asymmetric": (_join("a.id <> b.id and a.x > b.x"), False),
    "unequal_windows": (
        _join(f"a.id <> b.id and {DISTANCE}",
              right_window="[size 4 advance 1]"),
        False,
    ),
    "difference": (
        _join(f"a.id <> b.id and {DISTANCE}", select="a.x - b.x as dx"),
        False,
    ),
}


def planned(sql):
    return plan_query(parse_query(sql))


def rewritten(query) -> bool:
    return any(
        isinstance(op, SymmetricSelfJoin) for op in query.plan.operators()
    )


# ----------------------------------------------------------------------
# the invariance rules
# ----------------------------------------------------------------------
SWAP = Swap("a", "b")
DX = Sub(Attr("a.x"), Attr("b.x"))


class TestParity:
    def test_difference_of_swapped_sides_is_anti_invariant(self):
        assert parity(DX, SWAP) == ANTI
        assert parity(Sub(Attr("a.x"), Attr("b.y")), SWAP) is None

    def test_even_power_and_abs_of_anti_are_invariant(self):
        assert parity(Pow(DX, 2), SWAP) == INV
        assert parity(Abs(DX), SWAP) == INV
        assert parity(Pow(DX, 3), SWAP) == ANTI

    def test_invariants_stay_invariant(self):
        dist = Sqrt(Pow(DX, 2) + Pow(Sub(Attr("a.y"), Attr("b.y")), 2))
        assert parity(dist, SWAP) == INV
        assert parity(Mul(dist, Const(2.0)), SWAP) == INV

    def test_no_guarantee_where_a_sign_could_leak(self):
        # A zero factor may carry different signs on the two sides.
        assert parity(Mul(DX, DX), SWAP) is None
        assert parity(Sqrt(DX), SWAP) is None
        assert parity(Attr("a.x"), SWAP) is None
        assert parity(Attr("unknown"), SWAP) is None

    def test_mirror_swaps_key_halves_and_names_in_place(self):
        seg = Segment(
            ("v1", "v2"), 0.0, 1.0,
            {"a.x": Polynomial([1.0]), "b.x": Polynomial([2.0])},
            constants={"a.id": "v1", "b.id": "v2", "tag": 7},
        )
        twin = SWAP.mirror(seg)
        assert twin.key == ("v2", "v1")
        assert list(twin.models) == ["a.x", "b.x"]
        assert twin.models["a.x"].coeffs == (2.0,)
        assert dict(twin.constants) == {"a.id": "v2", "b.id": "v1", "tag": 7}
        assert SWAP.mirror(twin).key == seg.key


# ----------------------------------------------------------------------
# when the rewrite fires
# ----------------------------------------------------------------------
class TestFiring:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_fires_exactly_on_swap_invariant_shapes(self, shape):
        sql, fires = SHAPES[shape]
        query = to_continuous_plan(planned(sql))
        assert rewritten(query) == fires
        assert len(query.stream_sources["vessels"]) == (1 if fires else 2)
        assert not rewritten(_plain_continuous_plan(planned(sql)))

    def test_needs_a_conjunct_that_rejects_self_pairs(self):
        # Invariant, but a segment would pair with itself, and that row
        # has no twin.
        assert not rewritten(to_continuous_plan(planned(_join(DISTANCE))))

    def test_needs_swap_closed_group_fields(self):
        sql = FOLLOWING_SQL.replace("group by id1, id2", "group by id1")
        sql = sql.replace("select id1, id2, avg", "select id1, avg")
        assert not rewritten(to_continuous_plan(planned(sql)))

    def test_group_state_is_shared_by_mirror_groups(self):
        query = to_continuous_plan(planned(FOLLOWING_SQL))
        plain = _plain_continuous_plan(planned(FOLLOWING_SQL))
        segments = _segments(_trace([(0.0, 0.0, 1.0, 0.0)] * 3, 4.0, 0.25))
        for seg in segments:
            assert serialize_results(query.push("vessels", seg)) == (
                serialize_results(plain.push("vessels", seg))
            )

        def groups(q):
            (gb,) = [
                op for op in q.plan.operators()
                if isinstance(op, ContinuousGroupBy)
            ]
            return gb.group_count

        assert groups(plain) == 6
        assert groups(query) == 3

    def test_keys_of_different_lengths_are_refused(self):
        query = to_continuous_plan(planned(SHAPES["distance"][0]))
        models = {"x": Polynomial([0.0]), "y": Polynomial([0.0])}
        query.push("vessels", Segment(("v1",), 0, 2, models, {"id": "v1"}))
        with pytest.raises(PlanError, match="different lengths"):
            query.push(
                "vessels", Segment(("v2", 0), 1, 3, models, {"id": "v2"})
            )


# ----------------------------------------------------------------------
# same answers, push by push
# ----------------------------------------------------------------------
def _trace(vessels, seconds, dt):
    """Round-robin reports of straight-sailing vessels
    ``(x0, y0, vx, vy)``, each turning half-way."""
    rows, t, k = [], 0.0, 0
    while t < seconds:
        x0, y0, vx, vy = vessels[k]
        leg = min(t, seconds / 2)
        turned = max(t - seconds / 2, 0.0)
        rows.append({
            "time": t, "id": f"v{k}",
            "x": x0 + vx * leg - vy * turned,
            "y": y0 + vy * leg + vx * turned,
        })
        k = (k + 1) % len(vessels)
        t += dt
    return rows


def _segments(rows):
    builder = StreamModelBuilder(
        ("x", "y"), 0.5, key_fields=("id",), constants=("id",)
    )
    out = []
    for row in rows:
        out.extend(builder.add(StreamTuple(row)))
    return out + builder.finish()


_VESSEL = st.tuples(
    st.sampled_from([0.0, 10.0, 20.0, 60.0]),
    st.sampled_from([0.0, 15.0]),
    st.sampled_from([-2.0, 0.0, 1.5, 3.0]),
    st.sampled_from([-1.0, 0.0, 2.0]),
)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    vessels=st.lists(_VESSEL, min_size=2, max_size=4),
    dt=st.sampled_from([0.1, 0.25, 0.4]),
)
def test_rewrite_answers_equal_the_plain_lowering(vessels, dt):
    segments = _segments(_trace(vessels, 8.0, dt))
    for sql, fires in SHAPES.values():
        query = to_continuous_plan(planned(sql))
        plain = _plain_continuous_plan(planned(sql))
        assert rewritten(query) == fires
        for seg in segments:
            got = serialize_results(query.push("vessels", seg))
            assert got == serialize_results(plain.push("vessels", seg))
        # A flush follows group insertion order, which the shared
        # states change: only the multiset is the same.
        assert Counter(map(repr, serialize_results(query.plan.flush()))) == (
            Counter(map(repr, serialize_results(plain.plan.flush())))
        )
