"""Tests for the continuous join operator."""

import pytest

from repro.core.expr import Attr, Const, Pow, Sub
from repro.core.operators import ContinuousJoin
from repro.core.polynomial import Polynomial
from repro.core.predicate import And, Comparison
from repro.core.relation import Rel
from repro.core.segment import Segment


def seg(lo, hi, key, constants=None, **models):
    return Segment(
        key=(key,),
        t_start=lo,
        t_end=hi,
        models={k: Polynomial(v) for k, v in models.items()},
        constants=constants or {},
    )


def lt(l, r):
    return Comparison(Attr(l), Rel.LT, Attr(r))


class TestJoinBasics:
    def test_no_partner_no_output(self):
        j = ContinuousJoin(lt("L.x", "R.y"))
        assert j.process(seg(0, 10, "a", x=[0.0]), port=0) == []

    def test_figure1_join(self):
        # A.x = 4 + t vs B.y = 2t + 0.5t^2; A.x < B.y for t > 2.
        j = ContinuousJoin(lt("L.x", "R.y"))
        j.process(seg(0, 10, "a", x=[4.0, 1.0]), port=0)
        out = j.process(seg(0, 10, "b", y=[0.0, 2.0, 0.5]), port=1)
        assert len(out) == 1
        assert out[0].t_start == pytest.approx(2.0)
        assert out[0].t_end == pytest.approx(10.0)

    def test_output_merges_models_with_aliases(self):
        j = ContinuousJoin(lt("L.x", "R.y"), left_alias="L", right_alias="R")
        j.process(seg(0, 10, "a", x=[0.0]), port=0)
        out = j.process(seg(0, 10, "b", y=[5.0]), port=1)
        assert set(out[0].models) == {"L.x", "R.y"}
        assert out[0].key == ("a", "b")

    def test_solution_restricted_to_overlap(self):
        j = ContinuousJoin(lt("L.x", "R.y"))
        j.process(seg(0, 4, "a", x=[0.0]), port=0)   # left valid [0,4)
        out = j.process(seg(2, 10, "b", y=[5.0]), port=1)  # right [2,10)
        assert len(out) == 1
        assert (out[0].t_start, out[0].t_end) == (2, 4)

    def test_non_overlapping_segments_never_pair(self):
        j = ContinuousJoin(lt("L.x", "R.y"))
        j.process(seg(0, 2, "a", x=[0.0]), port=0)
        assert j.process(seg(5, 10, "b", y=[5.0]), port=1) == []

    def test_symmetry_of_ports(self):
        j = ContinuousJoin(lt("L.x", "R.y"))
        j.process(seg(0, 10, "b", y=[5.0]), port=1)
        out = j.process(seg(0, 10, "a", x=[0.0]), port=0)
        assert len(out) == 1
        assert set(out[0].models) == {"L.x", "R.y"}

    def test_invalid_port(self):
        j = ContinuousJoin(lt("L.x", "R.y"))
        with pytest.raises(ValueError):
            j.process(seg(0, 1, "a", x=[0.0]), port=2)

    def test_multiple_partners_produce_multiple_outputs(self):
        j = ContinuousJoin(lt("L.x", "R.y"))
        j.process(seg(0, 10, "a1", x=[0.0]), port=0)
        j.process(seg(0, 10, "a2", x=[1.0]), port=0)
        out = j.process(seg(0, 10, "b", y=[5.0]), port=1)
        assert len(out) == 2


class TestJoinPredicates:
    def test_key_inequality_folded_discretely(self):
        # The paper's self-join guard: L.id <> R.id.
        pred = And(
            Comparison(Attr("L.id"), Rel.NE, Attr("R.id")),
            lt("L.x", "R.x"),
        )
        j = ContinuousJoin(pred)
        j.process(seg(0, 10, "v1", constants={"id": "v1"}, x=[0.0]), port=0)
        # Same id on the right: rejected without solving.
        out = j.process(
            seg(0, 10, "v1", constants={"id": "v1"}, x=[5.0]), port=1
        )
        assert out == []
        assert j.pairs_rejected_discrete == 1
        # Different id joins normally.
        out = j.process(
            seg(0, 10, "v2", constants={"id": "v2"}, x=[5.0]), port=1
        )
        assert len(out) == 1

    def test_equality_join_emits_point(self):
        # L.x = t, R.y = 10 - t: equal at t = 5.
        pred = Comparison(Attr("L.x"), Rel.EQ, Attr("R.y"))
        j = ContinuousJoin(pred)
        j.process(seg(0, 10, "a", x=[0.0, 1.0]), port=0)
        out = j.process(seg(0, 10, "b", y=[10.0, -1.0]), port=1)
        assert len(out) == 1
        assert out[0].is_point
        assert out[0].contains_time(5.0)

    def test_proximity_join_quadratic(self):
        # Objects approaching: L at x=t, R at x=10-t; squared distance
        # (2t-10)^2 < 4 when |t-5| < 1, i.e. t in (4, 6).
        dist_sq = Pow(Sub(Attr("L.x"), Attr("R.x")), 2)
        pred = Comparison(dist_sq, Rel.LT, Const(4.0))
        j = ContinuousJoin(pred)
        j.process(seg(0, 10, "a", x=[0.0, 1.0]), port=0)
        out = j.process(seg(0, 10, "b", x=[10.0, -1.0]), port=1)
        assert len(out) == 1
        assert out[0].t_start == pytest.approx(4.0)
        assert out[0].t_end == pytest.approx(6.0)

    def test_always_true_predicate_passes_overlap(self):
        pred = Comparison(Const(1.0), Rel.GT, Const(0.0))
        j = ContinuousJoin(pred)
        j.process(seg(0, 5, "a", x=[0.0]), port=0)
        out = j.process(seg(3, 8, "b", y=[0.0]), port=1)
        assert len(out) == 1
        assert (out[0].t_start, out[0].t_end) == (3, 5)


class TestEquiKeyPartitions:
    @staticmethod
    def _symbol_join(**kwargs):
        pred = And(
            Comparison(Attr("S.symbol"), Rel.EQ, Attr("L.symbol")),
            lt("S.ap", "L.ap"),
        )
        return ContinuousJoin(pred, left_alias="S", right_alias="L", **kwargs)

    @staticmethod
    def _fold_lookups_for_last_arrival(live_keys):
        """``memo.fold`` lookups made by one arrival of key ``k0`` while
        ``live_keys`` keys hold three overlapping segments each."""
        from repro.engine.metrics import counter_snapshot, reset_counters

        j = TestEquiKeyPartitions._symbol_join(window=100.0)
        for i in range(3):
            for k in range(live_keys):
                j.process(
                    seg(i, i + 1, f"k{k}", {"symbol": f"k{k}"}, ap=[float(k)]),
                    port=1,
                )
        reset_counters()
        out = j.process(
            seg(0, 3, "k0", {"symbol": "k0"}, ap=[-1.0]), port=0
        )
        snapshot = counter_snapshot("memo.fold")
        return (
            snapshot["memo.fold.hits"] + snapshot["memo.fold.misses"],
            len(out),
            j.pairs_rejected_discrete,
        )

    def test_fold_lookups_per_arrival_do_not_grow_with_live_keys(self):
        # one lookup per same-key overlapping partner, none for the rest
        assert self._fold_lookups_for_last_arrival(2) == (3, 3, 0)
        assert self._fold_lookups_for_last_arrival(40) == (3, 3, 0)

    def test_other_discrete_atoms_still_count_as_rejections(self):
        pred = And(
            Comparison(Attr("L.symbol"), Rel.EQ, Attr("R.symbol")),
            Comparison(Attr("L.venue"), Rel.NE, Attr("R.venue")),
        )
        j = ContinuousJoin(pred)
        j.process(seg(0, 5, "a", {"symbol": "x", "venue": "n"}, p=[0.0]), 0)
        j.process(seg(0, 5, "b", {"symbol": "y", "venue": "m"}, p=[0.0]), 0)
        out = j.process(
            seg(0, 5, "c", {"symbol": "x", "venue": "n"}, p=[0.0]), 1
        )
        # ``b`` is in another partition and never probed; ``a`` is
        # probed and rejected by the venue atom.
        assert out == []
        assert j.pairs_rejected_discrete == 1

    def test_int_and_float_keys_share_a_partition(self):
        j = self._symbol_join()
        j.process(seg(0, 5, "a", {"symbol": 1}, ap=[0.0]), port=0)
        out = j.process(seg(0, 5, "b", {"symbol": 1.0}, ap=[5.0]), port=1)
        assert len(out) == 1

    def test_segment_without_the_key_constant_probes_every_key(self):
        from repro.core.errors import PulseError

        j = self._symbol_join()
        j.process(seg(0, 5, "a", {"symbol": "x"}, ap=[0.0]), port=0)
        # No ``symbol`` to fold: the atom reaches the compiler, which
        # refuses it — exactly what an unpartitioned probe does.
        with pytest.raises(PulseError):
            j.process(seg(0, 5, "b", ap=[5.0]), port=1)

    def test_slack_system_comes_from_the_arrivals_partition(self):
        from repro.engine.metrics import counter_snapshot, reset_counters

        j = self._symbol_join()
        j.process(seg(0, 5, "a", {"symbol": "x"}, ap=[0.0]), port=1)
        j.process(seg(0, 5, "b", {"symbol": "y"}, ap=[9.0]), port=1)
        arrival = seg(0, 5, "c", {"symbol": "x"}, ap=[1.0])
        system = j.slack_system(arrival)
        assert system is not None and len(system.rows) == 1
        # The second probe of the same pair is served the folded
        # residual by the memo that ``process`` fills.
        reset_counters()
        again = j.slack_system(arrival)
        lookups = counter_snapshot("memo.fold")
        assert lookups["memo.fold.hits"] == 1
        assert lookups["memo.fold.misses"] == 0
        assert again.rows == system.rows

    def test_evict_skips_until_the_horizon_advances(self, monkeypatch):
        from repro.core.segment import SegmentBuffer

        calls = []
        real = SegmentBuffer.evict_before
        monkeypatch.setattr(
            SegmentBuffer, "evict_before",
            lambda self, w: calls.append(w) or real(self, w),
        )
        j = self._symbol_join(window=1.0)
        j.process(seg(0, 1, "a", {"symbol": "x"}, ap=[0.0]), port=0)
        j.process(seg(5, 6, "a", {"symbol": "x"}, ap=[0.0]), port=1)
        assert calls == [-1.0, -1.0]  # both buffers, once
        # the right side runs ahead: min(start watermarks) stays at 0
        j.process(seg(6, 7, "a", {"symbol": "x"}, ap=[0.0]), port=1)
        j.process(seg(7, 8, "a", {"symbol": "x"}, ap=[0.0]), port=1)
        assert len(calls) == 2
        j.process(seg(1, 2, "a", {"symbol": "x"}, ap=[0.0]), port=0)
        assert calls[2:] == [0.0, 0.0]


class TestJoinState:
    def test_window_evicts_old_segments(self):
        j = ContinuousJoin(lt("L.x", "R.y"), window=1.0)
        j.process(seg(0, 1, "a", x=[0.0]), port=0)
        j.process(seg(1, 2, "a", x=[0.0]), port=0)
        # Eviction requires BOTH sides' start watermarks to advance (a
        # lagging side may still deliver old-time segments).
        j.process(seg(10, 11, "b", y=[5.0]), port=1)
        assert len(list(j._buffers[0].segments())) == 2
        j.process(seg(10, 11, "a2", x=[0.0]), port=0)
        assert all(s.t_end > 9.0 for s in j._buffers[0].segments())
        assert all(s.t_end > 9.0 for s in j._buffers[1].segments())

    def test_unbounded_state_without_window(self):
        j = ContinuousJoin(lt("L.x", "R.y"))
        for i in range(5):
            j.process(seg(i, i + 1, "a", x=[0.0]), port=0)
        j.process(seg(100, 101, "b", y=[5.0]), port=1)
        assert len(list(j._buffers[0].segments())) == 5

    def test_state_size_property(self):
        j = ContinuousJoin(lt("L.x", "R.y"))
        j.process(seg(0, 1, "a", x=[0.0]), port=0)
        j.process(seg(0, 1, "b", y=[0.0]), port=1)
        assert j.state_size == 2

    def test_reset(self):
        j = ContinuousJoin(lt("L.x", "R.y"))
        j.process(seg(0, 1, "a", x=[0.0]), port=0)
        j.reset()
        assert j.state_size == 0

    def test_update_semantics_in_buffer(self):
        # A newer left segment overriding the old one means the old model
        # no longer joins in the overridden range.
        j = ContinuousJoin(lt("L.x", "R.y"))
        j.process(seg(0, 10, "a", x=[0.0]), port=0)     # x=0 < 5: joins
        j.process(seg(5, 10, "a", x=[99.0]), port=0)    # update: x=99 from t=5
        out = j.process(seg(0, 10, "b", y=[5.0]), port=1)
        ranges = sorted((o.t_start, o.t_end) for o in out)
        # Old model only joins on [0,5); the update (x=99) never does.
        assert ranges == [(0.0, 5.0)]


class TestSelfJoinOrientation:
    """A self-join the symmetry rewrite does not take still lowers to a
    :class:`ContinuousJoin` fed on both ports by one source, so every
    pair it emits must come with its swapped twin."""

    @pytest.mark.xfail(
        strict=True,
        reason="the port-0 probe pairs the arrival with its key's "
        "predecessor before the update rule trims it in the right "
        "buffer; fix: apply the arrival's update semantics on both "
        "buffers before either probe",
    )
    def test_overlapping_successor_pairs_in_both_orientations(self):
        from repro.core.transform import to_continuous_plan
        from repro.query import parse_query, plan_query

        query = to_continuous_plan(plan_query(parse_query(
            "select * from s [size 3 advance 1] as a "
            "join s [size 3 advance 1] as b on (a.x + b.x > 0)"
        )))
        outputs = []
        for lo, hi, x in ((0.0, 4.0, 0.5), (2.0, 5.0, 1.0)):
            outputs += query.push(
                "s", Segment(("k",), lo, hi, {"x": Polynomial([x])})
            )
        rows = sorted(
            (s.t_start, s.t_end, s.models["a.x"].coeffs,
             s.models["b.x"].coeffs)
            for s in outputs
        )
        assert rows == sorted((lo, hi, b, a) for lo, hi, a, b in rows)
