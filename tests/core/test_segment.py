"""Tests for segments, update semantics and segment buffers."""

import pytest

from repro.core.errors import InvalidSegmentError
from repro.core.polynomial import Polynomial
from repro.core.segment import Segment, SegmentBuffer, apply_update_semantics


def seg(key, lo, hi, **models):
    return Segment(
        key=(key,) if not isinstance(key, tuple) else key,
        t_start=lo,
        t_end=hi,
        models={k: Polynomial(v) for k, v in models.items()},
    )


class TestSegment:
    def test_rejects_empty_range(self):
        with pytest.raises(InvalidSegmentError):
            seg("a", 1.0, 1.0, x=[0.0])

    def test_rejects_non_polynomial_model(self):
        with pytest.raises(InvalidSegmentError):
            Segment(("a",), 0, 1, models={"x": [1, 2]})

    def test_value_at_modeled(self):
        s = seg("a", 0, 10, x=[1.0, 2.0])
        assert s.value_at("x", 3.0) == pytest.approx(7.0)

    def test_value_at_constant(self):
        s = Segment(("a",), 0, 1, models={}, constants={"flag": "on"})
        assert s.value_at("flag", 0.5) == "on"

    def test_value_at_unknown_raises(self):
        s = seg("a", 0, 1, x=[0.0])
        with pytest.raises(KeyError):
            s.value_at("y", 0.5)

    def test_model_unknown_raises_with_available_list(self):
        s = seg("a", 0, 1, x=[0.0])
        with pytest.raises(KeyError, match="available"):
            s.model("y")

    def test_contains_time_half_open(self):
        s = seg("a", 0, 1, x=[0.0])
        assert s.contains_time(0.0)
        assert not s.contains_time(1.0)

    def test_restrict(self):
        s = seg("a", 0, 10, x=[1.0, 1.0])
        r = s.restrict(2, 5)
        assert (r.t_start, r.t_end) == (2, 5)
        assert r.model("x") == s.model("x")

    def test_restrict_outside_raises(self):
        s = seg("a", 0, 10, x=[0.0])
        with pytest.raises(InvalidSegmentError):
            s.restrict(20, 30)

    def test_overlap_range(self):
        a = seg("a", 0, 5, x=[0.0])
        b = seg("a", 3, 8, x=[0.0])
        assert a.overlap_range(b) == (3, 5)
        assert a.overlap_range(seg("a", 5, 8, x=[0.0])) is None

    def test_at_instant_is_point(self):
        s = seg("a", 0, 10, x=[1.0])
        p = s.at_instant(4.0)
        assert p.is_point
        assert p.contains_time(4.0)

    def test_unique_ids(self):
        assert seg("a", 0, 1, x=[0.0]).seg_id != seg("a", 0, 1, x=[0.0]).seg_id

    def test_derive_records_lineage(self):
        a = seg("a", 0, 5, x=[0.0])
        b = seg("b", 0, 5, x=[1.0])
        out = a.derive(("a", "b"), 1, 2, {"x": Polynomial([2.0])}, parents=[a, b])
        assert out.lineage == (a.seg_id, b.seg_id)

    def test_immutable(self):
        s = seg("a", 0, 1, x=[0.0])
        with pytest.raises(AttributeError):
            s.t_start = 5.0


class TestSignatures:
    def test_fold_sig_ignores_time_range_and_identity(self):
        s = Segment(("a",), 0, 10, {"x": Polynomial([1.0, 2.0])}, {"sym": "a"})
        assert s.restrict(2, 5).fold_sig == s.fold_sig
        assert hash(s.fold_sig) == hash(s.restrict(2, 5).fold_sig)

    def test_refit_changes_content_but_not_fold_sig(self):
        a = Segment(("a",), 0, 10, {"x": Polynomial([1.0, 2.0])}, {"sym": "a"})
        b = Segment(("a",), 0, 10, {"x": Polynomial([9.0])}, {"sym": "a"})
        assert a.fold_sig == b.fold_sig

    def test_constants_are_part_of_the_fold_sig(self):
        a = Segment(("a",), 0, 1, {"x": Polynomial([1.0])}, {"sym": "a"})
        b = Segment(("a",), 0, 1, {"x": Polynomial([1.0])}, {"sym": "b"})
        assert a.fold_sig != b.fold_sig

    def test_unhashable_constant_has_no_signature(self):
        s = Segment(("a",), 0, 1, {"x": Polynomial([1.0])}, {"tags": ["u"]})
        assert s.fold_sig is None
        assert s.fold_sig is None  # the verdict is remembered too

    def test_signatures_survive_pickling_by_recomputation(self):
        import pickle

        s = Segment(("a",), 0, 1, {"x": Polynomial([1.0])}, {"sym": "a"})
        sig = s.fold_sig
        assert pickle.loads(pickle.dumps(s)).fold_sig == sig


class TestUpdateSemantics:
    def test_successor_trims_predecessor(self):
        a = seg("a", 0, 10, x=[1.0])
        b = seg("a", 5, 15, x=[2.0])
        out = apply_update_semantics([a], b)
        assert len(out) == 2
        assert (out[0].t_start, out[0].t_end) == (0, 5)
        assert out[0].model("x") == Polynomial([1.0])
        assert (out[1].t_start, out[1].t_end) == (5, 15)

    def test_non_overlapping_appended(self):
        a = seg("a", 0, 5, x=[1.0])
        b = seg("a", 5, 10, x=[2.0])
        out = apply_update_semantics([a], b)
        assert len(out) == 2

    def test_different_key_untouched(self):
        a = seg("a", 0, 10, x=[1.0])
        b = seg("b", 5, 15, x=[2.0])
        out = apply_update_semantics([a], b)
        assert len(out) == 2
        assert (out[0].t_start, out[0].t_end) == (0, 10)

    def test_update_covering_predecessor_replaces_it(self):
        a = seg("a", 2, 4, x=[1.0])
        b = seg("a", 0, 10, x=[2.0])
        out = apply_update_semantics([a], b)
        assert len(out) == 1
        assert out[0].model("x") == Polynomial([2.0])

    def test_update_inside_predecessor_keeps_head(self):
        a = seg("a", 0, 10, x=[1.0])
        b = seg("a", 4, 6, x=[2.0])
        out = apply_update_semantics([a], b)
        # Head [0,4) survives; the rest is overridden by the newer piece.
        assert (out[0].t_start, out[0].t_end) == (0, 4)
        assert (out[1].t_start, out[1].t_end) == (4, 6)

    def test_original_list_not_mutated(self):
        a = seg("a", 0, 10, x=[1.0])
        existing = [a]
        apply_update_semantics(existing, seg("a", 5, 15, x=[2.0]))
        assert existing == [a]


class TestSegmentBuffer:
    def test_insert_and_len(self):
        buf = SegmentBuffer()
        buf.insert(seg("a", 0, 5, x=[0.0]))
        buf.insert(seg("b", 0, 5, x=[0.0]))
        assert len(buf) == 2

    def test_insert_applies_update_semantics(self):
        buf = SegmentBuffer()
        buf.insert(seg("a", 0, 10, x=[1.0]))
        buf.insert(seg("a", 5, 15, x=[2.0]))
        segs = list(buf.segments(("a",)))
        assert [s.t_end for s in segs] == [5, 15]

    def test_overlapping_query(self):
        buf = SegmentBuffer()
        buf.insert(seg("a", 0, 5, x=[0.0]))
        buf.insert(seg("a", 10, 15, x=[0.0]))
        hits = list(buf.overlapping(4, 11))
        assert len(hits) == 2
        assert list(buf.overlapping(6, 9)) == []

    def test_overlapping_by_key(self):
        buf = SegmentBuffer()
        buf.insert(seg("a", 0, 5, x=[0.0]))
        buf.insert(seg("b", 0, 5, x=[0.0]))
        assert len(list(buf.overlapping(0, 5, key=("a",)))) == 1

    def test_evict_before(self):
        buf = SegmentBuffer()
        buf.insert(seg("a", 0, 5, x=[0.0]))
        buf.insert(seg("a", 5, 10, x=[0.0]))
        dropped = buf.evict_before(6.0)
        assert dropped == 1
        assert len(buf) == 1
        assert buf.watermark == 6.0

    def test_evict_removes_empty_keys(self):
        buf = SegmentBuffer()
        buf.insert(seg("a", 0, 5, x=[0.0]))
        buf.evict_before(100.0)
        assert list(buf.keys()) == []

    def test_clear(self):
        buf = SegmentBuffer()
        buf.insert(seg("a", 0, 5, x=[0.0]))
        buf.clear()
        assert len(buf) == 0

    def test_clear_resets_the_watermark(self):
        buf = SegmentBuffer()
        buf.insert(seg("a", 0, 5, x=[0.0]))
        buf.evict_before(3.0)
        buf.clear()
        assert buf.watermark == float("-inf")

    def test_in_order_insert_touches_no_stored_segment(self, monkeypatch):
        """An arrival starting at or after its key's last end changes
        nothing stored: no predecessor is examined, restricted or
        re-sorted, however long the key's list is."""
        from repro.core import segment as segment_module

        buf = SegmentBuffer()
        for i in range(200):
            buf.insert(seg("a", i, i + 1, x=[0.0]))
        examined, restricted = [], []
        real_update = segment_module.apply_update_semantics
        real_restrict = Segment.restrict
        monkeypatch.setattr(
            segment_module, "apply_update_semantics",
            lambda existing, incoming: examined.append(len(existing))
            or real_update(existing, incoming),
        )
        monkeypatch.setattr(
            Segment, "restrict",
            lambda self, lo, hi: restricted.append(self)
            or real_restrict(self, lo, hi),
        )
        buf.insert(seg("a", 200, 201, x=[0.0]))
        buf.insert(seg("a", 201.5, 202, x=[0.0]))
        assert examined == [0, 0] and restricted == []
        # a revision examines only what it overlaps
        buf.insert(seg("a", 200.5, 203, x=[1.0]))
        assert examined[2:] == [2] and len(restricted) == 1
        assert [(s.t_start, s.t_end) for s in buf.overlapping(199.5, 300)] == [
            (199, 200), (200, 200.5), (200.5, 203),
        ]

    def test_partition_probe_visits_only_its_keys(self):
        buf = SegmentBuffer()
        buf.insert(seg("a", 0, 5, x=[0.0]), partition="p")
        buf.insert(seg("b", 0, 5, x=[0.0]), partition="q")
        buf.insert(seg("c", 0, 5, x=[0.0]), partition="p")
        hits = [s.key for s in buf.overlapping(0, 5, partition="p")]
        assert hits == [("a",), ("c",)]
        assert list(buf.overlapping(0, 5, partition="r")) == []

    def test_key_under_two_partitions_makes_probes_scan_until_it_dies(self):
        buf = SegmentBuffer()
        buf.insert(seg("a", 0, 5, x=[0.0]), partition="p")
        buf.insert(seg("b", 0, 5, x=[0.0]), partition="q")
        buf.insert(seg("a", 5, 9, x=[0.0]), partition="q")
        keys = [s.key for s in buf.overlapping(0, 9, partition="q")]
        assert keys == [("a",), ("a",), ("b",)]
        buf.evict_before(9.0)
        buf.insert(seg("b", 9, 12, x=[0.0]), partition="q")
        buf.insert(seg("a", 9, 12, x=[0.0]), partition="p")
        assert [s.key for s in buf.overlapping(0, 20, partition="q")] == [("b",)]
