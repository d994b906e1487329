"""Unit tests for the NDJSON wire protocol (framing + validation).

Ingest validation is columnar; every row-level case is expressed as a
batch of columns, as list literals and, for floats, as packed bits.
:func:`tests.oracles.validate_tuple` is the row validator the column
validator must agree with row for row (the property at the end).
"""

import base64
import json
import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import PulseError
from repro.core.polynomial import Polynomial
from repro.core.segment import Segment
from repro.engine.tuples import ColumnBatch
from repro.server.protocol import (
    ProtocolError,
    decode_line,
    encode,
    error_response,
    pack_columns,
    rejection_fields,
    serialize_results,
    serialize_segment,
    serialize_tuple,
    validate_columns,
    validate_ingest,
    validate_request,
)
from tests.oracles import validate_tuple


def f64(*values) -> dict:
    """A packed column holding ``values``."""
    raw = struct.pack(f"<{len(values)}d", *values)
    return {"f64": base64.b64encode(raw).decode("ascii")}


def one_row(columns: dict):
    """Validate a one-row batch: ``(accepted rows, rejections)``."""
    batch, rejected = validate_columns(columns)
    return batch.rows(), rejected


def rejected_code(columns: dict) -> str:
    """The code of a one-row batch's rejected row (fails if accepted)."""
    rows, rejected = one_row(columns)
    assert rows == [] and list(rejected) == [0], (rows, rejected)
    return rejected[0].code


class TestFraming:
    def test_encode_is_one_line(self):
        data = encode({"op": "hello", "id": 1})
        assert data.endswith(b"\n")
        assert data.count(b"\n") == 1
        assert json.loads(data) == {"op": "hello", "id": 1}

    def test_encode_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            encode({"x": float("nan")})
        with pytest.raises(ValueError):
            encode({"x": float("inf")})

    def test_decode_roundtrip(self):
        obj = {
            "op": "ingest",
            "columns": pack_columns({"time": [0.1], "x": [1.5], "id": ["a"]}),
        }
        assert decode_line(encode(obj)) == obj

    def test_decode_rejects_bad_json(self):
        with pytest.raises(ProtocolError):
            decode_line(b"{nope\n")

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            decode_line(b"[1,2,3]\n")

    def test_decode_rejects_bad_utf8(self):
        with pytest.raises(ProtocolError):
            decode_line(b"\xff\xfe{}\n")

    def test_float_roundtrip_is_bit_exact(self):
        values = [0.1, 1 / 3, 1e-17, 2.0000000000000013, math.pi]
        out = decode_line(encode({"v": values}))
        assert out["v"] == values  # exact equality, not approx


class TestRequestEnvelope:
    def test_valid_ops(self):
        for op in ("hello", "register", "subscribe", "ingest", "flush"):
            assert validate_request({"op": op}) == op

    def test_missing_op(self):
        with pytest.raises(ProtocolError):
            validate_request({"id": 1})

    def test_unknown_op(self):
        with pytest.raises(ProtocolError):
            validate_request({"op": "explode"})

    def test_bad_id_type(self):
        with pytest.raises(ProtocolError):
            validate_request({"op": "hello", "id": [1]})


class TestTupleValidation:
    def test_accepts_flat_tuple(self):
        for time_column in ([0.5], f64(0.5)):
            rows, rejected = one_row(
                {"time": time_column, "id": ["a"], "x": [1.0], "ok": [True]}
            )
            assert rejected == {}
            (tup,) = rows
            assert tup["time"] == 0.5
            assert tup["id"] == "a"
            assert tup["ok"] is True

    def test_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            validate_columns([[1, 2]])
        with pytest.raises(ProtocolError, match="'x'"):
            validate_columns({"time": [0.0], "x": 1.0})

    def test_rejects_missing_time(self):
        with pytest.raises(ProtocolError, match="'time'"):
            validate_columns({"x": [1.0]})
        # a null in the time column: that row lacks a time
        assert rejected_code({"time": [None], "x": [1.0]}) == "protocol"

    def test_rejects_boolean_time(self):
        assert rejected_code({"time": [True], "x": [1.0]}) == "protocol"

    def test_rejects_nested_containers(self):
        assert rejected_code({"time": [0.0], "x": [{"nested": 1}]}) == (
            "protocol"
        )
        assert rejected_code({"time": [0.0], "x": [[1.0]]}) == "protocol"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_rejects_nonfinite_values(self, bad):
        assert rejected_code({"time": [0.0], "x": [bad]}) == "nonfinite"
        assert rejected_code({"time": [0.0], "x": f64(bad)}) == "nonfinite"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_nonfinite_time(self, bad):
        assert rejected_code({"time": [bad], "x": [1.0]}) == "nonfinite"
        assert rejected_code({"time": f64(bad), "x": [1.0]}) == "nonfinite"

    def test_wire_nan_literal_is_rejected_after_json_parse(self):
        # json.loads admits the non-standard literals; the validator is
        # the boundary that keeps them out of the engine.
        obj = decode_line(b'{"time": [0.0], "x": [NaN]}')
        assert math.isnan(obj["x"][0])  # it really did parse
        assert rejected_code(obj) == "nonfinite"


class TestColumnValidation:
    def test_rejected_rows_leave_the_batch_in_order(self):
        batch, rejected = validate_columns({
            "time": f64(0.0, 1.0, math.nan, 3.0),
            "id": ["a", "b", "c", "d"],
            "x": [1, {"n": 1}, 2, 3],
        })
        assert sorted(rejected) == [1, 2]
        assert rejected[1].code == "protocol"
        assert rejected[2].code == "nonfinite"
        assert batch.rows() == [
            {"time": 0.0, "id": "a", "x": 1},
            {"time": 3.0, "id": "d", "x": 3},
        ]

    def test_malformed_wins_over_nonfinite_in_one_row(self):
        assert rejected_code({"time": [0.0], "x": [math.nan], "y": [[1]]}) == (
            "protocol"
        )
        assert rejected_code({"time": [0.0], "y": [[1]], "x": [math.nan]}) == (
            "protocol"
        )

    def test_null_means_absent(self):
        rows, rejected = one_row({"time": [0.0], "id": [None], "x": [1.0]})
        assert rejected == {}
        assert rows == [{"time": 0.0, "x": 1.0}]

    def test_integer_time_is_accepted(self):
        rows, rejected = one_row({"time": [3], "x": [1.0]})
        assert rejected == {} and rows[0]["time"] == 3

    def test_ragged_columns_name_the_column(self):
        with pytest.raises(ProtocolError, match="ragged.*'x'"):
            validate_columns({"time": [0.0, 1.0], "x": [1.0]})
        with pytest.raises(ProtocolError, match="ragged.*'x'"):
            validate_columns({"time": f64(0.0, 1.0), "x": f64(1.0)})

    def test_bad_base64_names_the_column(self):
        with pytest.raises(ProtocolError, match="'x'.*base64"):
            validate_columns({"time": [0.0], "x": {"f64": "@@@@"}})
        with pytest.raises(ProtocolError, match="'x'"):
            validate_columns({"time": [0.0], "x": {"f64": "é"}})

    def test_packed_length_must_be_whole_float64s(self):
        payload = base64.b64encode(b"\0" * 12).decode()
        with pytest.raises(ProtocolError, match="'x'.*12 bytes"):
            validate_columns({"time": [0.0], "x": {"f64": payload}})

    def test_packed_object_has_one_field(self):
        with pytest.raises(ProtocolError, match="'x'"):
            validate_columns({"time": [0.0], "x": {"f64": "", "n": 1}})
        with pytest.raises(ProtocolError, match="'x'"):
            validate_columns({"time": [0.0], "x": {"f32": ""}})

    def test_row_form_ingest_is_refused_naming_version_2(self):
        with pytest.raises(ProtocolError, match="version 2") as info:
            validate_ingest({"op": "ingest", "tuples": [{"time": 0.0}]})
        assert info.value.code == "protocol"

    def test_rejection_fields_name_the_first_rejected_row(self):
        _, rejected = validate_columns(
            {"time": [0.0, None, math.inf], "x": [1.0, 1.0, 1.0]}
        )
        fields = rejection_fields(rejected)
        assert fields["rejected"] == 2
        assert fields["rejected_nonfinite"] == 1
        assert fields["first_rejected"]["row"] == 1
        assert fields["first_rejected"]["code"] == "protocol"
        assert rejection_fields({}) == {"rejected": 0, "rejected_nonfinite": 0}


class TestColumnPacking:
    def test_all_float_columns_pack_bit_exact(self):
        values = [0.1, -0.0, 5e-324, 2.2250738585072014e-308, 1e308, math.pi]
        wire = pack_columns({"time": values, "id": ["a"] * 6})
        assert set(wire["time"]) == {"f64"}
        assert wire["id"] == ["a"] * 6
        batch, rejected = validate_columns(decode_line(encode(wire)))
        assert rejected == {}
        assert [v.hex() for v in batch.columns["time"]] == [
            v.hex() for v in values
        ]
        assert math.copysign(1.0, batch.columns["time"][1]) == -1.0

    def test_non_float_columns_stay_lists(self):
        wire = pack_columns({
            "i": [1, 2], "b": [True, False], "m": [1.0, 2], "n": [1.0, None],
        })
        assert wire == {
            "i": [1, 2], "b": [True, False], "m": [1.0, 2], "n": [1.0, None],
        }

    def test_client_transposition_marks_absent_fields_null(self):
        batch = ColumnBatch.from_rows([{"time": 0.0, "x": 1.0}, {"time": 1.0}])
        assert batch.columns == {"time": [0.0, 1.0], "x": [1.0, None]}
        assert batch.rows() == [{"time": 0.0, "x": 1.0}, {"time": 1.0}]


# ----------------------------------------------------------------------
# the column validator against the row validator
# ----------------------------------------------------------------------
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(alphabet="abc", max_size=3),
)
_values = st.one_of(
    _scalars,
    st.floats(),  # weight floats up: all-float columns are packed
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.just("k"), st.integers(), max_size=1),
)
_rows = st.lists(
    st.dictionaries(st.sampled_from(["time", "id", "x", "y"]), _values),
    min_size=1,
    max_size=8,
)


def _canonical(row) -> dict:
    """Field -> (type, value) with floats by their bits."""
    return {
        k: (type(v).__name__, v.hex() if isinstance(v, float) else v)
        for k, v in row.items()
    }


@settings(max_examples=300, deadline=None)
@given(
    rows=_rows,
    float_times=st.lists(st.floats(), min_size=8, max_size=8),
    packed_time=st.booleans(),
)
def test_column_validation_matches_row_oracle(rows, float_times, packed_time):
    """Client packing, the JSON wire and column validation give every
    row the row oracle's verdict: accepted or not, its code, and its
    accepted tuple (``None`` fields dropped), bit for bit."""
    if packed_time:  # an all-float time column travels packed
        rows = [{**row, "time": t} for row, t in zip(rows, float_times)]
    verdicts = []
    for row in rows:
        try:
            verdicts.append(("ok", _canonical(validate_tuple(row))))
        except ProtocolError as exc:
            verdicts.append(("rejected", exc.code))
    wire = pack_columns(ColumnBatch.from_rows(rows).columns)
    columns = json.loads(json.dumps(wire))  # NaN literals included
    if "time" not in columns:
        with pytest.raises(ProtocolError, match="'time'"):
            validate_columns(columns)
        assert all(v[0] == "rejected" for v in verdicts)
        return
    batch, rejected = validate_columns(columns)
    accepted = iter(batch.rows())
    for i, verdict in enumerate(verdicts):
        if i in rejected:
            assert verdict == ("rejected", rejected[i].code), i
        else:
            assert verdict == ("ok", _canonical(next(accepted))), i
    assert next(accepted, None) is None


class TestResultSerialization:
    def test_tuple(self):
        assert serialize_tuple({"time": 1.0, "x": 2.0}) == {
            "time": 1.0,
            "x": 2.0,
        }

    def test_segment(self):
        seg = Segment(
            ("a",),
            0.0,
            1.0,
            {"x": Polynomial([2.0, 0.5])},
            constants={"id": "a"},
        )
        out = serialize_segment(seg)
        assert out == {
            "key": ["a"],
            "t_start": 0.0,
            "t_end": 1.0,
            "models": {"x": [2.0, 0.5]},
            "constants": {"id": "a"},
        }
        # and it survives the encoder
        decode_line(encode(out))

    def test_mixed_results(self):
        seg = Segment(("a",), 0.0, 1.0, {"x": Polynomial([1.0])})
        out = serialize_results([seg, {"time": 0.0, "x": 1.0}])
        assert "models" in out[0]
        assert out[1]["x"] == 1.0


class TestErrorMapping:
    def test_protocol_error_keeps_code(self):
        msg = error_response(7, ProtocolError("bad", code="nonfinite"))
        assert msg == {
            "type": "error",
            "code": "nonfinite",
            "error": "bad",
            "id": 7,
        }

    def test_pulse_error_is_plan(self):
        assert error_response(None, PulseError("x"))["code"] == "plan"

    def test_other_is_server(self):
        assert error_response(None, RuntimeError("x"))["code"] == "server"

    def test_no_id_omitted(self):
        assert "id" not in error_response(None, PulseError("x"))
