"""The durability subsystem: WAL framing, snapshots, served recovery.

The headline property is the replay contract: ``snapshot(k)`` + WAL
records ``k+1..n`` must reconverge **bit-exactly** with an engine that
never died (the engine is deterministic given arrival order — the same
property the parallel-runtime parity tests pin).  Around it, the damage
matrix: torn tails, corrupt frames, flipped bytes, and half-written
snapshots are all skipped *with accounting*, never raised and never
silent.
"""

import itertools
import os
import pickle
import random
import struct
from collections import defaultdict
from dataclasses import dataclass

import pytest

from repro.core.errors import PlanError
from repro.core.polynomial import Polynomial
from repro.core.segment import Segment
from repro.core.transform import to_continuous_plan
from repro.engine.durability import (
    Durability,
    RecoveryGap,
    SnapshotError,
    iter_snapshots,
    prune_snapshots,
    read_snapshot,
    write_snapshot,
)
from repro.engine.metrics import get_counter, reset_counters
from repro.engine.scheduler import QueryRuntime
from repro.engine.tuples import ColumnBatch, StreamTuple
from repro.engine.wal import (
    FILE_HEADER,
    FRAME_MAGIC,
    WalClosed,
    WalError,
    WalReadStats,
    WriteAheadLog,
    read_wal,
    wal_last_seq,
)
from repro.query import parse_query, plan_query
from repro.server.bridge import _STOP, EngineBridge, FitSpec


@pytest.fixture(autouse=True)
def _clean_metrics():
    reset_counters()
    yield
    reset_counters()


def seg(lo, hi, value, key=("k",)):
    return Segment(key, lo, hi, {"x": Polynomial([value])})


def planned(threshold):
    return plan_query(parse_query(f"select * from s where x > {threshold}"))


def wal_files(directory):
    return sorted(n for n in os.listdir(directory) if n.endswith(".log"))


def snap_files(directory):
    return sorted(n for n in os.listdir(directory) if n.endswith(".snap"))


# ----------------------------------------------------------------------
# WAL framing
# ----------------------------------------------------------------------
class TestWalRoundTrip:
    def test_append_read_round_trip(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync_every=1)
        records = [("s", i, {"x": float(i)}) for i in range(20)]
        seqs = [wal.append(r) for r in records]
        wal.close()
        assert seqs == list(range(1, 21))
        got = list(read_wal(tmp_path))
        assert [s for s, _ in got] == seqs
        assert [r for _, r in got] == records

    def test_file_carries_version_header(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync_every=1)
        wal.append("r")
        wal.close()
        (name,) = wal_files(tmp_path)
        with open(tmp_path / name, "rb") as fh:
            assert fh.read(len(FILE_HEADER)) == FILE_HEADER

    def test_lazy_open_no_file_until_first_append(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync_every=1)
        assert wal_files(tmp_path) == []
        wal.append("r")
        assert len(wal_files(tmp_path)) == 1
        wal.close()

    def test_strict_mode_fsyncs_every_record(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync_every=1)
        for i in range(10):
            wal.append(i)
        # Strict mode is synchronous: durable (and counted) on return.
        assert get_counter("wal.fsyncs").value == 10
        assert get_counter("wal.records").value == 10
        wal.close()

    def test_fsync_batching_counts(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync_every=4)
        for i in range(10):
            wal.append(i)
        wal.close()  # barrier: group-commit worker drained
        # Group commit may coalesce batch boundaries into one
        # fdatasync, so the fsync count is a range, not an exact
        # number; the record accounting is exact.
        assert 1 <= get_counter("wal.fsyncs").value <= 3
        assert get_counter("wal.records").value == 10
        assert len(list(read_wal(tmp_path))) == 10

    def test_fsync_zero_never_syncs_until_close(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync_every=0)
        for i in range(50):
            wal.append(i)
        assert get_counter("wal.fsyncs").value == 0
        wal.close()
        assert len(list(read_wal(tmp_path))) == 50

    def test_closed_wal_refuses_append(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append("r")
        wal.close()
        with pytest.raises(WalClosed):
            wal.append("again")

    def test_advance_seq_before_first_append(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync_every=1)
        wal.advance_seq(41)
        assert wal.append("r") == 42
        wal.close()
        assert wal_last_seq(tmp_path) == 42
        # The file is named for its true first sequence — a second
        # appender epoch never collides with the first.
        assert wal_files(tmp_path) == [f"wal-{42:016d}.log"]

    def test_advance_seq_after_append_is_an_error(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync_every=1)
        wal.append("r")
        with pytest.raises(WalError):
            wal.advance_seq(10)
        wal.close()

    def test_read_missing_directory_is_empty(self, tmp_path):
        assert list(read_wal(tmp_path / "nope")) == []
        assert wal_last_seq(tmp_path / "nope") == 0

    def test_after_seq_filters(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync_every=1)
        for i in range(10):
            wal.append(i)
        wal.close()
        got = list(read_wal(tmp_path, after_seq=7))
        assert [s for s, _ in got] == [8, 9, 10]


class TestWalDamage:
    def _write(self, tmp_path, n=10):
        wal = WriteAheadLog(tmp_path, fsync_every=1)
        for i in range(n):
            wal.append(("s", i))
        wal.close()
        (name,) = wal_files(tmp_path)
        return tmp_path / name

    def test_torn_tail_drops_only_last_frame(self, tmp_path):
        path = self._write(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-5])  # chop mid-frame, as a crash would
        stats = WalReadStats()
        got = list(read_wal(tmp_path, stats=stats))
        assert [s for s, _ in got] == list(range(1, 10))
        assert stats.torn_tails == 1
        assert stats.corrupt_frames == 0
        assert get_counter("wal.torn_tails").value == 1

    def test_flipped_byte_resyncs_past_frame(self, tmp_path):
        path = self._write(tmp_path)
        data = bytearray(path.read_bytes())
        # Flip one payload byte somewhere in the middle of the file.
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        stats = WalReadStats()
        got = list(read_wal(tmp_path, stats=stats))
        assert stats.corrupt_frames >= 1
        # Everything before and after the damaged frame survives.
        seqs = [s for s, _ in got]
        assert seqs == sorted(seqs)
        assert len(seqs) >= 8
        assert get_counter("wal.corrupt_frames").value >= 1

    def test_implausible_length_is_corrupt_not_fatal(self, tmp_path):
        path = self._write(tmp_path, n=3)
        data = bytearray(path.read_bytes())
        # Corrupt the *length* field of frame 1: find its magic and
        # overwrite length with 2**31 (CRC now also fails, but length
        # sanity trips first and the scan resyncs on the next magic).
        first = data.find(FRAME_MAGIC, len(FILE_HEADER))
        length_off = first + len(FRAME_MAGIC) + 8
        data[length_off : length_off + 4] = struct.pack("<I", 2**31)
        path.write_bytes(bytes(data))
        stats = WalReadStats()
        got = list(read_wal(tmp_path, stats=stats))
        assert stats.corrupt_frames >= 1
        assert [s for s, _ in got] == [2, 3]

    def test_unpicklable_payload_skipped(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync_every=1)
        wal.append("good-1")
        wal.close()
        (name,) = wal_files(tmp_path)
        path = tmp_path / name
        # Hand-frame a record whose payload is valid per CRC but not
        # unpicklable — decode damage, distinct from transport damage.
        from repro.engine.wal import _encode_frame

        with open(path, "ab") as fh:
            fh.write(_encode_frame(2, b"\x80\x05 not a pickle"))
            fh.write(_encode_frame(3, pickle.dumps("good-3")))
        stats = WalReadStats()
        got = list(read_wal(tmp_path, stats=stats))
        assert [(s, r) for s, r in got] == [(1, "good-1"), (3, "good-3")]
        assert stats.corrupt_frames == 1

    def test_duplicate_seqs_skipped_with_accounting(self, tmp_path):
        # Two files with overlapping ranges, as a crash between
        # snapshot and truncate leaves behind.
        w1 = WriteAheadLog(tmp_path, fsync_every=1)
        for i in range(5):
            w1.append(("a", i))
        w1.close()
        os.rename(
            tmp_path / wal_files(tmp_path)[0],
            tmp_path / "wal-0000000000000000.log",
        )
        w2 = WriteAheadLog(tmp_path, fsync_every=1, start_seq=3)
        for i in range(4):
            w2.append(("b", i))
        w2.close()
        stats = WalReadStats()
        got = list(read_wal(tmp_path, stats=stats))
        assert [s for s, _ in got] == [1, 2, 3, 4, 5, 6, 7]
        assert stats.skipped_duplicates == 2  # seqs 4,5 from file 2
        assert stats.files == 2

    def test_bad_file_header_counts_and_scans_on(self, tmp_path):
        path = self._write(tmp_path, n=4)
        data = path.read_bytes()
        path.write_bytes(b"XXXXXXXX" + data[len(FILE_HEADER) :])
        stats = WalReadStats()
        got = list(read_wal(tmp_path, stats=stats))
        assert stats.corrupt_frames >= 1
        assert [s for s, _ in got] == [1, 2, 3, 4]


class TestWalRotation:
    def test_rotate_removes_covered_files(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync_every=1)
        for i in range(6):
            wal.append(i)
        # Rotation opens the next file, so the fully-covered first file
        # (seqs 1..6 ≤ checkpoint 6) is immediately reclaimable.
        assert wal.rotate(6) == 1
        for i in range(4):
            wal.append(i)
        assert wal.rotate(10) == 1
        wal.close()
        # Every record ≤ the checkpoint is covered by the snapshot, so
        # nothing remains on disk but the fresh (empty) live file.
        assert wal_last_seq(tmp_path) == 0
        assert len(wal_files(tmp_path)) == 1

    def test_uncovered_rotation_keeps_tail_files(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync_every=1)
        for i in range(8):
            wal.append(i)
        # Checkpoint at 4: the first file carries 5..8 too, so it must
        # survive rotation; replay filters the duplicate 1..4 by seq.
        wal.rotate(4)
        for i in range(3):
            wal.append(i)
        wal.close()
        got = list(read_wal(tmp_path, after_seq=4))
        assert [s for s, _ in got] == [5, 6, 7, 8, 9, 10, 11]


# ----------------------------------------------------------------------
# snapshots
# ----------------------------------------------------------------------
def _explode():
    raise AttributeError("state of another layout was unpickled")


class _ExplodesOnUnpickle:
    def __reduce__(self):
        return (_explode, ())


class TestSnapshots:
    def test_write_read_round_trip(self, tmp_path):
        state = {"queues": [1, 2, 3], "nested": {"k": ("a", 0.5)}}
        path = write_snapshot(tmp_path, 17, state)
        seq, got = read_snapshot(path)
        assert (seq, got) == (17, state)

    def test_no_temp_file_left_behind(self, tmp_path):
        write_snapshot(tmp_path, 1, {"x": 1})
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda b: b"NOTSNAPP" + b[8:],            # bad magic
            lambda b: b[:10],                          # header cut short
            lambda b: b[:-4],                          # payload cut short
            lambda b: b[:-1] + bytes([b[-1] ^ 0xFF]),  # crc mismatch
        ],
        ids=["magic", "short-header", "short-payload", "crc"],
    )
    def test_damaged_snapshot_raises_typed(self, tmp_path, mangle):
        path = write_snapshot(tmp_path, 5, {"x": 1})
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(mangle(blob))
        with pytest.raises(SnapshotError):
            read_snapshot(path)

    def test_newest_valid_wins(self, tmp_path):
        write_snapshot(tmp_path, 5, {"epoch": "old"})
        newest = write_snapshot(tmp_path, 9, {"epoch": "new"})
        # Damage the newest: recovery must fall back, counting it.
        with open(newest, "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            last = fh.read(1)
            fh.seek(-1, os.SEEK_END)
            fh.write(bytes([last[0] ^ 0xFF]))
        seq, state, path = next(iter_snapshots(tmp_path))
        assert (seq, state["epoch"]) == (5, "old")
        assert get_counter("recovery.bad_snapshots").value == 1

    def test_other_layout_version_is_skipped_never_unpickled(
        self, tmp_path, monkeypatch
    ):
        """Operator state is pickled wholesale, so a snapshot written
        before a layout change must not be loaded: it is skipped like a
        damaged one and recovery takes the next candidate.  Version 3
        is the last layout whose operators pickled a solution store, a
        class that no longer exists."""
        from repro.engine import durability

        write_snapshot(tmp_path, 5, {"epoch": "current"})
        stale = {}
        for seq, version in ((9, 1), (11, 3)):
            monkeypatch.setattr(durability, "SNAPSHOT_VERSION", version)
            stale[version] = write_snapshot(
                tmp_path, seq, _ExplodesOnUnpickle()
            )
            monkeypatch.undo()
        assert durability.SNAPSHOT_VERSION == 4
        for version, path in stale.items():
            with pytest.raises(SnapshotError, match=f"version {version}"):
                read_snapshot(path)
        seq, state, _ = next(iter_snapshots(tmp_path))
        assert (seq, state["epoch"]) == (5, "current")
        assert get_counter("recovery.bad_snapshots").value == 2

    def test_all_bad_falls_back_to_genesis(self, tmp_path):
        path = write_snapshot(tmp_path, 5, {"x": 1})
        with open(path, "wb") as fh:
            fh.write(b"garbage")
        assert next(iter_snapshots(tmp_path), None) is None
        assert get_counter("recovery.bad_snapshots").value == 1

    def test_empty_directory_is_genesis(self, tmp_path):
        assert next(iter_snapshots(tmp_path / "nope"), None) is None

    def test_prune_keeps_newest(self, tmp_path):
        for seq in (1, 2, 3, 4, 5):
            write_snapshot(tmp_path, seq, {"seq": seq})
        removed = prune_snapshots(tmp_path, keep=2)
        assert removed == 3
        assert snap_files(tmp_path) == [
            f"snapshot-{4:016d}.snap",
            f"snapshot-{5:016d}.snap",
        ]


# ----------------------------------------------------------------------
# the coordinator
# ----------------------------------------------------------------------
class TestDurabilityCoordinator:
    def test_checkpoint_rotates_and_prunes(self, tmp_path):
        dur = Durability(tmp_path, fsync_every=1, snapshots_keep=1)
        for i in range(5):
            dur.log(("s", i))
        info1 = dur.checkpoint({"epoch": 1})
        for i in range(5):
            dur.log(("s", i))
        info2 = dur.checkpoint({"epoch": 2})
        dur.close()
        assert info1["seq"] == 5 and info2["seq"] == 10
        assert info2["wal_files_removed"] == 1
        assert info2["snapshots_removed"] == 1
        assert len(snap_files(tmp_path)) == 1

    def test_checkpoint_keeps_the_wal_of_every_retained_snapshot(
        self, tmp_path
    ):
        """The newest snapshot damaged, recovery falls back to the
        older one and still replays every record after it."""
        dur = Durability(tmp_path, fsync_every=1)
        for i in range(5):
            dur.log(("s", i))
        dur.checkpoint({"epoch": 1})
        for i in range(5, 10):
            dur.log(("s", i))
        newest = dur.checkpoint({"epoch": 2})["path"]
        dur.log(("s", 10))
        dur.wal.sync()
        with open(newest, "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            last = fh.read(1)
            fh.seek(-1, os.SEEK_END)
            fh.write(bytes([last[0] ^ 0xFF]))

        dur2 = Durability(tmp_path, fsync_every=1)
        state, report, records = next(dur2.recover())
        replayed = [r for _, r in records]
        dur.close()
        dur2.close()
        assert get_counter("recovery.bad_snapshots").value == 1
        assert (state, report.snapshot_seq) == ({"epoch": 1}, 5)
        assert replayed == [("s", i) for i in range(5, 11)]

    def test_fallback_the_wal_no_longer_reaches_is_refused(self, tmp_path):
        """With one snapshot kept, the WAL is rotated up to it; if it
        is damaged, genesis would replay from record 11 on and lose
        1..10, so recovery raises instead."""
        dur = Durability(tmp_path, fsync_every=1, snapshots_keep=1)
        for i in range(10):
            dur.log(("s", i))
        path = dur.checkpoint({"epoch": 1})["path"]
        dur.log(("s", 10))
        dur.close()
        with open(path, "wb") as fh:
            fh.write(b"garbage")

        dur2 = Durability(tmp_path, fsync_every=1)
        with pytest.raises(RecoveryGap, match=r"records 1\.\.10 "):
            next(dur2.recover())
        dur2.close()

    def test_recover_replays_tail_only(self, tmp_path):
        dur = Durability(tmp_path, fsync_every=1)
        for i in range(5):
            dur.log(("s", i))
        dur.checkpoint({"epoch": 1})
        for i in range(5, 8):
            dur.log(("s", i))
        dur.wal.sync()
        # Crash: abandon without close; recover with a fresh object.
        dur2 = Durability(tmp_path, fsync_every=1)
        state, report, records = next(dur2.recover())
        replayed = list(records)
        dur2.finish_recovery(report)
        assert state == {"epoch": 1}
        assert report.snapshot_seq == 5
        assert [r for _, r in replayed] == [("s", 5), ("s", 6), ("s", 7)]
        assert report.recovered_seq == 8
        # New appends continue the sequence, never reusing numbers.
        assert dur2.log(("s", 8)) == 9
        dur2.close()
        assert get_counter("recovery.runs").value == 1
        assert get_counter("recovery.replayed_records").value == 3


# ----------------------------------------------------------------------
# recovery: the runtime state a snapshot embeds, and crash replay
# through the served WAL
# ----------------------------------------------------------------------
def make_trace(n=40, seed=11):
    rng = random.Random(seed)
    t = 0.0
    out = []
    for i in range(n):
        t += rng.uniform(0.2, 0.8)
        out.append(seg(t, t + rng.uniform(0.2, 0.5), rng.uniform(-5, 5)))
    return out


def _filter_runtime(**kw):
    rt = QueryRuntime(batch_size=4, **kw)
    rt.register("pos", to_continuous_plan(planned(0)))
    rt.register("hi", to_continuous_plan(planned(3)))
    return rt


def _round_trip(rt, **kw):
    """A fresh runtime restored from ``rt``'s state, pickled as the
    server's snapshot pickles it."""
    reborn = QueryRuntime(batch_size=4, **kw)
    reborn.restore_state(pickle.loads(pickle.dumps(rt.checkpoint_state())))
    return reborn


def make_tuples(keys, n, seed, start, attrs, key_field, knot=3, dt=0.25):
    """``n`` raw tuples dealt round-robin over ``keys``.

    Each key's attributes run piecewise linear from ``start(i, attr)``
    (``i`` the key's index) and turn every ``knot`` of its tuples, so
    the fitter seals a segment per key about every ``knot`` tuples.
    """
    rng = random.Random(seed)
    value = {(k, a): start(i, a) for i, k in enumerate(keys) for a in attrs}
    slope = dict.fromkeys(value, 0.0)
    out = []
    for i in range(n):
        key = keys[i % len(keys)]
        rnd = i // len(keys)
        for attr in attrs:
            if rnd % knot == 0:
                slope[key, attr] = rng.uniform(-1.0, 1.0)
            value[key, attr] += slope[key, attr] * dt
        row = {"time": (rnd + 1) * dt, key_field: key}
        row.update({attr: value[key, attr] for attr in attrs})
        out.append(StreamTuple(row))
    return out


MACD_SQL = """
select symbol, S.ap - L.ap as diff from
    (select symbol, avg(price) as ap from trades [size 4 advance 1]) as S
join
    (select symbol, avg(price) as ap from trades [size 12 advance 1]) as L
on (S.symbol = L.symbol)
where S.ap > L.ap
"""

FOLLOWING_SQL = """
select id1, id2, avg(dist) as avg_dist from
    (select S1.id as id1, S2.id as id2,
            sqrt(pow(S1.x - S2.x, 2) + pow(S1.y - S2.y, 2)) as dist
     from vessels [size 2 advance 1] as S1
     join vessels as S2 [size 2 advance 1]
     on (S1.id <> S2.id)) [size 6 advance 1] as Candidates
group by id1, id2 having avg(dist) < 40
"""


@dataclass(frozen=True)
class Shape:
    """One served workload: queries over one stream, one continuous
    subscription per query, and its raw-tuple trace."""

    queries: dict
    stream: str
    fit: FitSpec
    tuples: list
    batch: int = 30


def filter_shape():
    return Shape(
        {"pos": "select * from s where x > 0",
         "hi": "select * from s where x > 3"},
        "s",
        FitSpec(attrs=("x",), key_fields=("k",)),
        make_tuples(["k"], 240, 5, lambda i, a: -1.0, ("x",), "k", knot=4),
        batch=12,
    )


def macd_shape():
    """Three symbols; about 150 segments over the trace."""
    return Shape(
        {"macd": MACD_SQL},
        "trades",
        FitSpec(attrs=("price",), key_fields=("symbol",)),
        make_tuples(
            ["sym0", "sym1", "sym2"], 540, 5,
            lambda i, a: 50.0 + 10 * i, ("price",), "symbol",
        ),
    )


def following_shape():
    """Four vessels, two pairs of them close."""
    return Shape(
        {"follow": FOLLOWING_SQL},
        "vessels",
        FitSpec(attrs=("x", "y"), key_fields=("id",)),
        make_tuples(
            ["v0", "v1", "v2", "v3"], 480, 7,
            lambda i, a: 100.0 * (i // 2) + 10.0 * (i % 2) if a == "x" else 0.0,
            ("x", "y"), "id",
        ),
        batch=40,
    )


class _Deliveries:
    """``on_outputs`` sink: each subscription's outputs, contiguous
    from the first cursor it was delivered at."""

    def __init__(self):
        self.first: dict[int, int] = {}
        self.outputs: dict[int, list] = defaultdict(list)

    def __call__(self, subscribers, info, outputs):
        for sub_id, cursor in subscribers:
            self.first.setdefault(sub_id, cursor)
            assert cursor == self.first[sub_id] + len(self.outputs[sub_id])
            self.outputs[sub_id].extend(outputs)


def canon(outputs):
    return [
        (
            o.key,
            o.t_start,
            o.t_end,
            {a: p.coeffs for a, p in sorted(o.models.items())},
            tuple(sorted(o.constants.items())),
        )
        for o in outputs
    ]


def _serve(shape, wal_dir=None, on_outputs=None, setup=True):
    """A started bridge; with ``setup``, ``shape``'s queries are
    registered and subscribed (subscription ``i + 1`` on query ``i``),
    without it they come back from ``wal_dir``."""
    bridge = EngineBridge(
        wal_dir=None if wal_dir is None else str(wal_dir),
        fsync_every=1,
        on_outputs=on_outputs,
    )
    bridge.start()
    if setup:
        for sub_id, (name, sql) in enumerate(shape.queries.items(), 1):
            bridge.register_query(name, sql, shape.fit).result()
            bridge.subscribe(sub_id, name, "continuous", 0.05).result()
    return bridge


def _feed(bridge, shape, lo, hi):
    """Ingest batches ``lo..hi-1`` of ``shape``'s trace."""
    for b in range(lo, hi):
        rows = shape.tuples[b * shape.batch : (b + 1) * shape.batch]
        bridge.ingest(None, shape.stream, ColumnBatch.from_rows(rows)).result()


def _crash(bridge):
    """Stop the engine the way a killed process stops: no final
    checkpoint, the WAL exactly as far as it was fsynced."""
    bridge._commands.put(_STOP)
    bridge._thread.join(timeout=10)
    bridge._durability.close()  # releases the file; nothing is pending


def _cursors(bridge):
    stats = bridge.stats().result()
    return {s: v["cursor"] for s, v in stats["subscriptions"].items()}


def _queries(bridge):
    return {
        name: reg.query for name, reg in bridge.runtime._queries.items()
    }


def _assert_macd_state_is_warm(queries):
    """Both windows have emitted and hold several pieces, and the join
    holds partitioned state: the snapshot carries every new container."""
    from repro.core.operators import ContinuousGroupBy, ContinuousJoin

    ops = queries["macd~c"].plan.operators()
    aggregates = [
        agg
        for op in ops if isinstance(op, ContinuousGroupBy)
        for _, agg in op.iter_group_items()
    ]
    assert sorted({agg.window for agg in aggregates}) == [4.0, 12.0]
    for agg in aggregates:
        assert len(agg._cum) > 3
        assert agg._emitted_to > agg._signal_start + agg.window
    (join,) = [op for op in ops if isinstance(op, ContinuousJoin)]
    assert all(buf._partitions and len(buf) for buf in join._buffers)


class TestRuntimeRecovery:
    """The runtime state a snapshot embeds round-trips; and a served
    engine killed mid-trace and restarted on its WAL directory emits,
    from the crash on, exactly what an engine that never died emits."""

    def _crash_replay(
        self, tmp_path, shape, checkpoint_at=8, crash_at=14,
        at_checkpoint=None,
    ):
        """Checkpoint after batch ``checkpoint_at``, crash after batch
        ``crash_at``, restart, feed the rest and flush; returns each
        subscription's post-crash outputs."""
        batches = -(-len(shape.tuples) // shape.batch)
        subs = range(1, len(shape.queries) + 1)

        # Reference: never dies.
        ref_out = _Deliveries()
        ref = _serve(shape, on_outputs=ref_out)
        _feed(ref, shape, 0, crash_at)
        at_crash = {s: len(ref_out.outputs[s]) for s in subs}
        _feed(ref, shape, crash_at, batches)
        ref.flush().result()
        ref.stop()

        victim = _serve(shape, tmp_path)
        _feed(victim, shape, 0, checkpoint_at)
        if at_checkpoint is not None:
            victim.submit(lambda: at_checkpoint(_queries(victim))).result()
        victim.checkpoint().result()
        _feed(victim, shape, checkpoint_at, crash_at)
        _crash(victim)

        got = _Deliveries()
        reborn = _serve(shape, tmp_path, on_outputs=got, setup=False)
        report = reborn.recovery_report
        # WAL records: one register and one subscribe per query, then
        # one per ingest batch.
        setup = 2 * len(shape.queries)
        assert report["snapshot_seq"] == setup + checkpoint_at
        assert report["replayed"] == crash_at - checkpoint_at
        assert report["recovered_seq"] == setup + crash_at
        assert reborn.ingest_tuples == crash_at * shape.batch
        assert got.outputs == {}  # replayed outputs are not re-delivered
        stats = reborn.stats().result()
        assert {
            int(s): v["cursor"] for s, v in stats["subscriptions"].items()
        } == at_crash
        _feed(reborn, shape, crash_at, batches)
        reborn.flush().result()
        reborn.stop()

        for s in subs:
            assert canon(got.outputs[s]) == canon(
                ref_out.outputs[s][at_crash[s]:]
            )
            assert got.first[s] == at_crash[s]
        assert dict(reborn.runtime.stats()) == dict(ref.runtime.stats())
        return got.outputs

    def test_queued_arrivals_survive_checkpoint(self):
        # Checkpoint with items still queued: the state carries the
        # queues, and the restored runtime processes them.
        victim = _filter_runtime()
        for item in make_trace(n=6):
            victim.enqueue("s", item)
        reborn = _round_trip(victim)
        assert reborn.total_pending == 12  # six arrivals, two queries
        reborn.run_until_idle()
        stats = dict(reborn.stats())
        assert stats["pos"] == 6 and stats["hi"] == 6

    def test_breaker_state_round_trips_through_snapshot(self):
        from repro.engine.resilience import BreakerConfig, BreakerState

        config = BreakerConfig(failure_threshold=2, backoff=4)
        victim = _filter_runtime(breaker=config)
        victim.breaker.record_failure("pos", ("k",))
        victim.breaker.record_failure("pos", ("k",))
        assert victim.breaker.state("pos", ("k",)) is BreakerState.OPEN

        reborn = _round_trip(victim, breaker=config)
        assert reborn.breaker.state("pos", ("k",)) is BreakerState.OPEN

    def test_restore_rejects_unknown_snapshot_version(self):
        rt = _filter_runtime()
        state = rt.checkpoint_state()
        state["version"] = 99
        with pytest.raises(PlanError):
            rt.restore_state(state)

    def test_restore_reads_a_state_carrying_retired_keys(self):
        """A state written before the runtime lost its own WAL and its
        copy of the solve bound carries ``counters["ingest_seq"]`` and a
        per-registration ``solve_bound``: the same version, restored
        with both keys ignored."""
        victim = _filter_runtime()
        trace = make_trace(n=8)
        for item in trace[:4]:
            victim.enqueue("s", item)
        victim.run_until_idle()
        state = victim.checkpoint_state()
        state["counters"]["ingest_seq"] = 4
        for entry in state["registrations"]:
            entry["solve_bound"] = 0.05

        reborn = QueryRuntime(batch_size=4)
        reborn.restore_state(pickle.loads(pickle.dumps(state)))
        for rt in (victim, reborn):
            for item in trace[4:]:
                rt.enqueue("s", item)
            rt.run_until_idle()
        for name in victim.query_names:
            assert [
                (o.t_start, o.t_end) for o in reborn.outputs(name)
            ] == [(o.t_start, o.t_end) for o in victim.outputs(name)]
        assert dict(reborn.stats()) == dict(victim.stats())

    def test_segment_ids_never_collide_after_restore(self, monkeypatch):
        from repro.core import segment

        victim = _filter_runtime()
        for item in make_trace(n=5):
            victim.enqueue("s", item)
        victim.run_until_idle()
        state = victim.checkpoint_state()
        restored_ids = {out.seg_id for out in victim.outputs("pos")}

        # A new process numbers segments from 1 until a restore.
        monkeypatch.setattr(segment, "_segment_ids", itertools.count(1))
        QueryRuntime().restore_state(state)
        fresh = seg(100.0, 101.0, 1.0)
        assert fresh.seg_id > max(restored_ids)

    def test_checkpoint_without_durability_raises(self):
        bridge = EngineBridge()
        bridge.start()
        try:
            with pytest.raises(PlanError):
                bridge.checkpoint().result()
        finally:
            bridge.stop()

    def test_crash_replay_is_bit_exact(self, tmp_path):
        outputs = self._crash_replay(tmp_path, filter_shape())
        assert outputs[1] and outputs[2]

    def test_crash_replay_of_warm_window_and_join_state_is_bit_exact(
        self, tmp_path
    ):
        """The MACD shape: the checkpoint lands while both sliding
        windows are full and the join's partitions are populated, so
        the ordered containers (and the indexes rebuilt on load) carry
        the reborn engine through the rest of the trace."""
        outputs = self._crash_replay(
            tmp_path, macd_shape(), checkpoint_at=10, crash_at=14,
            at_checkpoint=_assert_macd_state_is_warm,
        )
        assert len(outputs[1]) > 10

    def test_crash_replay_of_a_rewritten_self_join_is_bit_exact(
        self, tmp_path
    ):
        """The "following" shape runs as one buffer, group states shared
        by mirror groups and a mirror output stage: the checkpoint lands
        with all of them populated, and the reborn engine emits the
        never-died reference's rows, twins included."""
        from repro.core.operators import ContinuousGroupBy, SymmetricSelfJoin

        def warm(queries):
            ops = queries["follow~c"].plan.operators()
            (join,) = [op for op in ops if isinstance(op, SymmetricSelfJoin)]
            (groups,) = [op for op in ops if isinstance(op, ContinuousGroupBy)]
            assert join.state_size > 4
            # Four vessels: six unordered pairs, one state each.
            assert groups.group_count == 6

        outputs = self._crash_replay(
            tmp_path, following_shape(), checkpoint_at=6, crash_at=9,
            at_checkpoint=warm,
        )
        keys = {r.key for r in outputs[1]}
        assert {("v0", "v1"), ("v2", "v3")} <= keys
        assert {key[::-1] for key in keys} == keys

    def test_snapshot_of_another_layout_is_passed_over_on_restore(
        self, tmp_path, monkeypatch
    ):
        """A newer snapshot file of version 1 sits beside the current
        one: restore counts it, takes the older valid one and replays
        the WAL tail — no exception from foreign state mid-replay."""
        from repro.engine import durability

        shape = filter_shape()
        victim = _serve(shape, tmp_path)
        _feed(victim, shape, 0, 4)
        victim.checkpoint().result()  # at seq 8
        _feed(victim, shape, 4, 10)
        _crash(victim)
        monkeypatch.setattr(durability, "SNAPSHOT_VERSION", 1)
        write_snapshot(tmp_path, 11, _ExplodesOnUnpickle())
        monkeypatch.undo()

        reborn = _serve(shape, tmp_path, setup=False)
        report = reborn.recovery_report
        reborn.stop()
        assert get_counter("recovery.bad_snapshots").value == 1
        assert (report["snapshot_seq"], report["replayed"]) == (8, 6)
        assert report["recovered_seq"] == 14

    def test_snapshot_embedding_a_newer_runtime_is_passed_over(
        self, tmp_path
    ):
        """The newer of two real checkpoints (the second one rotated
        the WAL) embeds a runtime state of another version, as a newer
        build would write it: restore counts it as bad before touching
        any state, starts from the older snapshot and replays the whole
        tail after it, the records the newer checkpoint covered too."""
        shape = filter_shape()
        ref = _serve(shape)
        _feed(ref, shape, 0, 10)
        ref_cursors = _cursors(ref)
        ref.stop()

        victim = _serve(shape, tmp_path)
        _feed(victim, shape, 0, 4)
        victim.checkpoint().result()  # at seq 8
        _feed(victim, shape, 4, 7)
        victim.checkpoint().result()  # at seq 11
        _feed(victim, shape, 7, 10)
        _crash(victim)
        seq, state, _ = next(iter_snapshots(tmp_path))
        assert seq == 11
        state["runtime"]["version"] = 2
        write_snapshot(tmp_path, 11, state)

        reborn = _serve(shape, tmp_path, setup=False)
        report = reborn.recovery_report
        cursors = _cursors(reborn)
        reborn.stop()
        assert get_counter("recovery.bad_snapshots").value == 1
        assert (report["snapshot_seq"], report["replayed"]) == (8, 6)
        assert report["recovered_seq"] == 14
        assert cursors == ref_cursors

    def test_restore_past_the_retained_wal_is_refused(self, tmp_path):
        """Three checkpoints keep the two newest snapshots and the WAL
        back to the older of them.  With both unusable, only genesis is
        left, and the WAL no longer starts at record 1: start() raises
        instead of recovering with records missing, and the failed
        engine is not checkpointed on stop."""
        shape = filter_shape()
        victim = _serve(shape, tmp_path)
        for lo, hi in ((0, 2), (2, 4), (4, 6)):
            _feed(victim, shape, lo, hi)
            victim.checkpoint().result()  # at seq 6, 8, 10
        _feed(victim, shape, 6, 8)
        _crash(victim)
        assert snap_files(tmp_path) == [
            f"snapshot-{8:016d}.snap",
            f"snapshot-{10:016d}.snap",
        ]
        for seq in (8, 10):
            _, state = read_snapshot(tmp_path / f"snapshot-{seq:016d}.snap")
            state["runtime"]["version"] = 2
            write_snapshot(tmp_path, seq, state)
        before = sorted(os.listdir(tmp_path))

        reborn = EngineBridge(wal_dir=str(tmp_path), fsync_every=1)
        with pytest.raises(RecoveryGap, match=r"records 1\.\.8 "):
            reborn.start()
        reborn.stop()
        assert sorted(os.listdir(tmp_path)) == before

    def test_row_form_wal_of_protocol_v1_recovers_bit_exact(self, tmp_path):
        """A WAL written before ingest went columnar logs each ingest
        batch as a list of row tuples.  Restarted on such a directory
        (snapshot plus row-form tail), the engine migrates each record
        on replay, and its remaining outputs equal both a never-died
        engine's and a column-form WAL's recovery, bit for bit."""
        shape = macd_shape()
        checkpoint_at, crash_at = 6, 12
        batches = -(-len(shape.tuples) // shape.batch)
        subs = range(1, len(shape.queries) + 1)

        ref_out = _Deliveries()
        ref = _serve(shape, on_outputs=ref_out)
        _feed(ref, shape, 0, crash_at)
        at_crash = {s: len(ref_out.outputs[s]) for s in subs}
        _feed(ref, shape, crash_at, batches)
        ref.flush().result()
        ref.stop()

        columns_dir = tmp_path / "columns"
        victim = _serve(shape, columns_dir)
        _feed(victim, shape, 0, checkpoint_at)
        victim.checkpoint().result()
        _feed(victim, shape, checkpoint_at, crash_at)
        _crash(victim)

        # The same directory as a version-1 server left it: the snapshot
        # (its layout did not change) and the log, ingest rows in rows.
        rows_dir = tmp_path / "rows"
        rows_dir.mkdir()
        for name in snap_files(columns_dir):
            (rows_dir / name).write_bytes((columns_dir / name).read_bytes())
        records = list(read_wal(columns_dir))
        wal = WriteAheadLog(rows_dir, fsync_every=1,
                            start_seq=records[0][0] - 1)
        row_form = 0
        for _, record in records:
            if record[0] == "ingest":
                kind, stream, columns, policy = record
                rows = ColumnBatch(columns).rows()
                assert all(type(r) is StreamTuple for r in rows)
                record = (kind, stream, rows, policy)
                row_form += 1
            wal.append(record)
        wal.close()
        assert row_form == crash_at - checkpoint_at

        for wal_dir in (columns_dir, rows_dir):
            got = _Deliveries()
            reborn = _serve(shape, wal_dir, on_outputs=got, setup=False)
            assert reborn.recovery_report["replayed"] == row_form
            assert reborn.ingest_tuples == crash_at * shape.batch
            _feed(reborn, shape, crash_at, batches)
            reborn.flush().result()
            reborn.stop()
            for s in subs:
                assert canon(got.outputs[s]) == canon(
                    ref_out.outputs[s][at_crash[s]:]
                )
                assert got.first[s] == at_crash[s]

    def test_restore_from_genesis_replays_everything(self, tmp_path):
        shape = filter_shape()
        victim = _serve(shape, tmp_path)
        _feed(victim, shape, 0, 5)
        _crash(victim)

        got = _Deliveries()
        reborn = _serve(shape, tmp_path, on_outputs=got, setup=False)
        report = reborn.recovery_report
        stats = reborn.stats().result()
        reborn.stop()
        assert report["snapshot_seq"] == 0
        assert report["replayed"] == 4 + 5
        assert reborn.ingest_tuples == 5 * shape.batch
        assert stats["subscriptions"]["1"]["cursor"] > 0
        # Replay outputs are not delivered: delivered-or-lost at crash.
        assert got.outputs == {}

    def test_torn_tail_recovery_never_crashes(self, tmp_path):
        shape = filter_shape()
        victim = _serve(shape, tmp_path)
        _feed(victim, shape, 0, 8)
        _crash(victim)
        (name,) = wal_files(tmp_path)
        path = tmp_path / name
        path.write_bytes(path.read_bytes()[:-7])

        reborn = _serve(shape, tmp_path, setup=False)
        report = reborn.recovery_report
        reborn.stop()
        assert report["wal"]["torn_tails"] == 1
        # The torn batch is lost, and counted.
        assert report["replayed"] == report["recovered_seq"] == 4 + 7
        assert reborn.ingest_tuples == 7 * shape.batch
