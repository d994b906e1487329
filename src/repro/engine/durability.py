"""Atomic snapshots + WAL coordination: the engine's durability story.

A checkpoint is one file written atomically (write temp → flush →
fsync → rename) carrying a versioned, CRC-guarded pickle of the
engine's *incrementally-maintained* state: fitted segments sitting in
operator buffers, scheduler queues, circuit-breaker health, and the
segment-id watermark.  Derived values (segment signatures) are
deliberately *not* checkpointed — they repopulate during replay,
and persisting them would only widen the surface a corrupt file can
poison.

Recovery is "newest valid snapshot wins": snapshot files are tried
newest-first and a damaged one (bad magic, CRC mismatch, unpicklable
body, or an embedded state layout the caller does not support) is
*skipped with accounting*, falling back to the next older —
a half-written snapshot must never brick recovery when an older good
one plus a longer WAL replay reaches the same state.  A checkpoint
therefore rotates the WAL only up to the *oldest* snapshot it keeps, so
every retained snapshot has its whole tail on disk; a snapshot the WAL
no longer reaches back to is refused with :class:`RecoveryGap` rather
than replayed with records silently missing.

The replay contract is the paper-level determinism property the
parity tests pin: the engine's output is a pure function of arrival
order, so ``snapshot(seq=k)`` + WAL records ``k+1..n`` reconverges
bit-exactly with a process that never died.
"""

from __future__ import annotations

import os
import pickle
import struct
import time
import zlib
from dataclasses import dataclass, field

from .metrics import get_counter, get_histogram
from .tracing import current_tracer
from .wal import (
    WalCorruption,
    WalError,
    WalReadStats,
    WriteAheadLog,
    read_wal,
    wal_first_seq,
)

SNAPSHOT_MAGIC = b"PSNAPV01"
#: Bumped whenever the pickled operator state changes layout: a file of
#: another version is skipped like a damaged one, never unpickled.
#: 2: ordered ``SegmentBuffer`` with partitions; sum/avg piece index.
#: 3: a swap-invariant self-join pickles one buffer shared by both join
#: sides, group-bys keep one state per mirror pair of groups (and carry
#: a ``mirror``), and the plan has a mirror output stage.
#: 4: selective operators and min/max aggregates lose their solution
#: store, a class of :mod:`repro.core.delta` that no longer exists.
SNAPSHOT_VERSION = 4

_SNAP_HEADER = struct.Struct("<IQQI")  # version, seq, payload len, crc32


class SnapshotError(WalError):
    """A snapshot file failed validation (callers fall back to older)."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(message)
        self.path = path


class RecoveryGap(WalError):
    """The WAL no longer reaches back to the snapshot recovery would
    start from: the records between them were rotated away."""


def _snapshot_name(seq: int) -> str:
    return f"snapshot-{seq:016d}.snap"


def _is_snapshot_name(name: str) -> bool:
    return (
        name.startswith("snapshot-")
        and name.endswith(".snap")
        and name[9:-5].isdigit()
    )


def _snapshot_seqs(directory: str) -> list[int]:
    """Sequence numbers of the snapshot files in ``directory``, newest
    first."""
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    return sorted(
        (int(n[9:-5]) for n in names if _is_snapshot_name(n)), reverse=True
    )


def write_snapshot(directory: str | os.PathLike, seq: int, state: object) -> str:
    """Atomically persist ``state`` as the checkpoint at sequence ``seq``.

    Write-temp + fsync + rename: a crash at any instant leaves either
    the complete new file or no new file — never a half-snapshot under
    the final name.  Returns the snapshot path.
    """
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    blob = (
        SNAPSHOT_MAGIC
        + _SNAP_HEADER.pack(SNAPSHOT_VERSION, seq, len(payload), crc)
        + payload
    )
    final = os.path.join(directory, _snapshot_name(seq))
    tmp = final + ".tmp"
    start = time.perf_counter()
    with open(tmp, "wb") as fh:
        fh.write(blob)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, final)
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
    get_histogram("checkpoint.write_seconds").observe(
        time.perf_counter() - start
    )
    get_counter("checkpoint.snapshots").bump()
    get_counter("checkpoint.bytes").bump(len(blob))
    return final


def read_snapshot(path: str | os.PathLike) -> tuple[int, object]:
    """Load and validate one snapshot file → ``(seq, state)``.

    Raises :class:`SnapshotError` on any damage; callers iterate
    newest-first and fall back.
    """
    path = os.fspath(path)
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(SNAPSHOT_MAGIC)] != SNAPSHOT_MAGIC:
        raise SnapshotError("bad snapshot magic", path=path)
    off = len(SNAPSHOT_MAGIC)
    if len(blob) < off + _SNAP_HEADER.size:
        raise SnapshotError("snapshot header cut short", path=path)
    version, seq, length, crc = _SNAP_HEADER.unpack(
        blob[off : off + _SNAP_HEADER.size]
    )
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"unsupported snapshot version {version}", path=path
        )
    payload = blob[off + _SNAP_HEADER.size :]
    if len(payload) != length:
        raise SnapshotError("snapshot payload cut short", path=path)
    if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
        raise SnapshotError("snapshot crc mismatch", path=path)
    try:
        state = pickle.loads(payload)
    except Exception as exc:
        raise SnapshotError(
            f"snapshot decode failed: {exc}", path=path
        ) from exc
    return seq, state


def iter_snapshots(directory: str | os.PathLike):
    """Valid snapshots newest-first, as ``(seq, state, path)``.

    Damaged snapshots are skipped with ``recovery.bad_snapshots``
    counted as the iteration passes them.
    """
    directory = os.fspath(directory)
    for seq in _snapshot_seqs(directory):
        path = os.path.join(directory, _snapshot_name(seq))
        try:
            seq, state = read_snapshot(path)
        except SnapshotError:
            get_counter("recovery.bad_snapshots").bump()
            continue
        yield seq, state, path


def prune_snapshots(directory: str | os.PathLike, keep: int = 2) -> int:
    """Delete all but the ``keep`` newest snapshot files."""
    directory = os.fspath(directory)
    removed = 0
    for seq in _snapshot_seqs(directory)[max(1, keep) :]:
        os.remove(os.path.join(directory, _snapshot_name(seq)))
        removed += 1
    return removed


@dataclass
class RecoveryReport:
    """What one recovery pass found and replayed — surfaced, not logged."""

    snapshot_seq: int = 0
    snapshot_path: str | None = None
    replayed: int = 0
    #: Highest sequence number durably recovered (snapshot or replay);
    #: clients resume ingest from here (records past it were lost with
    #: the un-fsynced tail — the at-least-once contract).
    recovered_seq: int = 0
    wal_stats: WalReadStats = field(default_factory=WalReadStats)
    duration_s: float = 0.0

    def as_dict(self) -> dict:
        return {
            "snapshot_seq": self.snapshot_seq,
            "snapshot_path": self.snapshot_path,
            "replayed": self.replayed,
            "recovered_seq": self.recovered_seq,
            "duration_s": self.duration_s,
            "wal": self.wal_stats.as_dict(),
        }


class Durability:
    """One engine's WAL + snapshot directory, with checkpoint/recover.

    Layout under ``directory``::

        wal-<firstseq>.log        append-only ingest frames
        snapshot-<seq>.snap       atomic checkpoints

    The coordinator is deliberately engine-agnostic: callers hand it
    opaque records to log and an opaque state object to snapshot, and
    drive replay themselves from :meth:`recover`'s record iterator.
    Its one caller, the network bridge, logs commands at the raw-tuple
    boundary, so replay rebuilds the fitting builders too.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        fsync_every: int = 32,
        snapshots_keep: int = 2,
        start_seq: int = 0,
    ):
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.snapshots_keep = snapshots_keep
        self.wal = WriteAheadLog(
            self.directory, fsync_every=fsync_every, start_seq=start_seq
        )

    # ------------------------------------------------------------------
    @property
    def last_seq(self) -> int:
        return self.wal.last_seq

    def log(self, record: object) -> int:
        """WAL one ingest record; returns its sequence number."""
        return self.wal.append(record)

    def checkpoint(self, state: object) -> dict:
        """Atomic snapshot at the WAL's last sequence number.

        Fsyncs the WAL first (the snapshot must never be *ahead* of the
        durable log), writes the snapshot, prunes old snapshots, and
        rotates the WAL up to the oldest snapshot left, so recovery can
        fall back to any retained snapshot with its whole tail.  Returns
        checkpoint info (path, seq, duration, size, files pruned).
        """
        tracer = current_tracer()
        span = (
            tracer.start_detached("checkpoint", "checkpoint")
            if tracer
            else None
        )
        start = time.perf_counter()
        seq = self.wal.last_seq
        self.wal.sync()
        path = write_snapshot(self.directory, seq, state)
        snaps_removed = prune_snapshots(
            self.directory, keep=self.snapshots_keep
        )
        wal_removed = self.wal.rotate(_snapshot_seqs(self.directory)[-1])
        info = {
            "path": path,
            "seq": seq,
            "bytes": os.path.getsize(path),
            "duration_s": time.perf_counter() - start,
            "wal_files_removed": wal_removed,
            "snapshots_removed": snaps_removed,
        }
        if tracer and span is not None:
            tracer.finish_detached(
                span, seq=seq, bytes=info["bytes"]
            )
        return info

    def recover(self):
        """Yield recovery plans ``(state, report, records)``: one per
        valid snapshot, newest first, then genesis (``state`` ``None``).

        ``state`` is the snapshot's payload, ``records`` an iterator of
        ``(seq, record)`` WAL frames strictly after it.  The caller
        applies the first plan whose state it can load (one whose
        embedded layout it does not know is passed over like a damaged
        file), replays the records, then calls :meth:`finish_recovery`
        with that plan's report so counters and the WAL append position
        line up.

        Raises :class:`RecoveryGap` instead of yielding a plan whose
        tail the WAL no longer holds from its first record.
        """
        first = wal_first_seq(self.directory)
        for seq, state, path in iter_snapshots(self.directory):
            self._check_reaches(seq, first, path)
            yield (state, *self._replay_plan(seq, path))
        self._check_reaches(0, first, None)
        yield (None, *self._replay_plan(0, None))

    @staticmethod
    def _check_reaches(
        snapshot_seq: int, first: int | None, path: str | None
    ) -> None:
        if first is not None and first > snapshot_seq + 1:
            start = path or "genesis"
            raise RecoveryGap(
                f"cannot recover from {start}: WAL records "
                f"{snapshot_seq + 1}..{first - 1} were rotated away"
            )

    def _replay_plan(self, snapshot_seq: int, snapshot_path: str | None):
        report = RecoveryReport(
            snapshot_seq=snapshot_seq,
            snapshot_path=snapshot_path,
            recovered_seq=snapshot_seq,
        )

        def records():
            for seq, record in read_wal(
                self.directory,
                after_seq=report.snapshot_seq,
                stats=report.wal_stats,
            ):
                report.replayed += 1
                report.recovered_seq = seq
                yield seq, record

        return report, records()

    def finish_recovery(self, report: RecoveryReport) -> None:
        """Align the appender past everything replayed and count it."""
        if report.recovered_seq > self.wal.last_seq:
            # New records must never reuse a replayed sequence number.
            self.wal.advance_seq(report.recovered_seq)
        get_counter("recovery.runs").bump()
        get_counter("recovery.replayed_records").bump(report.replayed)
        get_counter("recovery.corrupt_frames").bump(
            report.wal_stats.corrupt_frames
        )
        get_counter("recovery.torn_tails").bump(report.wal_stats.torn_tails)

    def close(self) -> None:
        self.wal.close()
