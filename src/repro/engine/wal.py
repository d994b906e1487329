"""CRC-framed append-only write-ahead log for ingest durability.

The WAL records every ingested item *before* it reaches operator state,
so a crashed process can replay the tail past its last checkpoint and
reconverge bit-exactly (the engine is deterministic given the same
arrival order — the same property the run-parity tests pin).

Frame layout (all integers little-endian)::

    MAGIC(4) | seq(8) | length(4) | crc32(4) | payload(length)

``crc32`` covers ``seq | length | payload``, so a corrupt length field
fails the checksum instead of silently mis-framing the reader.  Each
log file starts with an 8-byte header ``PWALV001`` carrying the format
version.  Readers never raise on damage: torn tails (a frame cut short
by the crash itself) and corrupt frames (CRC or unpickling failure) are
skipped with typed :class:`WalError` accounting and the
``wal.corrupt_frames`` / ``wal.torn_tails`` counters bumped — recovery
must survive exactly the failure it exists for.

Durability knob: ``fsync_every=N`` fsyncs once per N appended records
(1 = every record, 0 = never, leaving flush timing to the OS).
``fsync_every=1`` is strict: the fsync happens on the appending thread
before ``append`` returns.  ``N > 1`` is **group commit**: batch
boundaries hand the fdatasync to a dedicated sync thread so the ingest
hot path never blocks on the disk; a lagging worker coalesces pending
batches into one fdatasync covering everything flushed before it.
Either way, records since the last *completed* fsync are at-least-once
on crash: the snapshot sequence number filters duplicates at replay,
and an unfsynced tail may be lost — the client-visible contract is
"resume from the recovered sequence".  :meth:`sync` is the durability
barrier (checkpoint/close call it): it returns only once everything
appended so far is physically on disk.
"""

from __future__ import annotations

import io
import os
import pickle
import struct
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Iterator

from ..core.errors import PulseError
from .metrics import get_counter, get_histogram

FRAME_MAGIC = b"PWF1"
FILE_HEADER = b"PWALV001"
WAL_VERSION = 1

_HEADER_STRUCT = struct.Struct("<QI")  # seq, payload length
_CRC_STRUCT = struct.Struct("<I")
_FRAME_OVERHEAD = len(FRAME_MAGIC) + _HEADER_STRUCT.size + _CRC_STRUCT.size

#: Refuse to trust absurd frame lengths when scanning damaged logs; a
#: corrupted length field could otherwise swallow the rest of the file.
MAX_FRAME_PAYLOAD = 64 * 1024 * 1024


class WalError(PulseError):
    """Base for write-ahead-log failures."""


class WalCorruption(WalError):
    """A frame failed its CRC or payload decode.

    Raised only by strict readers; recovery-path readers *count* these
    (``wal.corrupt_frames``) and resynchronize on the next frame magic.
    """

    def __init__(self, message: str, path: str = "", offset: int = -1):
        super().__init__(message)
        self.path = path
        self.offset = offset


class WalTornTail(WalCorruption):
    """The final frame was cut short mid-write (the expected crash scar)."""


class WalClosed(WalError):
    """Append attempted on a closed log."""


@dataclass
class WalReadStats:
    """Damage accounting for one recovery scan — never silent."""

    records: int = 0
    corrupt_frames: int = 0
    torn_tails: int = 0
    skipped_duplicates: int = 0
    files: int = 0
    errors: list[WalError] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "records": self.records,
            "corrupt_frames": self.corrupt_frames,
            "torn_tails": self.torn_tails,
            "skipped_duplicates": self.skipped_duplicates,
            "files": self.files,
        }


_fdatasync = getattr(os, "fdatasync", os.fsync)


def _encode_frame(seq: int, payload: bytes) -> bytes:
    header = _HEADER_STRUCT.pack(seq, len(payload))
    crc = zlib.crc32(header + payload) & 0xFFFFFFFF
    return FRAME_MAGIC + header + _CRC_STRUCT.pack(crc) + payload


def _segment_name(first_seq: int) -> str:
    return f"wal-{first_seq:016d}.log"


def _is_segment_name(name: str) -> bool:
    return (
        name.startswith("wal-")
        and name.endswith(".log")
        and name[4:-4].isdigit()
    )


def _segment_starts(directory: str) -> list[int]:
    """First sequence numbers of the log files on disk, ascending."""
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    return sorted(int(n[4:-4]) for n in names if _is_segment_name(n))


class WriteAheadLog:
    """Appender over a directory of sequenced log files.

    One file per checkpoint epoch: :meth:`rotate` starts a fresh file
    and deletes files whose every record is covered by the checkpoint,
    which makes truncation an optimization — replay filters by sequence
    number regardless, so a crash between snapshot and truncate only
    costs duplicate (skipped) frames, never correctness.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        fsync_every: int = 32,
        start_seq: int = 0,
    ):
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.fsync_every = max(0, int(fsync_every))
        self._seq = int(start_seq)
        self._since_sync = 0
        self._file = None
        self._closed = False
        self._records = get_counter("wal.records")
        self._bytes = get_counter("wal.bytes")
        self._fsyncs = get_counter("wal.fsyncs")
        self._fsync_hist = get_histogram("wal.fsync_seconds")
        # Appends are the ingest hot path: reuse one pickler (memo
        # cleared per record) and batch the counter flushes to sync
        # points, so a record costs one serialize + one buffered write.
        self._pickle_buf = io.BytesIO()
        self._pickler = pickle.Pickler(
            self._pickle_buf, protocol=pickle.HIGHEST_PROTOCOL
        )
        self._pending_records = 0
        self._pending_bytes = 0
        # Group-commit state (fsync_every > 1): the appending thread
        # flushes at batch boundaries and signals; the worker owns the
        # physical fdatasync.  ``_flushed_seq``/``_synced_seq`` track
        # what has reached the OS vs. the platter; :meth:`sync` is the
        # barrier that waits for them to meet.
        self._sync_cv = threading.Condition()
        self._sync_requested = False
        self._sync_stopping = False
        self._sync_thread: threading.Thread | None = None
        self._sync_exc: BaseException | None = None
        self._flushed_seq = self._seq
        self._synced_seq = self._seq

    # ------------------------------------------------------------------
    @property
    def last_seq(self) -> int:
        """Sequence number of the most recently appended record."""
        return self._seq

    @property
    def closed(self) -> bool:
        return self._closed

    def _open_segment(self, first_seq: int) -> None:
        path = os.path.join(self.directory, _segment_name(first_seq))
        self._file = open(path, "ab")
        if self._file.tell() == 0:
            self._file.write(FILE_HEADER)
            self._file.flush()
        self._path = path

    def append(self, record: object) -> int:
        """Durably frame one record; returns its sequence number.

        The record is pickled, CRC-framed, and written before this
        returns; whether it is *fsynced* depends on the batching knob.
        """
        if self._closed:
            raise WalClosed("append on closed WAL")
        if self._file is None:
            # Lazy open: recovery rewinds ``start_seq`` before the first
            # append, so the file name never collides with an epoch a
            # previous process already wrote.
            self._open_segment(self._seq + 1)
        self._seq += 1
        buf = self._pickle_buf
        buf.seek(0)
        buf.truncate()
        self._pickler.clear_memo()
        self._pickler.dump(record)
        frame = _encode_frame(self._seq, buf.getvalue())
        self._file.write(frame)
        self._pending_records += 1
        self._pending_bytes += len(frame)
        self._since_sync += 1
        if self.fsync_every and self._since_sync >= self.fsync_every:
            if self.fsync_every == 1:
                self.sync()  # strict: durable before append returns
            else:
                self._request_group_sync()
        return self._seq

    def advance_seq(self, seq: int) -> None:
        """Move the next-sequence position past a recovered tail.

        Only legal before the first append of this appender's life —
        renumbering mid-file would corrupt the monotonic-seq contract.
        """
        if self._file is not None:
            raise WalError("advance_seq after first append")
        self._seq = max(self._seq, int(seq))

    def _flush_accounting(self) -> None:
        self._records.bump(self._pending_records)
        self._bytes.bump(self._pending_bytes)
        self._pending_records = 0
        self._pending_bytes = 0
        self._since_sync = 0

    def _fdatasync_timed(self, fileno: int) -> None:
        start = time.perf_counter()
        # fdatasync skips the mtime journal flush; an appended log's
        # size metadata still hits the disk, which is all replay needs.
        _fdatasync(fileno)
        self._fsync_hist.observe(time.perf_counter() - start)
        self._fsyncs.bump()

    def _request_group_sync(self) -> None:
        """Batch boundary: flush to the OS, wake the sync worker.

        Never blocks on the disk.  A worker already busy coalesces: its
        *next* fdatasync covers everything flushed before it starts, so
        the un-durable window is bounded by one in-flight fdatasync,
        not by queue growth.
        """
        self._file.flush()
        with self._sync_cv:
            self._flush_accounting()
            self._flushed_seq = self._seq
            self._sync_requested = True
            if self._sync_thread is None:
                self._sync_thread = threading.Thread(
                    target=self._sync_worker,
                    name="pulse-wal-sync",
                    daemon=True,
                )
                self._sync_thread.start()
            self._sync_cv.notify_all()

    def _sync_worker(self) -> None:
        while True:
            with self._sync_cv:
                while not self._sync_requested and not self._sync_stopping:
                    self._sync_cv.wait()
                if self._sync_stopping and not self._sync_requested:
                    return
                self._sync_requested = False
                target = self._flushed_seq
                fileno = self._file.fileno()
            try:
                self._fdatasync_timed(fileno)
            except OSError as exc:
                with self._sync_cv:
                    self._sync_exc = exc
                    self._sync_cv.notify_all()
                return
            with self._sync_cv:
                self._synced_seq = max(self._synced_seq, target)
                self._sync_cv.notify_all()

    def sync(self) -> None:
        """Durability barrier: everything appended so far is on disk
        when this returns (no-op when nothing is pending)."""
        if self._file is None:
            return
        with self._sync_cv:
            if self._sync_exc is not None:
                raise WalError(f"background fsync failed: {self._sync_exc}")
            done = (
                self._since_sync == 0
                and not self._sync_requested
                and self._synced_seq >= self._flushed_seq
            )
        if done:
            return
        self._file.flush()
        with self._sync_cv:
            self._flush_accounting()
            self._flushed_seq = self._seq
            if self._sync_thread is None:
                # No worker running (strict/os-deferred modes, or group
                # commit that never hit a boundary): sync inline.
                self._fdatasync_timed(self._file.fileno())
                self._synced_seq = self._flushed_seq
                return
            self._sync_requested = True
            self._sync_cv.notify_all()
            while self._synced_seq < self._flushed_seq:
                if self._sync_exc is not None:
                    raise WalError(
                        f"background fsync failed: {self._sync_exc}"
                    )
                self._sync_cv.wait(timeout=0.5)

    def rotate(self, checkpoint_seq: int) -> int:
        """Start a new file; drop files fully covered by ``checkpoint_seq``.

        Returns the number of files deleted.  Files are named by their
        first sequence number, so a file is dead once the *next* file's
        first sequence is ≤ ``checkpoint_seq + 1``.
        """
        if self._closed:
            raise WalClosed("rotate on closed WAL")
        if self._file is not None:
            self.sync()
            self._file.close()
        self._open_segment(self._seq + 1)
        removed = 0
        starts = _segment_starts(self.directory)
        for i, first in enumerate(starts):
            nxt = starts[i + 1] if i + 1 < len(starts) else None
            if nxt is not None and nxt <= checkpoint_seq + 1:
                os.remove(
                    os.path.join(self.directory, _segment_name(first))
                )
                removed += 1
        return removed

    def close(self) -> None:
        if self._file is not None:
            self.sync()  # barrier: worker idle, tail durable
            with self._sync_cv:
                self._sync_stopping = True
                self._sync_cv.notify_all()
            if self._sync_thread is not None:
                self._sync_thread.join(timeout=5.0)
                self._sync_thread = None
            self._file.close()
            self._file = None
        self._closed = True


# ----------------------------------------------------------------------
# reading / recovery scan
# ----------------------------------------------------------------------
def _scan_file(path: str, stats: WalReadStats) -> Iterator[tuple[int, object]]:
    """Yield ``(seq, record)`` from one log file, resyncing past damage."""
    with open(path, "rb") as fh:
        data = fh.read()
    pos = 0
    if data[: len(FILE_HEADER)] == FILE_HEADER:
        pos = len(FILE_HEADER)
    elif data:
        stats.corrupt_frames += 1
        stats.errors.append(
            WalCorruption("bad file header", path=path, offset=0)
        )
        get_counter("wal.corrupt_frames").bump()
    while pos < len(data):
        idx = data.find(FRAME_MAGIC, pos)
        if idx < 0:
            # Trailing bytes with no frame start: a torn header.
            stats.torn_tails += 1
            stats.errors.append(
                WalTornTail("trailing garbage", path=path, offset=pos)
            )
            get_counter("wal.torn_tails").bump()
            return
        if idx != pos:
            stats.corrupt_frames += 1
            stats.errors.append(
                WalCorruption(
                    f"skipped {idx - pos} bytes to resync",
                    path=path,
                    offset=pos,
                )
            )
            get_counter("wal.corrupt_frames").bump()
            pos = idx
        body_start = pos + len(FRAME_MAGIC)
        if body_start + _HEADER_STRUCT.size + _CRC_STRUCT.size > len(data):
            stats.torn_tails += 1
            stats.errors.append(
                WalTornTail("frame header cut short", path=path, offset=pos)
            )
            get_counter("wal.torn_tails").bump()
            return
        header = data[body_start : body_start + _HEADER_STRUCT.size]
        seq, length = _HEADER_STRUCT.unpack(header)
        crc_off = body_start + _HEADER_STRUCT.size
        (crc,) = _CRC_STRUCT.unpack(
            data[crc_off : crc_off + _CRC_STRUCT.size]
        )
        payload_off = crc_off + _CRC_STRUCT.size
        if length > MAX_FRAME_PAYLOAD:
            stats.corrupt_frames += 1
            stats.errors.append(
                WalCorruption(
                    f"implausible frame length {length}",
                    path=path,
                    offset=pos,
                )
            )
            get_counter("wal.corrupt_frames").bump()
            pos += len(FRAME_MAGIC)  # resync scan past this magic
            continue
        if payload_off + length > len(data):
            # Could be a torn tail *or* a corrupt length; if the CRC of
            # what remains can't be checked, treat as torn (end of log).
            stats.torn_tails += 1
            stats.errors.append(
                WalTornTail("frame payload cut short", path=path, offset=pos)
            )
            get_counter("wal.torn_tails").bump()
            return
        payload = data[payload_off : payload_off + length]
        if (zlib.crc32(header + payload) & 0xFFFFFFFF) != crc:
            stats.corrupt_frames += 1
            stats.errors.append(
                WalCorruption("crc mismatch", path=path, offset=pos)
            )
            get_counter("wal.corrupt_frames").bump()
            pos += len(FRAME_MAGIC)
            continue
        try:
            record = pickle.loads(payload)
        except Exception as exc:
            stats.corrupt_frames += 1
            stats.errors.append(
                WalCorruption(
                    f"payload decode failed: {exc}", path=path, offset=pos
                )
            )
            get_counter("wal.corrupt_frames").bump()
            pos = payload_off + length
            continue
        yield seq, record
        pos = payload_off + length


def read_wal(
    directory: str | os.PathLike,
    after_seq: int = 0,
    stats: WalReadStats | None = None,
) -> Iterator[tuple[int, object]]:
    """Yield ``(seq, record)`` with ``seq > after_seq``, oldest first.

    Damage is accounted in ``stats`` (and the ``wal.*`` counters) and
    skipped; sequence numbers are delivered strictly increasing —
    duplicates from an un-truncated pre-checkpoint file are counted as
    ``skipped_duplicates``.
    """
    directory = os.fspath(directory)
    stats = stats if stats is not None else WalReadStats()
    try:
        names = sorted(
            n for n in os.listdir(directory) if _is_segment_name(n)
        )
    except FileNotFoundError:
        return
    last = after_seq
    for name in names:
        stats.files += 1
        for seq, record in _scan_file(os.path.join(directory, name), stats):
            if seq <= last:
                stats.skipped_duplicates += 1
                continue
            last = seq
            stats.records += 1
            yield seq, record


def wal_last_seq(directory: str | os.PathLike) -> int:
    """Highest intact sequence number on disk (0 when empty/missing)."""
    last = 0
    for seq, _ in read_wal(directory):
        last = seq
    return last


def wal_first_seq(directory: str | os.PathLike) -> int | None:
    """Sequence number the oldest log file on disk starts at (``None``
    when there is no log file): every record before it was rotated
    away."""
    starts = _segment_starts(os.fspath(directory))
    return starts[0] if starts else None
