"""The write-ahead log: CRC-framed records with batched group commit.

Record framing (little-endian)::

    +----------+----------+------------------------- body -----------------+
    | len: u32 | crc: u32 | lsn: u64 | type: u8 | file_id: i64 | arg: i64 |
    +----------+----------+------------------------------------------------+

``crc`` covers the body, so a torn tail — a frame whose bytes were only
partially accepted by the device before a crash — fails either the length
check or the CRC and ends the replay *there*: everything before the torn
frame is used, everything after is discarded (an append-only log is only
ever damaged at its tail).

``append`` is deliberately **synchronous and non-durable**: it frames the
record into the group-commit buffer and returns the LSN without touching
the scheduler, so journaling can happen inside atomic scheduler steps
(e.g. in the same step as a routing flip, or from non-generator call
sites like ``ClusterPlacement.forget``).  Durability happens at
:meth:`sync`, which drains the whole buffer into one device append — the
group commit.  Three triggers mark a commit as *due* between explicit
syncs: entry count, buffered bytes, and a time interval (a lazily spawned
daemon, so a WAL that never logs anything never touches the scheduler).

The batching trade-off (see ``docs/architecture.md``): bigger batches
amortise the per-commit device latency over more records but widen the
window of buffered records a crash can lose.  Losing them is *safe* here
— a FLIP without a later durable COMMIT is not applied at recovery — so
the knobs trade recovery freshness against journal-write overhead, never
correctness.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Any, Generator, List, Optional, Tuple

from repro.core.metadata.crash import CrashPoints
from repro.core.metadata.device import MetadataDevice
from repro.core.scheduler import Scheduler, Thread

__all__ = [
    "REC_BEGIN",
    "REC_FLIP",
    "REC_COMMIT",
    "REC_END",
    "REC_FORGET",
    "REC_RSET",
    "WalRecord",
    "WriteAheadLog",
    "decode_wal",
    "pack_replica_set",
    "unpack_replica_set",
]

#: record types: one migration journals BEGIN → FLIP → COMMIT → END;
#: FORGET drops the routing entry of a deleted displaced file; RSET
#: repoints a file's replica set (repair) — like FLIP, an RSET only
#: applies at recovery under a later durable COMMIT for the same file.
REC_BEGIN = 1
REC_FLIP = 2
REC_COMMIT = 3
REC_END = 4
REC_FORGET = 5
REC_RSET = 6

_HEADER = struct.Struct("<II")
_BODY = struct.Struct("<QBqq")


@dataclass(frozen=True)
class WalRecord:
    """One decoded journal record."""

    lsn: int
    rtype: int
    file_id: int
    #: type-dependent argument: the target volume for FLIP, the source
    #: volume for BEGIN, 0 otherwise.
    arg: int

    def encode(self) -> bytes:
        body = _BODY.pack(self.lsn, self.rtype, self.file_id, self.arg)
        return _HEADER.pack(len(body), zlib.crc32(body)) + body


def pack_replica_set(volumes: Tuple[int, ...]) -> int:
    """Pack a replica volume list into an RSET record's ``arg``.

    One byte per volume, offset by one so a zero byte terminates the list
    (volume 0 packs as 1).  An i64 arg holds up to seven volumes — more
    than the six replicas the configuration allows — and volume indices
    are bounded at 254 by ``ClusterPlacement``.
    """
    arg = 0
    for volume in reversed(volumes):
        arg = (arg << 8) | (volume + 1)
    return arg


def unpack_replica_set(arg: int) -> Tuple[int, ...]:
    """Invert :func:`pack_replica_set`."""
    volumes = []
    while arg:
        volumes.append((arg & 0xFF) - 1)
        arg >>= 8
    return tuple(volumes)


def decode_wal(data: bytes) -> Tuple[List[WalRecord], int]:
    """Decode every intact frame; returns ``(records, valid_bytes)``.

    Decoding stops at the first truncated or CRC-damaged frame (the torn
    tail); ``valid_bytes`` is how far the log was readable.
    """
    records: List[WalRecord] = []
    offset = 0
    total = len(data)
    while offset + _HEADER.size <= total:
        length, crc = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        end = start + length
        if length != _BODY.size or end > total:
            break
        body = data[start:end]
        if zlib.crc32(body) != crc:
            break
        lsn, rtype, file_id, arg = _BODY.unpack(body)
        records.append(WalRecord(lsn=lsn, rtype=rtype, file_id=file_id, arg=arg))
        offset = end
    return records, offset


class WriteAheadLog:
    """Group-committed journal over a :class:`MetadataDevice`
    (``commit_records=1`` commits after every record)."""

    def __init__(
        self,
        scheduler: Scheduler,
        device: MetadataDevice,
        commit_records: int = 8,
        commit_bytes: int = 4096,
        commit_interval: float = 1.0,
        crashpoints: Optional[CrashPoints] = None,
    ):
        self.scheduler = scheduler
        self.device = device
        self.commit_records = commit_records
        self.commit_bytes = commit_bytes
        self.commit_interval = commit_interval
        self.crashpoints = crashpoints
        self._next_lsn = 1
        self._pending: List[bytes] = []
        self._pending_bytes = 0
        self._commit_due = False
        self._committing = False
        self._commit_done = scheduler.new_event("wal-commit-done")
        self._daemon: Optional[Thread] = None
        # -- statistics
        self.records_appended = 0
        self.commits = 0
        self.bytes_committed = 0

    # ------------------------------------------------------------------ appending

    @property
    def pending_records(self) -> int:
        return len(self._pending)

    def set_next_lsn(self, lsn: int) -> None:
        """Continue the LSN sequence after recovery or a checkpoint."""
        self._next_lsn = lsn

    @property
    def next_lsn(self) -> int:
        return self._next_lsn

    def append(self, rtype: int, file_id: int, arg: int = 0) -> int:
        """Buffer one record; returns its LSN.  Synchronous and
        non-durable — call :meth:`sync` (or let a trigger fire) to commit."""
        lsn = self._next_lsn
        self._next_lsn += 1
        frame = WalRecord(lsn=lsn, rtype=rtype, file_id=file_id, arg=arg).encode()
        self._pending.append(frame)
        self._pending_bytes += len(frame)
        self.records_appended += 1
        if len(self._pending) >= self.commit_records or self._pending_bytes >= self.commit_bytes:
            self._commit_due = True
        if self.commit_interval > 0 and self._daemon is None:
            # Lazily spawned on the first record ever logged: a WAL that
            # journals nothing leaves the scheduler untouched.
            self._daemon = self.scheduler.spawn(
                self._interval_daemon, name="wal-group-commit", daemon=True
            )
        return lsn

    # ------------------------------------------------------------------ committing

    def maybe_sync(self) -> Generator[Any, Any, None]:
        """Commit if a batching trigger has fired since the last commit."""
        if self._commit_due and self._pending:
            yield from self.sync()

    def sync(self) -> Generator[Any, Any, None]:
        """Make every buffered record durable (one group commit)."""
        while self._committing:
            # Another thread (the interval daemon, or a concurrent
            # migration) is mid-commit; wait so device appends never
            # interleave and records stay in LSN order.
            yield from self._commit_done.wait()
        if not self._pending:
            self._commit_due = False
            return
        self._committing = True
        try:
            batch, self._pending = self._pending, []
            self._pending_bytes = 0
            self._commit_due = False
            payload = b"".join(batch)
            cp = self.crashpoints
            if cp is not None:
                cp.hit("wal.commit.pre")
                if cp.visit("wal.commit.torn"):
                    # The device accepted only a prefix of the batch: the
                    # torn tail the replay must tolerate.
                    yield from self.device.append_wal(payload[: max(len(payload) // 2, 1)])
                    cp.crash("wal.commit.torn")
            yield from self.device.append_wal(payload)
            if cp is not None:
                cp.hit("wal.commit.post")
            self.commits += 1
            self.bytes_committed += len(payload)
        finally:
            self._committing = False
            self._commit_done.signal()

    def _interval_daemon(self) -> Generator[Any, Any, None]:
        while True:
            yield from self.scheduler.sleep(self.commit_interval)
            if self._pending and not self._committing:
                yield from self.sync()

    # ------------------------------------------------------------------ reporting

    def snapshot(self) -> dict:
        return {
            "records_appended": self.records_appended,
            "commits": self.commits,
            "bytes_committed": self.bytes_committed,
            "pending_records": self.pending_records,
            "device_bytes": self.device.wal_bytes,
        }
