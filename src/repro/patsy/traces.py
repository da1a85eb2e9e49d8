"""File-system traces: records, readers, writers and grouping.

"File-system traces are collections of records that describe all the
activity of a real file-system at some time.  These records specify when the
operation took place (usually down to the microsecond), and which
file-system operation was executed."

The original experiments replayed the Berkeley Sprite traces and the CMU
Coda traces; neither can be redistributed here, so this module defines a
small, explicit on-disk trace format (tab-separated text) plus readers for
Sprite-like and Coda-like encodings (:mod:`repro.patsy.sprite`,
:mod:`repro.patsy.coda`) and the synthetic generators in
:mod:`repro.patsy.workload` produce the same records.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, TextIO, Tuple, Union

from repro.errors import TraceError

__all__ = [
    "TraceRecord",
    "TRACE_OPERATIONS",
    "TraceWriter",
    "TraceReader",
    "load_trace",
    "iter_trace",
    "iter_trace_tuples",
    "scan_trace_clients",
    "scan_trace_client_counts",
    "save_trace",
    "trace_stream",
    "records_by_client",
    "group_operations",
    "OperationGroup",
    "trace_duration",
    "operation_mix",
    "synthesize_missing_times",
    "stream_synthesize_missing_times",
]

#: operations understood by the replayer.
TRACE_OPERATIONS = frozenset(
    {
        "open",
        "close",
        "read",
        "write",
        "create",
        "unlink",
        "truncate",
        "mkdir",
        "rmdir",
        "stat",
        "readdir",
        "rename",
        "symlink",
        "fsync",
    }
)


@dataclass(frozen=True)
class TraceRecord:
    """One traced file-system operation."""

    timestamp: float
    client: int
    op: str
    path: str
    offset: int = 0
    size: int = 0
    path2: str = ""

    def __post_init__(self) -> None:
        if self.op not in TRACE_OPERATIONS:
            raise TraceError(f"unknown trace operation {self.op!r}")
        if self.timestamp < 0:
            raise TraceError("trace timestamps must be non-negative")
        if self.offset < 0 or self.size < 0:
            raise TraceError("trace offsets and sizes must be non-negative")

    def shifted(self, delta: float) -> "TraceRecord":
        """A copy of this record with its timestamp shifted by ``delta``."""
        return replace(self, timestamp=self.timestamp + delta)


#: operation name -> the one string object every record of it shares.
_OPERATION = {op: op for op in TRACE_OPERATIONS}


# --------------------------------------------------------------------------- text format


class TraceWriter:
    """Writes trace records as tab-separated text, one record per line."""

    HEADER = "# repro-trace v1: timestamp\tclient\top\tpath\toffset\tsize\tpath2"

    def __init__(self, stream: TextIO):
        self.stream = stream
        self.stream.write(self.HEADER + "\n")
        self.records_written = 0

    def write(self, record: TraceRecord) -> None:
        self.stream.write(
            f"{record.timestamp:.6f}\t{record.client}\t{record.op}\t{record.path}\t"
            f"{record.offset}\t{record.size}\t{record.path2}\n"
        )
        self.records_written += 1

    def write_all(self, records: Iterable[TraceRecord]) -> int:
        for record in records:
            self.write(record)
        return self.records_written


class TraceReader:
    """Reads the tab-separated trace format produced by :class:`TraceWriter`."""

    def __init__(self, stream: TextIO):
        self.stream = stream

    def __iter__(self) -> Iterator[TraceRecord]:
        new = object.__new__
        operation = _OPERATION
        for line_number, line in enumerate(self.stream, start=1):
            line = line.strip()
            if not line or line[0] == "#":
                continue
            # A well-formed line becomes a record right here: each field
            # converted and checked once and stored straight into the
            # instance (the frozen dataclass's own ``__init__`` goes through
            # ``object.__setattr__`` per field).
            fields = line.split("\t")
            try:
                timestamp = float(fields[0])
                client = int(fields[1])
                op = operation[fields[2]]
                offset = int(fields[4])
                size = int(fields[5])
                if timestamp < 0 or offset < 0 or size < 0:
                    raise ValueError
            except (ValueError, LookupError):
                # Too few fields, not a number, not an operation, negative:
                # ``parse_line`` knows what to say about each.
                yield self.parse_line(line, line_number)
                continue
            record = new(TraceRecord)
            values = record.__dict__
            values["timestamp"] = timestamp
            values["client"] = client
            values["op"] = op
            values["path"] = fields[3]
            values["offset"] = offset
            values["size"] = size
            values["path2"] = fields[6] if len(fields) > 6 else ""
            yield record

    @staticmethod
    def parse_line(line: str, line_number: int = 0) -> TraceRecord:
        fields = line.split("\t")
        if len(fields) < 6:
            raise TraceError(f"trace line {line_number}: expected at least 6 fields, got {len(fields)}")
        try:
            return TraceRecord(
                timestamp=float(fields[0]),
                client=int(fields[1]),
                op=fields[2],
                path=fields[3],
                offset=int(fields[4]),
                size=int(fields[5]),
                path2=fields[6] if len(fields) > 6 else "",
            )
        except (ValueError, TraceError) as exc:
            raise TraceError(f"trace line {line_number}: {exc}") from exc

    def iter_tuples(self) -> Iterator[Tuple[float, int, str, str, int, int, str]]:
        """Fast streaming parse: ``(timestamp, client, op, path, offset,
        size, path2)`` tuples without :class:`TraceRecord` construction or
        validation.  This is the measurement hot path for multi-million-line
        traces; use :meth:`__iter__` when validated record objects are
        needed (the replayer does)."""
        for line_number, line in enumerate(self.stream, start=1):
            if not line or line[0] == "#" or line == "\n":
                continue
            fields = line.rstrip("\n").split("\t")
            try:
                yield (
                    float(fields[0]),
                    int(fields[1]),
                    fields[2],
                    fields[3],
                    int(fields[4]),
                    int(fields[5]),
                    fields[6] if len(fields) > 6 else "",
                )
            except (ValueError, IndexError) as exc:
                if not line.strip():
                    continue
                raise TraceError(f"trace line {line_number}: {exc}") from exc


def save_trace(records: Iterable[TraceRecord], path: Union[str, Path]) -> int:
    """Write records to ``path``; returns the number of records written."""
    with open(path, "w", encoding="utf-8") as stream:
        writer = TraceWriter(stream)
        return writer.write_all(records)


@contextmanager
def trace_stream(source: Union[str, Path, TextIO]) -> Iterator[TextIO]:
    """``source`` as an open text stream: a path is opened here and closed
    on exit, an open stream is handed through as it is."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as stream:
            yield stream
    elif hasattr(source, "read"):
        yield source
    else:
        raise TraceError(f"cannot read a trace from {type(source).__name__}")


def load_trace(source: Union[str, Path, TextIO]) -> list[TraceRecord]:
    """Load every record from a path or open text stream."""
    with trace_stream(source) as stream:
        return list(TraceReader(stream))


def iter_trace(source: Union[str, Path, TextIO]) -> Iterator[TraceRecord]:
    """Stream records from a path or open text stream, one at a time.

    The streaming counterpart of :func:`load_trace`: nothing is
    materialised, so a multi-million-record trace costs one record of
    memory.  When ``source`` is a path the file is closed when the
    iterator is exhausted or garbage-collected."""
    with trace_stream(source) as stream:
        yield from TraceReader(stream)


def iter_trace_tuples(
    source: Union[str, Path, TextIO]
) -> Iterator[Tuple[float, int, str, str, int, int, str]]:
    """Stream raw ``(timestamp, client, op, path, offset, size, path2)``
    tuples (see :meth:`TraceReader.iter_tuples`) from a path or stream."""
    with trace_stream(source) as stream:
        yield from TraceReader(stream).iter_tuples()


def scan_trace_client_counts(source: Union[str, Path, TextIO]) -> dict[int, int]:
    """One cheap pass over a trace counting records per client id.

    Streaming replay uses this to spawn the same client threads, in the
    same sorted order, as materialised replay, and to let a finished
    client stop pulling the shared iterator the moment its records run
    out — memory is O(#clients), never O(#records)."""
    counts: dict[int, int] = {}
    with trace_stream(source) as stream:
        for line in stream:
            if not line or line[0] == "#" or line == "\n":
                continue
            fields = line.split("\t", 2)
            if len(fields) < 2:
                continue
            try:
                client = int(fields[1])
            except ValueError:
                continue
            counts[client] = counts.get(client, 0) + 1
    return counts


def scan_trace_clients(source: Union[str, Path, TextIO]) -> list[int]:
    """One cheap pass over a trace collecting the sorted client ids."""
    return sorted(scan_trace_client_counts(source))


# --------------------------------------------------------------------------- analysis helpers


def records_by_client(records: Iterable[TraceRecord]) -> dict[int, list[TraceRecord]]:
    """Split a trace into per-client streams, each sorted by time.

    One pass, so ``records`` may be a reader (``iter_trace(path)``): the
    records then go from their lines into the streams and nowhere else."""
    streams: dict[int, list[TraceRecord]] = {}
    for record in records:
        stream = streams.get(record.client)
        if stream is None:
            stream = streams[record.client] = []
        stream.append(record)
    for stream in streams.values():
        stream.sort(key=attrgetter("timestamp"))
    return streams


def trace_duration(records: Sequence[TraceRecord]) -> float:
    if not records:
        return 0.0
    times = [record.timestamp for record in records]
    return max(times) - min(times)


def operation_mix(records: Sequence[TraceRecord]) -> dict[str, int]:
    mix: dict[str, int] = {}
    for record in records:
        mix[record.op] = mix.get(record.op, 0) + 1
    return mix


@dataclass
class OperationGroup:
    """A group of operations that obviously belong together.

    The replayer threads "read a part of the trace file, group operations
    that obviously belong together (such as an open, read, read, write, ...,
    close sequence), and call the abstract-client interface to execute the
    operation on the simulated system."
    """

    client: int
    path: str
    records: list[TraceRecord] = field(default_factory=list)

    @property
    def start_time(self) -> float:
        return self.records[0].timestamp if self.records else 0.0

    @property
    def end_time(self) -> float:
        return self.records[-1].timestamp if self.records else 0.0

    def __len__(self) -> int:
        return len(self.records)


def group_operations(records: Sequence[TraceRecord]) -> list[OperationGroup]:
    """Group per-client open..close sequences on the same path.

    Operations outside any open..close bracket become single-record groups.
    """
    groups: list[OperationGroup] = []
    open_groups: dict[tuple[int, str], OperationGroup] = {}
    for record in sorted(records, key=lambda r: (r.timestamp, r.client)):
        key = (record.client, record.path)
        if record.op == "open":
            group = OperationGroup(client=record.client, path=record.path, records=[record])
            open_groups[key] = group
            groups.append(group)
        elif key in open_groups:
            open_groups[key].records.append(record)
            if record.op == "close":
                del open_groups[key]
        else:
            groups.append(
                OperationGroup(client=record.client, path=record.path, records=[record])
            )
    return groups


def _adjust_group(body: list[TraceRecord]) -> list[TraceRecord]:
    """One open..close group with its untimed operations spaced out: reads
    and writes carrying the open's timestamp (no recorded time of their own)
    are placed equidistantly between the open and the close, which is what
    the paper does when "the actual time a read or write operation took
    place" is missing.  Any other group comes back as it is."""
    if len(body) < 3 or body[0].op != "open" or body[-1].op != "close":
        return body
    open_time = body[0].timestamp
    close_time = body[-1].timestamp
    inner = body[1:-1]
    missing = [r for r in inner if r.timestamp == open_time]
    if not missing or close_time <= open_time:
        return body
    step = (close_time - open_time) / (len(inner) + 1)
    adjusted = [body[0]]
    for index, record in enumerate(inner, start=1):
        if record.timestamp == open_time:
            adjusted.append(record.shifted(step * index))
        else:
            adjusted.append(record)
    adjusted.append(body[-1])
    return adjusted


def synthesize_missing_times(records: Sequence[TraceRecord]) -> list[TraceRecord]:
    """Fill in missing read/write times in every open..close bracket of a
    trace (:func:`_adjust_group`) and return it in time order."""
    result: list[TraceRecord] = []
    for group in group_operations(records):
        result.extend(_adjust_group(group.records))
    result.sort(key=lambda record: record.timestamp)
    return result


def stream_synthesize_missing_times(
    records: Iterable[TraceRecord],
) -> Iterator[TraceRecord]:
    """Streaming counterpart of :func:`synthesize_missing_times`.

    The input must be time-ordered (which every on-disk trace is).  Open..
    close brackets are buffered until their close arrives — an adjusted
    read/write gets a timestamp anywhere inside the bracket, so nothing
    from a bracket can be emitted before its close fixes the spacing.
    Adjusted and pass-through records merge through a small reorder heap
    and are released once no still-open bracket could produce an earlier
    timestamp.  Memory is bounded by the records inside concurrently open
    brackets (plus the reorder heap), never by the trace length.
    """
    pending: list[tuple[float, int, TraceRecord]] = []  # reorder min-heap
    sequence = 0
    open_groups: dict[tuple[int, str], list[TraceRecord]] = {}
    open_times: dict[tuple[int, str], float] = {}

    def push(record: TraceRecord) -> None:
        nonlocal sequence
        heapq.heappush(pending, (record.timestamp, sequence, record))
        sequence += 1

    def release(watermark: float) -> Iterator[TraceRecord]:
        while pending and pending[0][0] <= watermark:
            yield heapq.heappop(pending)[2]

    for record in records:
        key = (record.client, record.path)
        if record.op == "open":
            # A re-open without a close abandons the previous bracket; its
            # records pass through unadjusted, exactly as in the batch
            # version (where the abandoned group never gets a close).
            stale = open_groups.pop(key, None)
            if stale is not None:
                for abandoned in stale:
                    push(abandoned)
            open_groups[key] = [record]
            open_times[key] = record.timestamp
        elif key in open_groups:
            open_groups[key].append(record)
            if record.op == "close":
                for adjusted in _adjust_group(open_groups.pop(key)):
                    push(adjusted)
                del open_times[key]
        else:
            push(record)
        # Nothing still buffered inside an open bracket can surface before
        # that bracket's open timestamp.
        watermark = min(open_times.values()) if open_times else record.timestamp
        yield from release(watermark)
    # EOF: unclosed brackets pass through unadjusted, then drain the heap.
    for body in open_groups.values():
        for record in body:
            push(record)
    while pending:
        yield heapq.heappop(pending)[2]
