"""Coda-style trace parsing.

The paper's second trace source is the CMU Coda traces (Mummert &
Satyanarayanan, "Long Term Distributed File Reference Tracing").  Coda trace
records carry a volume identifier in addition to the path; the reader below
parses a Coda-like text encoding and folds the volume into the path so the
rest of the framework sees ordinary hierarchical names.

Format, one operation per line::

    <seconds> <client> <volume> <op> <path-within-volume> [<offset> <size>] [<path2>]
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, TextIO, Union

from repro.errors import TraceError
from repro.patsy.sprite import SPRITE_OP_NAMES
from repro.patsy.traces import (
    TraceRecord,
    synthesize_missing_times,
    trace_stream,
)

__all__ = ["CodaTraceReader", "load_coda_trace", "iter_coda_trace"]


class CodaTraceReader:
    """Parses Coda-like trace text into :class:`TraceRecord` objects."""

    def __init__(self, stream: TextIO):
        self.stream = stream
        self._client_ids: dict[str, int] = {}

    def __iter__(self) -> Iterator[TraceRecord]:
        for line_number, line in enumerate(self.stream, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            yield self.parse_line(line, line_number)

    def parse_line(self, line: str, line_number: int = 0) -> TraceRecord:
        fields = line.split()
        if len(fields) < 5:
            raise TraceError(
                f"coda trace line {line_number}: expected at least 5 fields, got {len(fields)}"
            )
        time_text, client_text, volume, op_text, path = fields[:5]
        op = SPRITE_OP_NAMES.get(op_text.lower())
        if op is None:
            raise TraceError(f"coda trace line {line_number}: unknown operation {op_text!r}")
        offset = 0
        size = 0
        path2 = ""
        rest = fields[5:]
        if op == "rename":
            if not rest:
                raise TraceError(f"coda trace line {line_number}: rename needs a target path")
            path2 = self._qualify(volume, rest[0])
        else:
            if len(rest) >= 1:
                offset = int(rest[0])
            if len(rest) >= 2:
                size = int(rest[1])
        try:
            timestamp = float(time_text)
        except ValueError as exc:
            raise TraceError(f"coda trace line {line_number}: bad timestamp {time_text!r}") from exc
        return TraceRecord(
            timestamp=timestamp,
            client=self._client_id(client_text),
            op=op,
            path=self._qualify(volume, path),
            offset=offset,
            size=size,
            path2=path2,
        )

    @staticmethod
    def _qualify(volume: str, path: str) -> str:
        """Fold the Coda volume into the path: /vol.<volume>/<path>."""
        return f"/vol.{volume}/" + path.lstrip("/")

    def _client_id(self, text: str) -> int:
        if text not in self._client_ids:
            self._client_ids[text] = len(self._client_ids)
        return self._client_ids[text]


def iter_coda_trace(
    source: Union[str, Path, TextIO], fill_missing_times: bool = True
) -> Iterator[TraceRecord]:
    """Stream a Coda-like trace without materialising it, filling missing
    operation times as :func:`~repro.patsy.sprite.iter_sprite_trace` does;
    the input must be time-ordered."""
    with trace_stream(source) as stream:
        reader: Iterable[TraceRecord] = CodaTraceReader(stream)
        if fill_missing_times:
            reader = synthesize_missing_times(reader)
        yield from reader


def load_coda_trace(
    source: Union[str, Path, TextIO], fill_missing_times: bool = True
) -> list[TraceRecord]:
    """:func:`iter_coda_trace`, as a list."""
    return list(iter_coda_trace(source, fill_missing_times))
