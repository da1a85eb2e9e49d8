"""Sprite-style trace parsing.

The original experiments replay the Berkeley Sprite traces (Baker et al.,
SOSP '91): 24-hour traces of a Sun 4/280 file server, identified as
``1a, 1b, 2a, 2b, ...`` in the paper's figures.  Those traces are not
redistributable, so this module does two things:

* :class:`SpriteTraceReader` parses a *Sprite-like* text encoding
  (space-separated ``time host.pid op path [offset size] [path2]`` lines)
  so genuine converted traces can be dropped in, and
* :func:`sprite_trace` returns a synthetic trace with the per-trace
  character described in the paper (see :mod:`repro.patsy.synthetic`),
  which is what the benchmarks use.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, TextIO, Union

from repro.errors import TraceError
from repro.patsy.traces import (
    TraceRecord,
    synthesize_missing_times,
    trace_stream,
)

__all__ = [
    "SpriteTraceReader",
    "SPRITE_OP_NAMES",
    "load_sprite_trace",
    "iter_sprite_trace",
    "sprite_trace",
]

#: mapping from Sprite trace operation mnemonics to framework operations.
SPRITE_OP_NAMES = {
    "open": "open",
    "close": "close",
    "read": "read",
    "write": "write",
    "create": "create",
    "remove": "unlink",
    "unlink": "unlink",
    "delete": "unlink",
    "trunc": "truncate",
    "truncate": "truncate",
    "mkdir": "mkdir",
    "rmdir": "rmdir",
    "stat": "stat",
    "getattr": "stat",
    "lsdir": "readdir",
    "readdir": "readdir",
    "rename": "rename",
    "symlink": "symlink",
    "fsync": "fsync",
}


class SpriteTraceReader:
    """Parses Sprite-like trace text into :class:`TraceRecord` objects.

    Format, one operation per line::

        <seconds> <client-id> <op> <path> [<offset> <size>] [<path2>]

    Lines starting with ``#`` are comments.  Client identifiers may be
    ``host.pid`` pairs; they are hashed to small integers.
    """

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
        if len(fields) < 4:
            raise TraceError(
                f"sprite trace line {line_number}: expected at least 4 fields, got {len(fields)}"
            )
        time_text, client_text, op_text, path = fields[:4]
        op = SPRITE_OP_NAMES.get(op_text.lower())
        if op is None:
            raise TraceError(f"sprite trace line {line_number}: unknown operation {op_text!r}")
        offset = 0
        size = 0
        path2 = ""
        rest = fields[4:]
        if op == "rename":
            if not rest:
                raise TraceError(f"sprite trace line {line_number}: rename needs a target path")
            path2 = rest[0]
        else:
            if len(rest) >= 1:
                offset = int(rest[0])
            if len(rest) >= 2:
                size = int(rest[1])
        try:
            timestamp = float(time_text)
        except ValueError as exc:
            raise TraceError(f"sprite trace line {line_number}: bad timestamp {time_text!r}") from exc
        return TraceRecord(
            timestamp=timestamp,
            client=self._client_id(client_text),
            op=op,
            path=path,
            offset=offset,
            size=size,
            path2=path2,
        )

    def _client_id(self, text: str) -> int:
        if text not in self._client_ids:
            self._client_ids[text] = len(self._client_ids)
        return self._client_ids[text]


def iter_sprite_trace(
    source: Union[str, Path, TextIO], fill_missing_times: bool = True
) -> Iterator[TraceRecord]:
    """Stream a Sprite-like trace without materialising it.

    Records are parsed one line at a time and, unless
    ``fill_missing_times`` is off, read/write operations that share their
    open's timestamp are spaced out by
    :func:`repro.patsy.traces.synthesize_missing_times` (the paper's
    equidistant placement of missing operation times), whose memory is
    bounded by concurrently open open..close brackets.  The input file
    must be time-ordered (real converted traces are)."""
    with trace_stream(source) as stream:
        reader: Iterable[TraceRecord] = SpriteTraceReader(stream)
        if fill_missing_times:
            reader = synthesize_missing_times(reader)
        yield from reader


def load_sprite_trace(
    source: Union[str, Path, TextIO], fill_missing_times: bool = True
) -> list[TraceRecord]:
    """:func:`iter_sprite_trace`, as a list."""
    return list(iter_sprite_trace(source, fill_missing_times))


def sprite_trace(name: str, scale: float = 1.0, seed: int = 0) -> list[TraceRecord]:
    """A synthetic stand-in for Sprite trace ``name`` ('1a', '1b', '5', ...).

    Delegates to :mod:`repro.patsy.synthetic`; see that module for how each
    trace's published character is reproduced.
    """
    from repro.patsy.synthetic import sprite_like_trace

    return sprite_like_trace(name, scale=scale, seed=seed)
