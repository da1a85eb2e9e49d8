"""Seeded, benchmark-owned inputs for the five end-to-end workloads.

The program under test only ever sees the files written here: four
``repro-trace v1`` text files for PATSY and one NFS op script for PFS.
Nothing in this module imports ``repro`` — the trace format is written
by hand so a change to the program's own trace writer cannot silently
change the benchmark's inputs.

A seed is one *day of client activity* over a fixed file server: the
pre-existing file population (names, sizes, popularity rank) belongs to
the workload, while which client touches which file when, how large the
files it writes are and which of them die young are drawn from the seed.
Draws are stratified (shuffled decks with exact proportions, jittered
slots instead of Poisson arrivals) so two seeds give inputs with the
same op count, byte volume and mix to within a few per cent — the
end-to-end metrics then move with the code, not with the seed.
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import bisect_left
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import NormalDist
from typing import Dict, Iterator, List, Tuple

KB = 1024
MB = 1024 * KB

TRACE_HEADER = "# repro-trace v1: timestamp\tclient\top\tpath\toffset\tsize\tpath2"
SCRIPT_HEADER = "# e2e-nfs-script v1: op\tname\targ\targ\targ"



@dataclass(frozen=True)
class InputInfo:
    """What one generated input file contains (recorded with every result so
    a drifted input is visible)."""

    path: str
    sha256: str
    ops: int
    read_bytes: int
    write_bytes: int
    span_s: float

    def as_dict(self) -> dict:
        return dict(self.__dict__)


# --------------------------------------------------------------------------- trace shapes


@dataclass(frozen=True)
class TraceShape:
    """Statistical shape of one PATSY trace (sessions of open, calls, close)."""

    name: str
    clients: int
    #: trace seconds the sessions are spread over.
    span: float
    #: sessions per client (each is one open ... close bracket).
    sessions: int
    #: share of sessions that only read a pre-existing file.
    read_share: float
    #: pre-existing files read sessions draw from, by Zipf popularity.
    files: int
    zipf: float
    #: median and log-sigma of small file sizes; a share of files is large.
    small_bytes: int
    size_sigma: float
    large_share: float
    large_bytes: int
    #: bytes per read/write call and trace seconds between calls.
    io_unit: int
    gap: float
    #: share of read sessions preceded by a burst of stat calls.
    stat_share: float
    stat_burst: int
    #: what happens to a freshly written file: overwritten in place,
    #: deleted, or left alone, ``follow_delay`` seconds (mean) later.
    overwrite_share: float
    delete_share: float
    follow_delay: float
    #: directories files are spread over; with ``per_client_dirs`` every
    #: client writes inside its own ``/c<client>`` subtree and the
    #: pre-existing population sits in one shared ``/hot`` directory.
    dirs: int = 8
    per_client_dirs: bool = False
    #: how far into its slot a session may start (share of the slot): near
    #: 1 spreads the clients evenly, near 0 makes them all start together.
    jitter: float = 0.8

    def scaled(self, factor: float) -> "TraceShape":
        """The same shape over a shorter day (``factor`` of the sessions and
        of the span, so the offered load per second is unchanged)."""
        sessions = max(int(round(self.sessions * factor)), 4)
        return replace(self, sessions=sessions, span=self.span * sessions / self.sessions)


#: the paper's baseline day (Sprite trace 1a): a mixed population of small
#: files, half the sessions read, most new files die or are rewritten
#: within a minute, working set larger than the 2.5-MB cache.
SPRITE_MIX = TraceShape(
    name="sprite_mix", clients=7, span=1000.0, sessions=1000, read_share=0.5,
    files=600, zipf=0.8, small_bytes=8 * KB, size_sigma=0.4, large_share=0.0,
    large_bytes=0, io_unit=8 * KB, gap=0.02, stat_share=0.35, stat_burst=3,
    overwrite_share=0.45, delete_share=0.40, follow_delay=50.0,
)

#: Sprite trace 1b: many clients streaming large new files; the NVRAM
#: fills and writers wait for it to drain.  Half-megabyte files in 32-KB
#: calls: many medium bursts rather than a few huge ones, so that the tail
#: latency is set by hundreds of collisions a day, not by a dozen.
WRITE_BURST = TraceShape(
    name="write_burst", clients=16, span=300.0, sessions=30, read_share=0.2,
    files=200, zipf=0.9, small_bytes=16 * KB, size_sigma=0.6, large_share=0.7,
    large_bytes=512 * KB, io_unit=32 * KB, gap=0.02, stat_share=0.2, stat_burst=2,
    overwrite_share=0.2, delete_share=0.3, follow_delay=40.0,
)

#: a working set that fits the cache, read over and over.
READ_HOT = TraceShape(
    name="read_hot", clients=8, span=600.0, sessions=1500, read_share=0.98,
    files=150, zipf=0.9, small_bytes=16 * KB, size_sigma=0.4, large_share=0.0,
    large_bytes=0, io_unit=8 * KB, gap=0.005, stat_share=0.6, stat_burst=4,
    overwrite_share=0.4, delete_share=0.5, follow_delay=8.0,
)

#: the 1a mix on a four-node cluster: per-client subtrees spread over the
#: nodes by directory placement, plus one hot directory everybody reads.
CLUSTER_REPL = TraceShape(
    name="cluster_repl", clients=8, span=300.0, sessions=170, read_share=0.5,
    files=160, zipf=1.0, small_bytes=8 * KB, size_sigma=0.7, large_share=0.03,
    large_bytes=128 * KB, io_unit=8 * KB, gap=0.02, stat_share=0.35, stat_burst=2,
    overwrite_share=0.3, delete_share=0.0, follow_delay=30.0, per_client_dirs=True,
)

TRACE_SHAPES: Dict[str, TraceShape] = {
    shape.name: shape for shape in (SPRITE_MIX, WRITE_BURST, READ_HOT, CLUSTER_REPL)
}


# --------------------------------------------------------------------------- trace generation


def _size_grid(count: int, median: int, sigma: float) -> List[int]:
    """``count`` sizes at evenly spaced quantiles of a log-normal: the same
    multiset for every seed, so byte volume does not wander."""
    normal = NormalDist()
    return [
        max(int(median * math.exp(sigma * normal.inv_cdf((i + 0.5) / count))), 512)
        for i in range(max(count, 0))
    ]


def _deck(rng: random.Random, count: int, shares: List[Tuple[str, float]]) -> List[str]:
    """``count`` labels in exact proportion to ``shares`` (the remainder
    goes to the last label), shuffled."""
    deck: List[str] = []
    for label, share in shares[:-1]:
        deck.extend([label] * int(round(count * share)))
    deck = deck[:count]
    deck.extend([shares[-1][0]] * (count - len(deck)))
    rng.shuffle(deck)
    return deck


class _Population:
    """The file server's pre-existing files: fixed names and sizes, Zipf
    popularity by index."""

    def __init__(self, shape: TraceShape):
        sizes = _size_grid(shape.files, shape.small_bytes, shape.size_sigma)
        # Interleave small and large sizes over the popularity ranks (a
        # fixed stride permutation), so hot files are not all tiny.
        stride = next(s for s in range(max(shape.files // 3, 1) | 1, shape.files + 2, 2)
                      if math.gcd(s, shape.files) == 1)
        self.sizes = [sizes[(i * stride) % shape.files] for i in range(shape.files)]
        if shape.per_client_dirs:
            self.paths = [f"/hot/existing-{i:04d}.dat" for i in range(shape.files)]
        else:
            self.paths = [
                f"/dir{i % shape.dirs:02d}/existing-{i:04d}.dat" for i in range(shape.files)
            ]
        total = 0.0
        self._cdf: List[float] = []
        for rank in range(shape.files):
            total += 1.0 / (rank + 1) ** shape.zipf
            self._cdf.append(total)

    def pick(self, rng: random.Random) -> int:
        point = rng.random() * self._cdf[-1]
        return min(bisect_left(self._cdf, point), len(self._cdf) - 1)


Record = Tuple[float, int, int, str, str, int, int]  # time, client, seq, op, path, offset, size


def _client_records(shape: TraceShape, population: _Population, seed: str, client: int) -> List[Record]:
    rng = random.Random(f"{shape.name}:{seed}:{client}")
    sessions = shape.sessions
    writes = sessions - int(round(sessions * shape.read_share))
    kinds = _deck(rng, sessions, [("read", shape.read_share), ("write", 1.0)])
    stats = _deck(rng, sessions, [("stat", shape.stat_share), ("", 1.0)])
    # One ticket per written file: its size and what becomes of it.  Fates
    # are dealt within each size class, so the bytes overwritten or deleted
    # do not depend on how two independent shuffles happen to line up.
    large = int(round(writes * shape.large_share))
    tickets: List[Tuple[int, str]] = []
    for sizes in ([shape.large_bytes] * large,
                  _size_grid(writes - large, shape.small_bytes, shape.size_sigma)):
        fates = _deck(
            rng, len(sizes),
            [("overwrite", shape.overwrite_share), ("delete", shape.delete_share), ("keep", 1.0)],
        )
        tickets.extend(zip(sizes, fates))
    rng.shuffle(tickets)
    slot = shape.span / sessions
    gap = shape.gap
    records: List[Record] = []
    seq = 0

    def emit(when: float, op: str, path: str, offset: int = 0, size: int = 0) -> None:
        nonlocal seq
        records.append((when, client, seq, op, path, offset, size))
        seq += 1

    def calls(when: float, op: str, path: str, size: int) -> float:
        emit(when, "open", path)
        when += gap * rng.uniform(0.5, 1.5)
        offset = 0
        while offset < size:
            chunk = min(shape.io_unit, size - offset)
            emit(when, op, path, offset, chunk)
            offset += chunk
            when += gap * rng.uniform(0.5, 1.5)
        emit(when, "close", path)
        return when

    now = 0.0
    written = 0
    for index, kind in enumerate(kinds):
        # Jittered slots, not Poisson arrivals: the offered load is even
        # over the day.  A session that overruns its slot pushes the next.
        now = max(now + gap, (index + rng.uniform(0.0, shape.jitter)) * slot)
        if kind == "read":
            file = population.pick(rng)
            path = population.paths[file]
            if stats[index]:
                for _ in range(shape.stat_burst):
                    emit(now, "stat", path)
                    now += gap * rng.uniform(0.5, 1.5)
            now = calls(now, "read", path, population.sizes[file])
            continue
        size, fate = tickets[written]
        # Fresh names depend on the client and a counter only, so the same
        # names (and so the same placement on volumes) occur under every seed.
        directory = (client + written) % shape.dirs
        if shape.per_client_dirs:
            path = f"/c{client}/d{directory}/f{written:05d}.dat"
        else:
            path = f"/dir{directory:02d}/c{client}-f{written:05d}.dat"
        written += 1
        now = calls(now, "write", path, size)
        if fate == "keep":
            continue
        # Files die young: the follow-up lands between other sessions of
        # the same client (per-client replay is sorted by timestamp).
        when = now + min(shape.follow_delay, shape.span - now) * rng.uniform(0.3, 0.9)
        if when <= now:
            continue
        if fate == "delete":
            emit(when, "unlink", path)
        else:
            emit(when, "truncate", path, 0, 0)
            calls(when + gap, "write", path, size)
    return records


def trace_records(shape: TraceShape, seed: str) -> List[Record]:
    """Every client's records merged in time order."""
    population = _Population(shape)
    records: List[Record] = []
    for client in range(shape.clients):
        records.extend(_client_records(shape, population, seed, client))
    records.sort(key=lambda r: (r[0], r[1], r[2]))
    return records


def _save(path: Path, header: str, lines: List[str]) -> str:
    """Write an input file; returns the sha256 of its bytes."""
    text = "\n".join([header] + lines) + "\n"
    path.write_text(text, encoding="utf-8", newline="\n")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_trace(shape: TraceShape, seed: str, path: Path) -> InputInfo:
    """Generate the trace for ``(shape, seed)`` and write it to ``path``."""
    records = trace_records(shape, seed)
    digest = _save(path, TRACE_HEADER, [
        f"{when:.6f}\t{client}\t{op}\t{file}\t{offset}\t{size}\t"
        for when, client, _seq, op, file, offset, size in records
    ])
    read_bytes = sum(r[6] for r in records if r[3] == "read")
    write_bytes = sum(r[6] for r in records if r[3] == "write")
    return InputInfo(str(path), digest, len(records), read_bytes, write_bytes, records[-1][0])


# --------------------------------------------------------------------------- NFS op script


@dataclass(frozen=True)
class ScriptShape:
    """Shape of the closed-loop NFS call mix for ``pfs_online``."""

    name: str = "pfs_online"
    calls: int = 2400
    dirs: int = 4
    #: files created (and filled) before the timed calls start.
    files: int = 160
    hot_files: int = 40
    hot_share: float = 0.8
    min_io: int = 4 * KB
    max_io: int = 64 * KB
    max_file: int = 256 * KB
    write_share: float = 0.45
    read_share: float = 0.40
    attr_share: float = 0.10
    #: the rest is CREATE / REMOVE / RENAME.
    sync_every: int = 300

    def scaled(self, factor: float) -> "ScriptShape":
        calls = max(int(round(self.calls * factor)), 40)
        return replace(self, calls=calls, files=max(int(self.files * max(factor, 0.25)), 12),
                       hot_files=max(int(self.hot_files * max(factor, 0.25)), 4),
                       sync_every=max(min(self.sync_every, calls // 3), 10))


PFS_ONLINE = ScriptShape()

#: every workload's input shape, by workload name.
SHAPES = {**TRACE_SHAPES, PFS_ONLINE.name: PFS_ONLINE}

ScriptOp = Tuple[str, ...]


def script_ops(shape: ScriptShape, seed: str) -> Iterator[ScriptOp]:
    """The op script, one tuple per line of the script file.

    ``prefill`` lines populate the file server before timing starts; every
    later line is one NFS call, except ``sync`` (a ``PegasusFileSystem.sync``
    between calls).  The generator keeps its own model of names and sizes so
    every call is valid: no op in the script is expected to fail.
    """
    rng = random.Random(f"{shape.name}:{seed}")
    sizes: Dict[str, int] = {}
    names: List[str] = []
    for index in range(shape.files):
        name = f"d{index % shape.dirs}/f{index:04d}"
        size = rng.randrange(shape.min_io, shape.max_io + 1)
        names.append(name)
        sizes[name] = size
        yield ("prefill", name, "0", str(size), str(rng.getrandbits(32)))
    hot = names[: shape.hot_files]
    scratch: List[str] = []  # files made by CREATE; only these are removed/renamed
    created = 0
    kinds = _deck(
        rng, shape.calls,
        [("write", shape.write_share), ("read", shape.read_share),
         ("attr", shape.attr_share), ("name", 1.0)],
    )

    def pick() -> str:
        if rng.random() < shape.hot_share:
            return hot[rng.randrange(len(hot))]
        return names[rng.randrange(len(names))]

    for index, kind in enumerate(kinds, start=1):
        if kind == "write":
            name = pick()
            length = rng.randrange(shape.min_io, shape.max_io + 1)
            offset = rng.randrange(0, min(sizes[name], shape.max_file - length) + 1)
            sizes[name] = max(sizes[name], offset + length)
            yield ("write", name, str(offset), str(length), str(rng.getrandbits(32)))
        elif kind == "read":
            name = pick()
            length = min(rng.randrange(shape.min_io, shape.max_io + 1), sizes[name])
            offset = rng.randrange(0, sizes[name] - length + 1)
            yield ("read", name, str(offset), str(length))
        elif kind == "attr":
            yield ("getattr" if rng.random() < 0.5 else "lookup", pick())
        else:
            roll = rng.random()
            if roll < 0.4 or not scratch:
                name = f"d{rng.randrange(shape.dirs)}/n{created:05d}"
                created += 1
                scratch.append(name)
                sizes[name] = 0
                yield ("create", name)
            elif roll < 0.7:
                name = scratch.pop(rng.randrange(len(scratch)))
                del sizes[name]
                yield ("remove", name)
            else:
                slot = rng.randrange(len(scratch))
                old = scratch[slot]
                new = f"d{rng.randrange(shape.dirs)}/r{created:05d}"
                created += 1
                scratch[slot] = new
                sizes[new] = sizes.pop(old)
                yield ("rename", old, new)
        if index % shape.sync_every == shape.sync_every // 2:
            yield ("sync",)


def write_script(shape: ScriptShape, seed: str, path: Path) -> InputInfo:
    ops = list(script_ops(shape, seed))
    digest = _save(path, SCRIPT_HEADER, ["\t".join(op) for op in ops])
    calls = [op for op in ops if op[0] not in ("prefill", "sync")]
    read_bytes = sum(int(op[3]) for op in calls if op[0] == "read")
    write_bytes = sum(int(op[3]) for op in calls if op[0] == "write")
    return InputInfo(str(path), digest, len(calls), read_bytes, write_bytes, 0.0)


def read_script(path: Path) -> List[ScriptOp]:
    with open(path, "r", encoding="utf-8") as stream:
        return [tuple(line.rstrip("\n").split("\t")) for line in stream if not line.startswith("#")]


def payload(token: str, length: int) -> bytes:
    """The bytes a ``write``/``prefill`` line stores: a function of its token."""
    return random.Random(int(token)).randbytes(length)


def script_as_trace(script: Path, path: Path) -> InputInfo:
    """An op script (pre-fill included) as a one-client, zero-think-time
    ``repro-trace v1`` file — the same closed loop for the simulator."""
    lines: List[str] = []
    read_bytes = write_bytes = 0
    for op in read_script(script):
        kind = op[0]
        name = "/" + op[1] if len(op) > 1 else "/"
        if kind in ("prefill", "write"):
            record = ("write", name, op[2], op[3], "")
            write_bytes += int(op[3]) if kind == "write" else 0
        elif kind == "read":
            record = ("read", name, op[2], op[3], "")
            read_bytes += int(op[3])
        elif kind in ("getattr", "lookup"):
            record = ("stat", name, "0", "0", "")
        elif kind == "create":
            record = ("write", name, "0", "0", "")
        elif kind == "remove":
            record = ("unlink", name, "0", "0", "")
        elif kind == "rename":
            record = ("rename", name, "0", "0", "/" + op[2])
        else:
            record = ("fsync", "/", "0", "0", "")
        lines.append("0.000000\t0\t" + "\t".join(record))
    digest = _save(path, TRACE_HEADER, lines)
    return InputInfo(str(path), digest, len(lines), read_bytes, write_bytes, 0.0)
