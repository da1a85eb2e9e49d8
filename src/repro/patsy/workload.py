"""Probabilistic workload generation.

"We are also considering a component that can be used to hand craft work
loads using probabilistic means.  This component will, given some inputs,
generate a work load and dispatch it to the simulator."  This module is that
component: a :class:`WorkloadProfile` describes a workload statistically and
:class:`SyntheticWorkloadGenerator` turns it into an ordinary trace
(:class:`~repro.patsy.traces.TraceRecord` list) that the simulator replays.

The generator reproduces the qualitative properties of Unix file-system
traffic that the paper's experiments rely on (Baker et al. '91, Ousterhout
'85, Ruemmler & Wilkes '93):

* most files are small and short-lived; a few are large,
* write traffic has a high overwrite factor early in a file's lifetime —
  files are frequently truncated, rewritten or deleted shortly after being
  written, which is exactly what makes "write saving" policies pay off,
* activity is bursty: sessions (open ... close) arrive with exponential
  think times, and several clients act in parallel.

Beyond the paper's trace stand-ins, ``access_pattern`` selects how read
sessions pick files, which is what the replacement-policy ablations key on:

* ``"hotset"`` — a small hot subset absorbs most reads (the default, and
  the skew the paper's Sprite traces exhibit),
* ``"zipf"``   — file popularity follows a Zipf law with ``zipf_alpha``,
* ``"scan"``   — hot-set reads interleaved with sequential one-shot sweeps
  over the whole file population (the LRU-killing pattern that
  scan-resistant policies such as ARC are built for),
* ``"loop"``   — reads cycle over the file population in order (the LRU
  worst case: with a loop slightly larger than the cache, LRU hits never).

Generation is fully deterministic: per-client RNGs are seeded from the
profile name via CRC-32, never via :func:`hash`, so a trace does not change
with ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import bisect
import math
import random
import zlib
from dataclasses import dataclass, replace
from typing import Iterable, List

from repro.errors import ConfigurationError
from repro.patsy.traces import TraceRecord
from repro.units import KB

__all__ = [
    "ACCESS_PATTERNS",
    "WorkloadProfile",
    "SyntheticWorkloadGenerator",
    "generate_workload",
]

#: recognised read-access patterns.
ACCESS_PATTERNS = ("hotset", "zipf", "scan", "loop")


@dataclass(frozen=True)
class WorkloadProfile:
    """Statistical description of a workload."""

    name: str = "default"
    #: length of the generated trace in (simulated) seconds.
    duration: float = 600.0
    #: number of concurrently active client streams.
    num_clients: int = 6
    #: mean think time between sessions of one client (exponential).
    mean_think_time: float = 2.0
    #: directories the files are spread over.
    directory_count: int = 8
    #: number of files that "exist" before the trace starts.
    initial_files: int = 60
    #: fraction of sessions that only read.
    read_fraction: float = 0.45
    #: probability that a session is preceded by a stat burst.
    stat_fraction: float = 0.35
    #: number of stat calls in such a burst.
    stat_burst: int = 3
    #: typical (small) file size in bytes.
    mean_file_size: int = 16 * KB
    #: fraction of written files that are large.
    large_file_fraction: float = 0.06
    #: size of large files in bytes.
    large_file_size: int = 512 * KB
    #: bytes moved per individual read/write call.
    io_unit: int = 8 * KB
    #: mean gap between calls inside a session (seconds).
    intra_op_gap: float = 0.05
    #: probability that a freshly written file is rewritten shortly after.
    overwrite_fraction: float = 0.45
    #: probability that a freshly written file is deleted shortly after.
    delete_fraction: float = 0.35
    #: mean delay before the overwrite/delete happens (seconds).
    rewrite_delay: float = 12.0
    #: fraction of read sessions directed at a small "hot" subset of files.
    hot_read_fraction: float = 0.7
    #: size of the hot subset.
    hot_set_size: int = 12
    #: how read sessions pick files: "hotset", "zipf", "scan" or "loop".
    access_pattern: str = "hotset"
    #: Zipf exponent for the "zipf" access pattern.
    zipf_alpha: float = 0.9

    def __post_init__(self) -> None:
        if self.duration <= 0 or self.num_clients <= 0:
            raise ConfigurationError("workload duration and client count must be positive")
        if not (0.0 <= self.read_fraction <= 1.0):
            raise ConfigurationError("read_fraction must be in [0, 1]")
        if self.io_unit <= 0 or self.mean_file_size <= 0:
            raise ConfigurationError("file and I/O sizes must be positive")
        if self.access_pattern not in ACCESS_PATTERNS:
            raise ConfigurationError(
                f"unknown access pattern {self.access_pattern!r}; choose from {ACCESS_PATTERNS}"
            )
        if self.zipf_alpha <= 0:
            raise ConfigurationError("zipf_alpha must be positive")

    def scaled(self, scale: float) -> "WorkloadProfile":
        """Scale the trace duration (and with it the operation count)."""
        if scale <= 0:
            raise ConfigurationError("scale must be positive")
        return replace(self, duration=self.duration * scale)


class SyntheticWorkloadGenerator:
    """Generates a trace from a :class:`WorkloadProfile`."""

    def __init__(self, profile: WorkloadProfile, seed: int = 0):
        self.profile = profile
        self.seed = seed
        #: size of each file, sampled once when the file is first touched.
        #: Re-reading a file must not re-roll its size: pre-existing files
        #: keep a stable extent, so a stable hot set has a stable footprint.
        self._sizes: dict[str, int] = {}
        self._zipf_cdf: List[float] | None = None
        if profile.access_pattern == "zipf":
            # Cumulative Zipf weights over the pre-existing files; sampled
            # with bisection so each pick is O(log n) and deterministic.
            weights = [
                1.0 / (rank + 1) ** profile.zipf_alpha for rank in range(profile.initial_files)
            ]
            total = 0.0
            cdf: List[float] = []
            for weight in weights:
                total += weight
                cdf.append(total)
            self._zipf_cdf = cdf

    # -- public API ---------------------------------------------------------------

    def generate(self) -> List[TraceRecord]:
        """Generate the full trace, sorted by timestamp."""
        records: List[TraceRecord] = []
        for client in range(self.profile.num_clients):
            records.extend(self._client_stream(client))
        records.sort(key=lambda record: record.timestamp)
        return records

    # -- per-client streams ----------------------------------------------------------

    def _client_stream(self, client: int) -> List[TraceRecord]:
        profile = self.profile
        # CRC-32, not hash(): trace generation must not vary with
        # PYTHONHASHSEED (simulations are replayed and compared by seed).
        name_tag = zlib.crc32(profile.name.encode("utf-8"))
        rng = random.Random((self.seed * 1_000_003) ^ (client * 7919) ^ name_tag)
        records: List[TraceRecord] = []
        # Stagger client start times so sessions do not align artificially.
        now = rng.uniform(0.0, min(profile.mean_think_time, profile.duration / 10.0))
        file_counter = 0
        own_files: list[tuple[str, int]] = []  # (path, size) written by this client
        #: sequential position for the "scan" and "loop" access patterns.
        cursor = [client * max(profile.initial_files // max(profile.num_clients, 1), 1)]
        while now < profile.duration:
            if rng.random() < profile.read_fraction:
                now = self._read_session(rng, client, now, records, cursor)
            else:
                now, created = self._write_session(rng, client, now, records, file_counter)
                file_counter += 1
                if created is not None:
                    own_files.append(created)
                    self._schedule_rewrite_or_delete(rng, client, now, created, records)
            now += rng.expovariate(1.0 / profile.mean_think_time)
        return [record for record in records if record.timestamp <= profile.duration]

    # -- sessions -----------------------------------------------------------------------

    def _read_session(
        self,
        rng: random.Random,
        client: int,
        start: float,
        records: List[TraceRecord],
        cursor: List[int],
    ) -> float:
        profile = self.profile
        path = self._pick_existing_path(rng, cursor)
        now = start
        if rng.random() < profile.stat_fraction:
            for _ in range(profile.stat_burst):
                records.append(TraceRecord(now, client, "stat", path))
                now += rng.expovariate(1.0 / profile.intra_op_gap)
        size = self._size_of(path, rng)
        records.append(TraceRecord(now, client, "open", path))
        now += rng.expovariate(1.0 / profile.intra_op_gap)
        offset = 0
        while offset < size:
            chunk = min(profile.io_unit, size - offset)
            records.append(TraceRecord(now, client, "read", path, offset=offset, size=chunk))
            offset += chunk
            now += rng.expovariate(1.0 / profile.intra_op_gap)
        records.append(TraceRecord(now, client, "close", path))
        return now

    def _write_session(
        self,
        rng: random.Random,
        client: int,
        start: float,
        records: List[TraceRecord],
        file_counter: int,
    ) -> tuple[float, tuple[str, int] | None]:
        profile = self.profile
        fresh = rng.random() >= 0.3
        if not fresh:
            path = self._pick_existing_path(rng, None)
        else:
            directory = rng.randrange(profile.directory_count)
            path = f"/dir{directory:02d}/c{client}-f{file_counter:05d}.dat"
        size = self._pick_file_size(rng)
        self._sizes[path] = size
        now = start
        records.append(TraceRecord(now, client, "open", path))
        now += rng.expovariate(1.0 / profile.intra_op_gap)
        offset = 0
        while offset < size:
            chunk = min(profile.io_unit, size - offset)
            records.append(TraceRecord(now, client, "write", path, offset=offset, size=chunk))
            offset += chunk
            now += rng.expovariate(1.0 / profile.intra_op_gap)
        records.append(TraceRecord(now, client, "close", path))
        # Only freshly created files are candidates for the delete/rewrite
        # follow-up: shared pre-existing files may be rewritten by several
        # clients, and unlinking them would race between clients.
        return now, (path, size) if fresh else None

    def _schedule_rewrite_or_delete(
        self,
        rng: random.Random,
        client: int,
        now: float,
        created: tuple[str, int],
        records: List[TraceRecord],
    ) -> None:
        """Files are overwritten or deleted shortly after being written —
        the "high overwrite factor in the first part of a file's lifetime"."""
        profile = self.profile
        path, size = created
        roll = rng.random()
        when = now + rng.expovariate(1.0 / profile.rewrite_delay)
        if when >= profile.duration:
            return
        if roll < profile.delete_fraction:
            records.append(TraceRecord(when, client, "unlink", path))
        elif roll < profile.delete_fraction + profile.overwrite_fraction:
            records.append(TraceRecord(when, client, "truncate", path, size=0))
            when += rng.expovariate(1.0 / profile.intra_op_gap)
            records.append(TraceRecord(when, client, "open", path))
            when += rng.expovariate(1.0 / profile.intra_op_gap)
            offset = 0
            while offset < size and when < profile.duration:
                chunk = min(profile.io_unit, size - offset)
                records.append(TraceRecord(when, client, "write", path, offset=offset, size=chunk))
                offset += chunk
                when += rng.expovariate(1.0 / profile.intra_op_gap)
            records.append(TraceRecord(when, client, "close", path))

    # -- helpers ---------------------------------------------------------------------------

    def _pick_existing_path(self, rng: random.Random, cursor: List[int] | None) -> str:
        """Pick a pre-existing file according to the profile's access pattern.

        ``cursor`` carries the client's sequential position for the "scan"
        and "loop" patterns; write sessions reuse existing files without a
        cursor and fall back to the random patterns.
        """
        profile = self.profile
        pattern = profile.access_pattern
        population = profile.initial_files
        if pattern == "loop" and cursor is not None:
            index = cursor[0] % population
            cursor[0] += 1
        elif pattern == "scan" and cursor is not None:
            if rng.random() < profile.hot_read_fraction:
                index = rng.randrange(min(profile.hot_set_size, population))
            else:
                # A one-shot sequential sweep position polluting the cache.
                index = cursor[0] % population
                cursor[0] += 1
        elif pattern == "zipf" and self._zipf_cdf is not None:
            point = rng.random() * self._zipf_cdf[-1]
            index = min(bisect.bisect_left(self._zipf_cdf, point), population - 1)
        elif rng.random() < profile.hot_read_fraction:
            index = rng.randrange(min(profile.hot_set_size, population))
        else:
            index = rng.randrange(population)
        directory = index % profile.directory_count
        return f"/dir{directory:02d}/existing-{index:04d}.dat"

    def _size_of(self, path: str, rng: random.Random) -> int:
        """The file's stable size, sampled on first touch."""
        size = self._sizes.get(path)
        if size is None:
            size = self._sizes[path] = self._pick_file_size(rng)
        return size

    def _pick_file_size(self, rng: random.Random) -> int:
        profile = self.profile
        if rng.random() < profile.large_file_fraction:
            return profile.large_file_size
        # Log-normal-ish small file sizes with the configured mean.
        size = rng.lognormvariate(math.log(max(profile.mean_file_size, 1)), 0.6)
        return max(int(size), 512)


def generate_workload(profile: WorkloadProfile, seed: int = 0) -> List[TraceRecord]:
    """Convenience wrapper: generate a trace from a profile."""
    return SyntheticWorkloadGenerator(profile, seed=seed).generate()
