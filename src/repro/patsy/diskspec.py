"""Disk drive specifications for the simulated disks.

The paper's experiments use the HP 97560, "equipped with a 128KB internal
cache that can be used for immediate reported writes ... and a read-ahead
policy", modelled after Ruemmler & Wilkes ("An Introduction to Disk Drive
Modeling") and Kotz et al.'s detailed HP 97560 model — the two disk-model
references the paper cites as its fidelity bar.

The numeric parameters below follow those publications: a two-piece seek
curve (square-root for short seeks, linear for long ones), 4002 rpm
rotation, per-operation controller overhead, and an on-disk cache with
immediate-reported writes and read-ahead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from repro.errors import ConfigurationError
from repro.units import KB, SECTOR_SIZE

__all__ = ["DiskSpec", "HP97560", "GENERIC_SMALL_DISK"]


@dataclass(frozen=True)
class DiskSpec:
    """Geometry and timing parameters of one disk model."""

    name: str
    cylinders: int
    heads: int
    sectors_per_track: int
    sector_size: int = SECTOR_SIZE
    rpm: float = 4002.0
    #: seek curve: seek(d) = a_short + b_short * sqrt(d) for d < short_seek_boundary,
    #: a_long + b_long * d otherwise (times in seconds, distance in cylinders).
    short_seek_boundary: int = 383
    seek_a_short: float = 3.24e-3
    seek_b_short: float = 0.400e-3
    seek_a_long: float = 8.00e-3
    seek_b_long: float = 0.008e-3
    head_switch_time: float = 1.0e-3
    controller_overhead: float = 2.2e-3
    #: on-disk cache used for read-ahead and immediate-reported writes.
    cache_bytes: int = 128 * KB
    read_ahead_bytes: int = 4 * KB
    immediate_reported_writes: bool = True

    def __post_init__(self) -> None:
        if self.cylinders <= 0 or self.heads <= 0 or self.sectors_per_track <= 0:
            raise ConfigurationError("disk geometry must be positive")
        if self.rpm <= 0:
            raise ConfigurationError("rpm must be positive")

    # -- derived quantities (worked out on first use: the spec is frozen) ------

    @cached_property
    def rotation_time(self) -> float:
        """Time for one full revolution, seconds."""
        return 60.0 / self.rpm

    @cached_property
    def sectors_per_cylinder(self) -> int:
        return self.heads * self.sectors_per_track

    @cached_property
    def num_sectors(self) -> int:
        return self.cylinders * self.sectors_per_cylinder

    @property
    def capacity_bytes(self) -> int:
        return self.num_sectors * self.sector_size

    def sector_transfer_time(self, count: int = 1) -> float:
        """Media transfer time for ``count`` sectors."""
        return (count / self.sectors_per_track) * self.rotation_time

    def seek_time(self, distance_cylinders: int) -> float:
        """Seek time for a move of ``distance_cylinders`` cylinders."""
        distance = abs(distance_cylinders)
        if distance == 0:
            return 0.0
        if distance < self.short_seek_boundary:
            return self.seek_a_short + self.seek_b_short * math.sqrt(distance)
        return self.seek_a_long + self.seek_b_long * distance

    # -- address decomposition ------------------------------------------------------

    def decompose(self, sector: int) -> tuple[int, int, int]:
        """Split an absolute sector number into (cylinder, head, sector-in-track)."""
        cylinder, remainder = divmod(sector, self.sectors_per_cylinder)
        return (cylinder, *divmod(remainder, self.sectors_per_track))


#: The disk used throughout the paper's experiments (HP 97560: 1962 cylinders,
#: 19 data surfaces, 72 sectors per track, 4002 rpm, ~1.3 GB).
HP97560 = DiskSpec(
    name="hp97560",
    cylinders=1962,
    heads=19,
    sectors_per_track=72,
)

#: A deliberately small disk for fast unit tests (about 36 MB).
GENERIC_SMALL_DISK = DiskSpec(
    name="small-test-disk",
    cylinders=128,
    heads=4,
    sectors_per_track=144,
    cache_bytes=64 * KB,
)
