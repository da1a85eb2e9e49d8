"""The simulated disk: a detailed mechanical + cache model of one drive.

"The disk component in the simulator acts as a representative for a real
disk.  A simulated disk component knows about heads, tracks, sectors,
rotational speed, controller overhead and it may implement disk cache
policies.  Internally, a disk is modeled by a separate thread of control
that waits for work to arrive from external sources."

For every request the controller thread charges: fixed controller overhead,
a seek (two-piece seek curve), a head switch if needed, the rotational delay
to reach the first sector, and the media transfer time.  The on-disk cache
provides *immediate reported writes* (a write completes once its data is in
the disk cache; the media write is charged before the next request is
serviced) and sequential *read-ahead* (after an idle read the next 4 KB is
assumed to be in the cache).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from repro.core.driver import IOKind, IORequest
from repro.core.scheduler import Delay, Event, Scheduler
from repro.core.sync import Channel
from repro.patsy.bus import ScsiBus
from repro.patsy.diskspec import DiskSpec
from repro.patsy.stats import Histogram
from repro.units import SECTOR_SIZE

__all__ = ["SimulatedDisk", "DiskStatistics"]

READ = IOKind.READ


@dataclass
class DiskStatistics:
    """Per-disk counters collected by the model."""

    requests: int = 0
    reads: int = 0
    writes: int = 0
    cache_read_hits: int = 0
    immediate_writes: int = 0
    seeks: int = 0
    total_seek_time: float = 0.0
    total_rotational_delay: float = 0.0
    total_transfer_time: float = 0.0
    busy_time: float = 0.0
    #: rotational delays, bucketed for the rotational-delay plug-in.
    rotation: Histogram = field(default_factory=Histogram)

    def mean_rotational_delay(self) -> float:
        if not self.seeks:
            return 0.0
        return self.total_rotational_delay / self.seeks


class SimulatedDisk:
    """One simulated disk drive, driven by its own controller thread."""

    def __init__(
        self,
        scheduler: Scheduler,
        spec: DiskSpec,
        bus: ScsiBus,
        name: str = "disk0",
        node: int = 0,
    ):
        self.scheduler = scheduler
        self.spec = spec
        self.bus = bus
        self.name = name
        self.node = node
        self.stats = DiskStatistics(rotation=Histogram(high=spec.rotation_time, buckets=15))
        self._work: Channel = Channel(scheduler, name=f"{name}-work")
        self._current_cylinder = 0
        self._current_head = 0
        #: cached sector range [start, end) held in the on-disk cache.
        self._cached_range: Optional[tuple[int, int]] = None
        #: media time / bytes owed for immediate-reported writes not yet destaged.
        self._pending_destage_time = 0.0
        self._pending_destage_bytes = 0
        #: when the disk last finished servicing a request (idle time since
        #: then is spent destaging the write cache in the background).
        self._idle_since = 0.0
        self.cache_sectors = spec.cache_bytes // spec.sector_size
        self.read_ahead_sectors = spec.read_ahead_bytes // spec.sector_size
        self._now = scheduler.clock.now
        self._overhead = Delay(spec.controller_overhead)  # one command, reused
        self._thread = scheduler.spawn(
            self._controller, name=f"{name}-controller", daemon=True, node=node
        )

    # -- geometry ------------------------------------------------------------------

    @property
    def num_sectors(self) -> int:
        return self.spec.num_sectors

    # -- interface used by the simulated disk driver ------------------------------------

    def submit(self, request: IORequest, completion: Event) -> None:
        """Queue a request for the controller thread; ``completion`` is
        signalled when the disk has finished (including the bus transfer of
        read data back to the host)."""
        self._work.put((request, completion))

    # -- the controller thread --------------------------------------------------------------

    def _controller(self) -> Generator[Any, Any, None]:
        now, stats, get = self._now, self.stats, self._work.get
        while True:
            request, completion = yield from get()
            started = now()
            self._credit_idle_time(started)
            stats.requests += 1
            # Controller/command decode overhead.
            yield self._overhead
            if request.kind is READ:
                yield from self._service_read(request)
            else:
                yield from self._service_write(request)
            finished = self._idle_since = now()
            stats.busy_time += finished - started
            completion.signal(request)

    def _credit_idle_time(self, now: float) -> None:
        """Idle time since the last request is spent destaging the write cache."""
        idle = max(now - self._idle_since, 0.0)
        if idle <= 0.0 or self._pending_destage_time <= 0.0:
            return
        if idle >= self._pending_destage_time:
            self._pending_destage_time = 0.0
            self._pending_destage_bytes = 0
        else:
            fraction = 1.0 - idle / self._pending_destage_time
            self._pending_destage_time -= idle
            self._pending_destage_bytes = int(self._pending_destage_bytes * fraction)

    def _drain_destage(self) -> Generator[Any, Any, None]:
        """Pay the media time owed by immediate-reported writes."""
        if self._pending_destage_time > 0.0:
            owed = self._pending_destage_time
            self._pending_destage_time = 0.0
            self._pending_destage_bytes = 0
            yield Delay(owed)

    # -- reads ---------------------------------------------------------------------------------

    def _service_read(self, request: IORequest) -> Generator[Any, Any, None]:
        self.stats.reads += 1
        if self._in_cache(request.sector, request.count):
            request.disk_cache_hit = True
            self.stats.cache_read_hits += 1
        else:
            # The media is needed: any write-cache contents are destaged first.
            yield from self._drain_destage()
            yield from self._mechanical(request)
            self._fill_cache(request.sector, request.count, read_ahead=True)
        # Transmit the data back to the host over the connection.
        yield from self.bus.transfer(request.nbytes)
        if request.data is not None:
            # Simulated disks never hold real data; zero-fill for callers
            # that expect a buffer (only happens in mixed test setups).
            request.data[:] = bytes(len(request.data))

    # -- writes ---------------------------------------------------------------------------------

    def _service_write(self, request: IORequest) -> Generator[Any, Any, None]:
        self.stats.writes += 1
        seek_time, rotation, transfer = self._mechanical_parts(request)
        nbytes = request.count * SECTOR_SIZE
        fits_in_cache = self._pending_destage_bytes + nbytes <= self.spec.cache_bytes
        if self.spec.immediate_reported_writes and fits_in_cache:
            # The write is reported complete once the data is in the disk's
            # cache; the media write is owed and destaged in the background
            # (idle time) or before the media is next needed.
            self.stats.immediate_writes += 1
            self._pending_destage_time += seek_time + rotation + transfer
            self._pending_destage_bytes += nbytes
            self._advance_position(request)
        else:
            yield from self._drain_destage()
            yield from self._mechanical(request)
        self._fill_cache(request.sector, request.count, read_ahead=False)

    # -- mechanics ----------------------------------------------------------------------------------

    def _mechanical(self, request: IORequest) -> Generator[Any, Any, None]:
        """Charge seek + head switch + rotation + media transfer."""
        seek_time, rotation, transfer = self._mechanical_parts(request)
        request.seek_time = seek_time
        request.rotational_delay = rotation
        self.stats.seeks += 1
        self.stats.total_seek_time += seek_time
        self.stats.total_rotational_delay += rotation
        self.stats.total_transfer_time += transfer
        self.stats.rotation.add(rotation)
        yield Delay(seek_time + rotation + transfer)
        self._advance_position(request)

    def _mechanical_parts(self, request: IORequest) -> tuple[float, float, float]:
        """Seek (with any head switch), rotational latency to the first
        sector once the seek is done, and media transfer."""
        spec = self.spec
        cylinder, head, sector_in_track = spec.decompose(request.sector)
        distance = abs(cylinder - self._current_cylinder)
        seek_time = spec.seek_time(distance)
        if distance == 0 and head != self._current_head:
            seek_time += spec.head_switch_time
        rotation_time = spec.rotation_time
        rotations = (self._now() + seek_time) / rotation_time
        current_angle = rotations - int(rotations)  # fraction of a revolution
        delta = sector_in_track / spec.sectors_per_track - current_angle
        if delta < 0:
            delta += 1.0
        return seek_time, delta * rotation_time, spec.sector_transfer_time(request.count)

    def _advance_position(self, request: IORequest) -> None:
        last_sector = request.sector + request.count - 1
        self._current_cylinder, self._current_head, _ = self.spec.decompose(
            min(last_sector, self.num_sectors - 1)
        )

    # -- the on-disk cache ---------------------------------------------------------------------------

    def _in_cache(self, sector: int, count: int) -> bool:
        if self._cached_range is None:
            return False
        start, end = self._cached_range
        return start <= sector and sector + count <= end

    def _fill_cache(self, sector: int, count: int, read_ahead: bool) -> None:
        extra = self.read_ahead_sectors if read_ahead else 0
        end = min(sector + count + extra, self.num_sectors)
        # The cache holds the tail of what just streamed past the head.
        self._cached_range = (max(sector, end - self.cache_sectors), end)

    def __repr__(self) -> str:
        return f"SimulatedDisk({self.name!r}, spec={self.spec.name!r})"
