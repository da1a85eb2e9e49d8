"""Device drivers: the framework's abstract disk interface.

"Real disks are accessed through disk-drivers.  Disk-drivers implement one
or more disk queues and send new operations to disks whenever they are
ready to service new requests." (Section 3)

The base class below owns a combined read/write queue ordered by a pluggable
:class:`~repro.core.iosched.IoScheduler` and a service thread that feeds one
request at a time to the underlying device.  The *real* driver
(:class:`repro.pfs.diskfile.FileBackedDiskDriver`) performs the operation on
a Unix file; the *simulated* driver
(:class:`repro.patsy.simdriver.SimulatedDiskDriver`) packages the operation
into an I/O-request, acquires the host/disk connection and hands it to a
simulated disk.  "The simulated disk-drivers have exactly the same interface
as a real disk-driver: the differences are in the internal implementation.
The system itself does not know it is communicating with a 'fake' disk."
"""

from __future__ import annotations

import enum
import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from repro.assembly.registry import registry
from repro.core.iosched import IoScheduler
from repro.core.scheduler import Event, Scheduler
from repro.errors import DiskAddressError, DiskError
from repro.units import SECTOR_SIZE

__all__ = ["IOKind", "IORequest", "DiskDriver", "DriverStatistics"]


class IOKind(enum.Enum):
    READ = "read"
    WRITE = "write"


@dataclass
class IORequest:
    """One disk operation, with the timing information needed for analysis.

    The simulated and real drivers use the same structure — it "contains all
    the relevant information for the disk simulator to simulate a disk read
    or write and contains timing information to measure the performance of
    the I/O operation".
    """

    kind: IOKind
    sector: int
    count: int
    #: payload for writes / destination buffer for reads (real systems only).
    data: Optional[bytearray] = None
    #: optional real-time deadline (scan-EDF).
    deadline: Optional[float] = None
    request_id: int = field(default_factory=itertools.count(1).__next__)
    # -- timing ---------------------------------------------------------------
    created_at: float = 0.0
    dispatched_at: float = 0.0
    completed_at: float = 0.0
    #: rotational latency incurred (filled in by the disk model).
    rotational_delay: float = 0.0
    #: seek time incurred (filled in by the disk model).
    seek_time: float = 0.0
    #: whether the disk serviced this request from its internal cache.
    disk_cache_hit: bool = False
    #: completion event signalled by the driver.
    done: Optional[Event] = None

    @property
    def nbytes(self) -> int:
        return self.count * SECTOR_SIZE

    @property
    def service_time(self) -> float:
        return max(self.completed_at - self.dispatched_at, 0.0)

    @property
    def response_time(self) -> float:
        return max(self.completed_at - self.created_at, 0.0)

    def __repr__(self) -> str:
        return (
            f"IORequest(#{self.request_id} {self.kind.value} sector={self.sector} "
            f"count={self.count})"
        )


@dataclass
class DriverStatistics:
    """Counters collected by every driver.

    Memory is constant in the number of requests: ``queue_lengths`` counts
    arrivals per queue length seen (the disk-queue plug-in's histogram), so
    it grows with the deepest queue, never with the request count.
    """

    reads: int = 0
    writes: int = 0
    sectors_read: int = 0
    sectors_written: int = 0
    queue_lengths: dict[int, int] = field(default_factory=dict)
    #: total time the device spent servicing requests.
    busy_time: float = 0.0
    #: summed response times (queueing + service) of completed requests.
    response_time_total: float = 0.0

    def record_submit(self, queue_length: int) -> None:
        self.queue_lengths[queue_length] = self.queue_lengths.get(queue_length, 0) + 1

    def record_completion(self, request: IORequest) -> None:
        if request.kind is IOKind.READ:
            self.reads += 1
            self.sectors_read += request.count
        else:
            self.writes += 1
            self.sectors_written += request.count
        self.busy_time += request.service_time
        self.response_time_total += request.response_time

    @property
    def operations(self) -> int:
        return self.reads + self.writes

    def mean_queue_length(self) -> float:
        arrivals = sum(self.queue_lengths.values())
        if not arrivals:
            return 0.0
        return sum(length * n for length, n in self.queue_lengths.items()) / arrivals

    def mean_response_time(self) -> float:
        if not self.operations:
            return 0.0
        return self.response_time_total / self.operations

    def utilisation(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` seconds the device was busy."""
        if elapsed <= 0:
            return 0.0
        return min(self.busy_time / elapsed, 1.0)


class DiskDriver(ABC):
    """Base disk driver: queueing, scheduling and completion plumbing.

    Derived classes implement :meth:`_perform`, which carries out one request
    on the underlying device (real file or simulated disk) and returns when
    it has completed.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        name: str = "disk0",
        io_scheduler: Optional[IoScheduler] = None,
        num_sectors: int = 2_000_000,
        sector_size: int = SECTOR_SIZE,
        node: int = 0,
    ):
        if num_sectors <= 0:
            raise DiskError("disk must have a positive number of sectors")
        self.scheduler = scheduler
        self._now = scheduler.clock.now
        self.name = name
        self.node = node
        self.queue = io_scheduler if io_scheduler is not None else registry.create("iosched", "clook")
        self.num_sectors = num_sectors
        self.sector_size = sector_size
        self.stats = DriverStatistics()
        self._io_event_name = f"{name}-io"
        self._head_position = 0
        self._in_flight = 0
        self._work = scheduler.new_event(f"{name}-driver-work")
        self._idle = scheduler.new_event(f"{name}-driver-idle")
        self._service_thread = scheduler.spawn(
            self._service_loop, name=f"{name}-driver", daemon=True, node=node
        )

    # -- public interface ------------------------------------------------------

    @property
    def capacity_bytes(self) -> int:
        return self.num_sectors * self.sector_size

    @property
    def queue_length(self) -> int:
        return len(self.queue)

    def read(self, sector: int, count: int) -> Generator[Any, Any, IORequest]:
        """Read ``count`` sectors starting at ``sector``; returns the
        completed request (whose ``data`` holds the bytes for real drivers)."""
        request = self._new_request(IOKind.READ, sector, count, data=None)
        yield from self.submit(request)
        return request

    def write(
        self, sector: int, count: int, data: Optional[bytes] = None
    ) -> Generator[Any, Any, IORequest]:
        """Write ``count`` sectors starting at ``sector``."""
        buffer = bytearray(data) if data is not None else None
        request = self._new_request(IOKind.WRITE, sector, count, data=buffer)
        yield from self.submit(request)
        return request

    def submit(self, request: IORequest) -> Generator[Any, Any, IORequest]:
        """Queue a request and wait for its completion."""
        self._check_bounds(request)
        request.created_at = self._now()
        request.done = done = Event(self.scheduler, self._io_event_name)
        self.stats.record_submit(len(self.queue))
        self.queue.add(request)
        self._work.signal()
        yield from done.wait()
        return request

    @property
    def outstanding(self) -> int:
        """Requests queued or in service."""
        return len(self.queue) + self._in_flight

    def flush(self) -> Generator[Any, Any, None]:
        """Wait until the queue drains and in-flight work completes."""
        while self.outstanding > 0:
            yield from self._idle.wait()

    # -- service loop -------------------------------------------------------------

    def _service_loop(self) -> Generator[Any, Any, None]:
        now, queue, stats, perform = self._now, self.queue, self.stats, self._perform
        while True:
            request = queue.next(self._head_position)
            if request is None:
                yield from self._work.wait()
                continue
            request.dispatched_at = now()
            self._in_flight += 1
            try:
                yield from perform(request)
            finally:
                self._in_flight -= 1
            request.completed_at = now()
            self._head_position = request.sector + request.count
            stats.record_completion(request)
            request.done.signal(request)
            if self.outstanding == 0:
                self._idle.signal()

    # -- to be provided by derived drivers ------------------------------------------

    @abstractmethod
    def _perform(self, request: IORequest) -> Generator[Any, Any, None]:
        """Carry out ``request`` on the device; return when complete."""

    # -- helpers ----------------------------------------------------------------------

    def _new_request(
        self, kind: IOKind, sector: int, count: int, data: Optional[bytearray]
    ) -> IORequest:
        if count <= 0:
            raise DiskError(f"I/O request must cover at least one sector (got {count})")
        return IORequest(kind=kind, sector=sector, count=count, data=data)

    def _check_bounds(self, request: IORequest) -> None:
        if request.sector < 0 or request.sector + request.count > self.num_sectors:
            raise DiskAddressError(
                f"request {request!r} outside disk {self.name!r} "
                f"({self.num_sectors} sectors)"
            )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, queued={len(self.queue)})"
