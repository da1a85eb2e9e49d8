"""Simulated disk drivers.

"Simulated disks are accessed through simulation disk-drivers.  These
disk-drivers provide the same functions as their real counterparts, but also
provide mechanisms to simulate the sending and receiving of operations from
disk.  The simulated disk-drivers have exactly the same interface as a real
disk-driver: the differences are in the internal implementation."

The driver packages the operation in the shared I/O-request structure,
acquires the host/disk connection to send the command (and, for writes, the
data), hands the request to the simulated disk and waits for the disk to
signal completion.  The disk re-acquires the connection itself to return
read data, modelling SCSI disconnect/reconnect.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.core.driver import DiskDriver, IOKind, IORequest
from repro.core.iosched import IoScheduler
from repro.core.scheduler import Event, Scheduler
from repro.patsy.bus import ScsiBus
from repro.patsy.simdisk import SimulatedDisk

__all__ = ["SimulatedDiskDriver"]

#: size of a SCSI command descriptor block, for charging command transfer time.
COMMAND_BYTES = 32


class SimulatedDiskDriver(DiskDriver):
    """A disk driver whose back-end is a :class:`SimulatedDisk`."""

    def __init__(
        self,
        scheduler: Scheduler,
        disk: SimulatedDisk,
        bus: Optional[ScsiBus] = None,
        name: str = "sim-disk0",
        io_scheduler: Optional[IoScheduler] = None,
        node: int = 0,
    ):
        self.disk = disk
        self.bus = bus if bus is not None else disk.bus
        self._disk_done_name = f"{name}-disk-done"
        super().__init__(
            scheduler,
            name=name,
            io_scheduler=io_scheduler,
            num_sectors=disk.num_sectors,
            sector_size=disk.spec.sector_size,
            node=node,
        )

    def _perform(self, request: IORequest) -> Generator[Any, Any, None]:
        # Send the command (and write data) over the shared connection, then
        # disconnect while the disk works.
        command_bytes = COMMAND_BYTES
        if request.kind is IOKind.WRITE:
            command_bytes += request.nbytes
        yield from self.bus.transfer(command_bytes)
        completion = Event(self.scheduler, self._disk_done_name)
        self.disk.submit(request, completion)
        yield from completion.wait()
