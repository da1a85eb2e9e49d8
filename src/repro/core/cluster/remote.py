"""``RemoteVolume``: a volume whose block I/O crosses the network.

The storage layouts only ever talk to the :class:`~repro.core.storage.volume.Volume`
protocol, so putting a volume on another machine is one wrapper: every read
sends a request out of the front end's NIC and returns the data out of the
serving node's NIC; every write pushes the data out of the front end's NIC
and returns an acknowledgement.  Each crossing queues on the sending NIC
(bandwidth + per-message overhead) and then pays the propagation latency —
the same charged-time discipline the SCSI buses use, so network contention
surfaces in the measured latencies exactly like bus contention does.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional

from repro.core.cluster.network import Nic
from repro.core.scheduler import Scheduler
from repro.core.storage.volume import LocalVolume, Volume

__all__ = ["RemoteVolume"]


class RemoteVolume(Volume):
    """A volume served by another node over simulated network links.

    Parameters
    ----------
    backing:
        The serving node's local volume (holds the disks and queues).
    scheduler / node / nics:
        ``node`` is the volume's owner and ``nics`` the per-node interfaces.
        Each access resolves the *accessor's* node from the scheduler's
        current thread — an access from the owner node (its flush daemon or
        cleaner) goes straight to the backing volume, while a foreign access
        crosses the accessor's NIC out and the owner's NIC back.
    request_bytes:
        Size of a request/acknowledgement header message.
    """

    def __init__(
        self,
        backing: LocalVolume,
        scheduler: Scheduler,
        node: int,
        nics: List[Nic],
        request_bytes: int = 128,
    ):
        self.backing = backing
        self.request_bytes = request_bytes
        self.node = node
        self._scheduler = scheduler
        self._nics = nics
        self.block_size = backing.block_size
        self.remote_reads = 0
        self.remote_writes = 0
        self.local_io = 0
        self.bytes_over_wire = 0

    def _route(self) -> Optional[tuple[Nic, Nic]]:
        """(outbound NIC, return NIC) for this access, or None if node-local."""
        current = self._scheduler.current_thread
        accessor = current.node if current is not None else 0
        if accessor == self.node:
            return None
        nics = self._nics
        return nics[accessor], nics[self.node]

    # -- shape (delegated) -------------------------------------------------------

    @property
    def total_blocks(self) -> int:
        return self.backing.total_blocks

    @property
    def num_disks(self) -> int:
        return self.backing.num_disks

    @property
    def drivers(self):
        return self.backing.drivers

    @property
    def sectors_per_block(self) -> int:
        return self.backing.sectors_per_block

    def disk_of(self, block_addr: int) -> int:
        return self.backing.disk_of(block_addr)

    def blocks_on_disk(self, disk_index: int) -> range:
        return self.backing.blocks_on_disk(disk_index)

    # -- I/O ---------------------------------------------------------------------

    def read_run(self, block_addr: int, nblocks: int = 1) -> Generator[Any, Any, Optional[bytes]]:
        """Request out of the accessor's NIC, data back out of the owner's."""
        route = self._route()
        if route is None:
            self.local_io += 1
            return (yield from self.backing.read_run(block_addr, nblocks))
        out_nic, back_nic = route
        yield from out_nic.send(self.request_bytes)
        data = yield from self.backing.read_run(block_addr, nblocks)
        payload = nblocks * self.block_size
        yield from back_nic.send(payload)
        self.remote_reads += 1
        self.bytes_over_wire += self.request_bytes + payload
        return data

    def write_run(
        self, block_addr: int, nblocks: int, data: Optional[bytes]
    ) -> Generator[Any, Any, None]:
        """Data out of the accessor's NIC, acknowledgement back over the owner's."""
        route = self._route()
        if route is None:
            self.local_io += 1
            yield from self.backing.write_run(block_addr, nblocks, data)
            return
        out_nic, back_nic = route
        payload = nblocks * self.block_size
        yield from out_nic.send(self.request_bytes + payload)
        yield from self.backing.write_run(block_addr, nblocks, data)
        yield from back_nic.send(self.request_bytes)
        self.remote_writes += 1
        self.bytes_over_wire += 2 * self.request_bytes + payload

    def flush(self) -> Generator[Any, Any, None]:
        """One control round trip, then drain the remote disk queues."""
        route = self._route()
        if route is None:
            self.local_io += 1
            yield from self.backing.flush()
            return
        out_nic, back_nic = route
        yield from out_nic.send(self.request_bytes)
        yield from self.backing.flush()
        yield from back_nic.send(self.request_bytes)
        self.bytes_over_wire += 2 * self.request_bytes

    def snapshot(self) -> dict:
        return {
            "remote_reads": self.remote_reads,
            "remote_writes": self.remote_writes,
            "local_io": self.local_io,
            "bytes_over_wire": self.bytes_over_wire,
        }

    def __repr__(self) -> str:
        return (
            f"RemoteVolume(backing={self.backing!r}, "
            f"reads={self.remote_reads}, writes={self.remote_writes})"
        )
