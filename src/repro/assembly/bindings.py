"""Bindings: the helper-component bundles that pick a world for a stack.

In the paper's taxonomy, *helper components* are the pieces the portable
algorithms rest on — the clock, the disk drivers, the data movers.  A
binding packages one consistent choice of helpers:

* :class:`SimulatedBinding` — PATSY's world: a virtual clock, simulated
  SCSI buses and HP 97560-style disks built from the spec's
  :class:`~repro.config.HostConfig`, cache blocks with **no data
  pointers** ("the difference between a simulated cache and a real cache
  is the lack of a data pointer"), and a data mover that only *charges
  time* for copies it never performs.
* :class:`OnlineBinding` — PFS's world: memory- or file-backed drivers
  that move real bytes, cache blocks with real buffers, a data mover that
  really copies, and a virtual clock by default (the same code runs, but
  tests finish instantly) or the wall clock on request.

:func:`~repro.assembly.builder.build_stack` asks the binding for the
scheduler, the drivers and the data mover; everything above the drivers is
assembled identically for both worlds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, List, Optional, Union

from repro.assembly.registry import registry
from repro.assembly.spec import StackSpec
from repro.config import ClusterConfig
from repro.core.clock import RealClock, VirtualClock
from repro.core.datamover import DataMover
from repro.core.scheduler import NodeMergeSchedulingPolicy, Scheduler
from repro.units import MB

__all__ = ["Hardware", "Binding", "SimulatedBinding", "OnlineBinding"]


@dataclass
class Hardware:
    """What a binding builds below the volume layer.

    ``drivers`` always has one entry per disk of the spec's complement;
    ``buses`` and ``disks`` are populated only by the simulated world
    (an on-line machine's buses are not modelled).
    """

    drivers: List[Any]
    buses: List[Any] = field(default_factory=list)
    disks: List[Any] = field(default_factory=list)


class Binding:
    """Base class for helper-component bundles.

    ``simulated`` selects the world: it flows into the layouts (which
    synthesise block contents instead of reading them) and, negated, into
    the cache's ``with_data``.
    """

    simulated: bool = True
    #: whether the client interface materialises files named by a trace
    #: on first touch (trace replay) or insists they really exist (PFS).
    auto_materialize: bool = True

    @property
    def with_data(self) -> bool:
        return not self.simulated

    def make_scheduler(self, seed: int, cluster: ClusterConfig) -> Scheduler:
        raise NotImplementedError

    def _cluster_scheduler(self, clock: Any, seed: int, cluster: ClusterConfig) -> Scheduler:
        """The shared scheduler-selection rule.

        Multi-node stacks run under the deterministic node-merge order
        (lowest node, then arrival stamp), so the interleaving is a pure
        function of the workload.  Single-machine stacks keep the paper's
        seeded random policy, byte-for-byte.
        """
        if cluster.nodes <= 1:
            return Scheduler(clock=clock, seed=seed)
        return Scheduler(clock=clock, seed=seed, policy=NodeMergeSchedulingPolicy())

    def build_hardware(self, spec: StackSpec, scheduler: Scheduler) -> Hardware:
        raise NotImplementedError

    def make_datamover(self) -> DataMover:
        raise NotImplementedError

    def build_network(self, spec: StackSpec, scheduler: Scheduler) -> List[Any]:
        """One NIC per node of a multi-node cluster; a single machine has
        no network.

        Both worlds share this default: the NIC only charges (virtual or
        real) scheduler time, exactly like the data mover.
        """
        nodes = spec.cluster.nodes
        if nodes <= 1:
            return []
        from repro.core.cluster.network import Nic

        return [Nic(scheduler, name=f"nic{node}") for node in range(nodes)]

    def make_metadata_device(self, spec: StackSpec, scheduler: Scheduler) -> Any:
        """The device the durable metadata tier (WAL + manifest) lives on;
        each binding picks its world's back-end."""
        raise NotImplementedError


class SimulatedBinding(Binding):
    """PATSY's helpers: virtual time, simulated buses/disks, no data.

    ``metadata_store`` optionally carries a
    :class:`~repro.core.metadata.device.DurableStore` between stack builds —
    the crash-recovery harness's "journal disk that survives the reboot".
    The store actually used is published back on the binding after
    :meth:`make_metadata_device` runs.
    """

    simulated = True
    auto_materialize = True

    def __init__(self, metadata_store: Optional[Any] = None):
        self.metadata_store = metadata_store

    def make_scheduler(self, seed: int, cluster: ClusterConfig) -> Scheduler:
        return self._cluster_scheduler(VirtualClock(), seed, cluster)

    def make_metadata_device(self, spec: StackSpec, scheduler: Scheduler) -> Any:
        from repro.core.metadata.device import MemoryMetadataDevice

        device = MemoryMetadataDevice(
            scheduler,
            store=self.metadata_store,
            latency=spec.cluster.metadata_latency,
            bandwidth=spec.cluster.metadata_bandwidth,
        )
        self.metadata_store = device.store
        return device

    def build_hardware(self, spec: StackSpec, scheduler: Scheduler) -> Hardware:
        # Imported here so the assembly layer does not hard-depend on the
        # patsy package when only the on-line world is used.
        from repro.patsy.bus import ScsiBus
        from repro.patsy.diskspec import HP97560
        from repro.patsy.simdisk import SimulatedDisk
        from repro.patsy.simdriver import SimulatedDiskDriver

        buses = [ScsiBus(scheduler, name=f"scsi{i}") for i in range(spec.num_buses)]
        disks: List[Any] = []
        drivers: List[Any] = []
        for index in range(spec.num_disks):
            bus = buses[spec.bus_for_disk(index)]
            node = spec.node_of_disk(index)
            disk = SimulatedDisk(scheduler, HP97560, bus, name=f"disk{index}", node=node)
            driver = SimulatedDiskDriver(
                scheduler,
                disk,
                bus,
                name=f"sim-disk{index}",
                io_scheduler=registry.create("iosched", spec.host.io_scheduler),
                node=node,
            )
            disks.append(disk)
            drivers.append(driver)
        return Hardware(drivers=drivers, buses=buses, disks=disks)

    def make_datamover(self) -> DataMover:
        # The simulator cannot perform the buffer copies, so it charges
        # time for them at the host's memory bandwidth.
        return DataMover(charge_time=True)


class OnlineBinding(Binding):
    """PFS's helpers: real bytes on memory- or file-backed drivers.

    Parameters
    ----------
    backing:
        ``None`` for in-memory disks, or the path used as the disk
        back-end.  A single-disk spec uses the bare path (compatible with
        existing images); a multi-disk spec stores disk ``i`` in
        ``<backing>.d<i>`` for *every* disk, so a pre-existing single-disk
        image is never silently adopted as one member of a fresh array.
    size_bytes:
        Total capacity, split evenly over the spec's disk complement.
    real_time:
        Use the wall clock instead of virtual time.
    """

    simulated = False
    auto_materialize = False

    def __init__(
        self,
        backing: Optional[Union[str, Path]] = None,
        size_bytes: int = 64 * MB,
        real_time: bool = False,
        metadata_store: Optional[Any] = None,
    ):
        self.backing = None if backing is None else Path(backing)
        self.size_bytes = size_bytes
        self.real_time = real_time
        #: DurableStore for the metadata tier when running in memory (file
        #: backing persists metadata in real files next to the disk image).
        self.metadata_store = metadata_store

    def make_scheduler(self, seed: int, cluster: ClusterConfig) -> Scheduler:
        clock = RealClock() if self.real_time else VirtualClock()
        return self._cluster_scheduler(clock, seed, cluster)

    def make_metadata_device(self, spec: StackSpec, scheduler: Scheduler) -> Any:
        from repro.core.metadata.device import FileMetadataDevice, MemoryMetadataDevice

        if self.backing is None:
            device = MemoryMetadataDevice(scheduler, store=self.metadata_store)
            self.metadata_store = device.store
            return device
        return FileMetadataDevice(scheduler, Path(f"{self.backing}.meta"))

    def build_hardware(self, spec: StackSpec, scheduler: Scheduler) -> Hardware:
        from repro.pfs.diskfile import FileBackedDiskDriver, MemoryBackedDiskDriver

        num_disks = spec.num_disks
        per_disk = self.size_bytes // num_disks
        drivers: List[Any] = []
        for index in range(num_disks):
            io_scheduler = registry.create("iosched", spec.host.io_scheduler)
            if self.backing is None:
                drivers.append(
                    MemoryBackedDiskDriver(
                        scheduler,
                        size_bytes=per_disk,
                        name=f"memdisk{index}",
                        io_scheduler=io_scheduler,
                    )
                )
            else:
                path = self.backing if num_disks == 1 else Path(f"{self.backing}.d{index}")
                drivers.append(
                    FileBackedDiskDriver(
                        scheduler,
                        path,
                        size_bytes=per_disk,
                        name=f"filedisk{index}",
                        io_scheduler=io_scheduler,
                    )
                )
        return Hardware(drivers=drivers)

    def make_datamover(self) -> DataMover:
        # Real copies happen in real code; virtual time charges nothing.
        return DataMover(charge_time=False)
