"""``build_stack``: the one place a storage stack is assembled.

Both instantiations of the framework — the PATSY simulator and the Pegasus
file system — used to hand-assemble their component stacks in their
constructors, and the two copies drifted (PFS never gained the multi-volume
array).  This builder is now the only assembly path: a world-independent
:class:`~repro.assembly.spec.StackSpec` plus a world-picking
:class:`~repro.assembly.bindings.Binding` yields a fully wired
:class:`StorageStack`, and the two front-ends are thin facades over it.

Every stack is an array of volumes: one machine's disks carved into
``spec.array.volumes`` volumes (one by default), each with its own layout,
cache shard and flush daemon behind the routing façades.  A cluster is the
same per-node sub-stack built once per node, with every non-front-end node's
volumes wrapped in a :class:`~repro.core.cluster.remote.RemoteVolume` so
their block I/O crosses the simulated network, and a
:class:`~repro.core.cluster.placement.ClusterPlacement` routing tier on top.

The construction order below is load-bearing: scheduler interactions during
assembly (thread spawns, RNG wiring) must be identical across worlds, and a
one-node cluster must stay byte-identical to the bare array (pinned by
``tests/test_cluster.py`` and the goldens of ``tests/test_golden_schedule.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, List, Optional

from repro.assembly.bindings import Binding, Hardware
from repro.assembly.registry import registry
from repro.assembly.spec import StackSpec
from repro.core.cache import BlockCache
from repro.core.client import AbstractClientInterface
from repro.core.cluster.node import ClusterNode, ClusterTopology
from repro.core.cluster.placement import ClusterPlacement
from repro.core.cluster.rebalance import ClusterRebalancer
from repro.core.cluster.remote import RemoteVolume
from repro.core.datamover import DataMover
from repro.core.filesystem import FileSystem
from repro.core.flush import ShardedFlushPolicy
from repro.core.scheduler import Scheduler
from repro.core.storage.array import (
    PlacementPolicy,
    RoutedLayout,
    ShardedCache,
    VolumeSet,
)
from repro.core.storage.cleaner import CleanerDaemon, CleanerSet
from repro.core.storage.lfs import LogStructuredLayout
from repro.core.storage.volume import LocalVolume, Volume
from repro.errors import ConfigurationError

# Imported for their registry side effects: the built-in layouts register
# themselves under the "layout" kind when their module loads (lfs does so
# via the import above).
import repro.core.storage.ffs  # noqa: E402,F401  (registers "ffs")

__all__ = ["StorageStack", "build_stack"]


@dataclass
class StorageStack:
    """Everything :func:`build_stack` assembled, ready to mount.

    The same shape comes back for both worlds; the only differences are the
    hardware lists (buses/disks are simulator-only) and what the components
    were parameterised with (``with_data``, clocks, data movers).
    """

    spec: StackSpec
    binding: Binding
    scheduler: Scheduler
    #: simulated SCSI buses (empty for the on-line world).
    buses: List[Any]
    #: simulated disk mechanisms (empty for the on-line world).
    disks: List[Any]
    #: one disk driver per disk of the spec's complement.
    drivers: List[Any]
    #: the stack's volumes, in volume order.
    volume: VolumeSet
    #: the router over one sub-layout per volume.
    layout: RoutedLayout
    #: one cache shard per volume.
    cache: ShardedCache
    datamover: DataMover
    #: one flush daemon per shard.
    flush_policy: ShardedFlushPolicy
    #: one cleaner daemon per LFS volume (empty when no volume is an LFS).
    cleaner: CleanerSet
    #: routes files and blocks to volumes (a ClusterPlacement on a cluster).
    placement: PlacementPolicy
    #: the cluster topology (multi-machine stacks only).
    cluster: Optional[ClusterTopology] = None
    #: the durable metadata tier (cluster stacks only).
    metadata: Optional[Any] = None
    #: crash-injection hooks threaded through the stack (tests only).
    crashpoints: Optional[Any] = None
    fs: FileSystem = field(init=False)
    client: AbstractClientInterface = field(init=False)

    def __post_init__(self) -> None:
        self.fs = FileSystem(
            self.scheduler,
            self.cache,
            self.layout,
            self.datamover,
            flush_policy=self.flush_policy,
            cleaner=self.cleaner,
            metadata=self.metadata,
        )
        self.client = AbstractClientInterface(
            self.fs, auto_materialize=self.binding.auto_materialize
        )
        # The skew monitor exists only for real multi-node clusters with
        # rebalancing enabled; a one-node cluster spawns nothing, keeping
        # it byte-identical to the bare array assembly.
        cluster_config = self.spec.cluster
        if (
            self.cluster is not None
            and cluster_config is not None
            and cluster_config.nodes > 1
            and cluster_config.rebalance
        ):
            rebalancer = ClusterRebalancer(
                self.fs,
                self.cluster.placement,
                cluster_config,
                self.metadata,
                crashpoints=self.crashpoints,
            )
            self.cluster.rebalancer = rebalancer
            rebalancer.start()
        # The repair loop exists only for replicated clusters (replicas=0
        # spawns nothing — the byte-identity pin against the pre-replication
        # stack).
        if (
            self.cluster is not None
            and cluster_config is not None
            and cluster_config.replicas > 0
            and self.cluster.replication is not None
            and cluster_config.repair
        ):
            from repro.core.cluster.replication import ReplicationRepairer

            repairer = ReplicationRepairer(
                self.scheduler,
                self.layout,
                self.cluster.placement,
                self.cluster.replication,
                self.cluster.faults,
                self.cache,
                self.metadata,
                interval=cluster_config.repair_interval,
                workers=cluster_config.repair_workers,
                crashpoints=self.crashpoints,
            )
            self.cluster.repairer = repairer
            self.scheduler.spawn(
                repairer.run, name="replication-repairer", daemon=True, node=0
            )


def _build_layout(
    spec: StackSpec,
    scheduler: Scheduler,
    volume: Volume,
    simulated: bool,
    seed: int,
    inode_base: int = 0,
    inode_stride: int = 1,
    crashpoints: Optional[Any] = None,
):
    """One storage layout over one volume — member ``inode_base`` of an
    ``inode_stride``-volume array — created through the "layout" component
    registry."""
    layout = registry.create(
        "layout",
        spec.layout.kind,
        scheduler,
        volume,
        block_size=spec.cache.block_size,
        simulated=simulated,
        seed=seed,
        layout_config=spec.layout,
        inode_base=inode_base,
        inode_stride=inode_stride,
    )
    if crashpoints is not None and isinstance(layout, LogStructuredLayout):
        # The recovery harness crashes inside the LFS index/summary write.
        layout.crashpoints = crashpoints
    return layout


def _make_cleaner_daemon(
    spec: StackSpec, scheduler: Scheduler, layout: LogStructuredLayout, node: int = 0
) -> CleanerDaemon:
    return CleanerDaemon(
        scheduler,
        layout,
        registry.create("cleaner", spec.layout.cleaner_policy),
        low_water=spec.layout.cleaner_low_water,
        high_water=spec.layout.cleaner_high_water,
        node=node,
    )


def build_stack(
    spec: StackSpec,
    binding: Binding,
    scheduler: Optional[Scheduler] = None,
    crashpoints: Optional[Any] = None,
) -> StorageStack:
    """Assemble a full storage stack from a spec and a binding.

    ``scheduler`` lets a caller share an existing scheduler (e.g. to embed
    a stack in a larger simulation); by default the binding creates the
    world's own (virtual- or real-clocked) scheduler from ``spec.seed``.
    ``crashpoints`` threads crash-injection hooks through the metadata tier
    and the rebalancer (the recovery test harness).
    """
    if scheduler is None:
        scheduler = binding.make_scheduler(spec.seed, spec.cluster)
    if crashpoints is not None:
        crashpoints.bind(scheduler)
    hardware: Hardware = binding.build_hardware(spec, scheduler)
    drivers = hardware.drivers

    array = spec.array
    cluster = spec.cluster
    simulated = binding.simulated
    with_data = binding.with_data
    topology: Optional[ClusterTopology] = None
    metadata: Optional[Any] = None

    total_volumes = spec.num_volumes
    placement: PlacementPolicy = registry.create(
        "placement",
        array.placement,
        total_volumes,
        stripe_unit=array.stripe_unit_blocks,
    )
    if cluster is not None:
        placement = ClusterPlacement(
            placement,
            cluster.nodes,
            spec.volumes_per_node,
            replicas=cluster.replicas,
        )
    nics = hardware.nics or binding.build_network(spec, scheduler)
    volumes: List[Volume] = []
    remote_volumes: dict = {}
    for v in range(total_volumes):
        local = LocalVolume(
            [drivers[i] for i in spec.disks_of_volume(v)],
            block_size=spec.cache.block_size,
        )
        node = spec.node_of_volume(v)
        if nics and node != 0:
            # Node-aware wrapper: accesses from the owner's own threads
            # (its daemons) stay off the network; foreign accesses cross
            # the accessor's NIC out and the owner's back.  Node-0
            # volumes stay bare LocalVolumes — node 0 is the front end,
            # where every client runs.
            assert cluster is not None
            remote = RemoteVolume(
                local,
                local_nic=nics[0],
                remote_nic=nics[node],
                request_bytes=cluster.request_bytes,
                scheduler=scheduler,
                node=node,
                nics=nics,
            )
            remote_volumes[v] = remote
            volumes.append(remote)
        else:
            volumes.append(local)
    volume = VolumeSet(volumes)
    sublayouts = [
        _build_layout(
            spec,
            scheduler,
            volumes[v],
            simulated,
            spec.seed + v,
            inode_base=v,
            inode_stride=total_volumes,
            crashpoints=crashpoints,
        )
        for v in range(total_volumes)
    ]
    layout = RoutedLayout(
        scheduler,
        volume,
        sublayouts,
        placement,
        block_size=spec.cache.block_size,
        seed=spec.seed,
    )
    shard_config = replace(
        spec.cache,
        size_bytes=max(spec.cache.size_bytes // total_volumes, spec.cache.block_size),
    )
    shards = [
        BlockCache(scheduler, shard_config, with_data=with_data)
        for _ in range(total_volumes)
    ]
    cache = ShardedCache(shards, placement.volume_for_block)
    datamover = binding.make_datamover(spec)
    flush_policy = ShardedFlushPolicy(
        spec.flush,
        high_water=array.governor_high_water,
        low_water=array.governor_low_water,
    )
    if cluster is not None and cluster.nodes > 1:
        # Home each cache shard's flush daemons (and the governors) on
        # the node that owns the shard's volume.
        flush_policy.shard_nodes = [spec.node_of_volume(v) for v in range(total_volumes)]
    cleaner = CleanerSet([
        _make_cleaner_daemon(spec, scheduler, sublayouts[v], node=spec.node_of_volume(v))
        for v in range(total_volumes)
        if isinstance(sublayouts[v], LogStructuredLayout)
    ])
    if cluster is not None:
        assert isinstance(placement, ClusterPlacement)
        nodes = []
        vpn = spec.volumes_per_node
        for n in range(cluster.nodes):
            vol_indices = list(range(n * vpn, (n + 1) * vpn))
            node_disks = [
                drivers[i]
                for v in vol_indices
                for i in spec.disks_of_volume(v)
            ]
            nodes.append(
                ClusterNode(
                    index=n,
                    nic=nics[n] if nics else None,
                    volume_indices=vol_indices,
                    drivers=node_disks,
                    volumes=[volumes[v] for v in vol_indices],
                    sublayouts=[sublayouts[v] for v in vol_indices],
                    cache_shards=[shards[v] for v in vol_indices],
                )
            )
        topology = ClusterTopology(
            nodes=nodes,
            nics=nics,
            placement=placement,
            remote_volumes=remote_volumes,
        )
        # Every cluster stack carries a fault board; it stays inert (one
        # attribute check per I/O) until a schedule applies an event.
        from repro.core.faults import FaultState

        faults = FaultState(volumes_per_node=spec.volumes_per_node)
        topology.faults = faults
        layout.faults = faults
        # Every cluster stack carries the durable metadata tier; it
        # stays invisible to the replay until something is journalled.
        from repro.core.metadata.manifest import ManifestStore
        from repro.core.metadata.tier import MetadataTier
        from repro.core.metadata.wal import WriteAheadLog

        device = binding.make_metadata_device(spec, scheduler)
        wal = WriteAheadLog(
            scheduler,
            device,
            commit_records=cluster.wal_commit_records,
            commit_bytes=cluster.wal_commit_bytes,
            commit_interval=cluster.wal_commit_interval,
            crashpoints=crashpoints,
        )
        metadata = MetadataTier(
            scheduler,
            placement,
            wal,
            ManifestStore(scheduler, device, crashpoints=crashpoints),
            cluster,
            crashpoints=crashpoints,
        )
        topology.metadata = metadata
        if cluster.replicas > 0:
            from repro.core.cluster.replication import ReplicaManager

            if any(not hasattr(sub, "inode_map") for sub in sublayouts):
                raise ConfigurationError(
                    "replication needs sub-layouts that can host foreign "
                    "inode numbers (LFS); slot-mapped layouts cannot hold "
                    "shadow inodes"
                )
            # Creation-time replica re-homing (dead default volume at first
            # write) journals RSETs like a repair does.
            layout.replication = ReplicaManager(scheduler, layout, placement, faults, metadata)
            topology.replication = layout.replication

    return StorageStack(
        spec=spec,
        binding=binding,
        scheduler=scheduler,
        buses=hardware.buses,
        disks=hardware.disks,
        drivers=drivers,
        volume=volume,
        layout=layout,
        cache=cache,
        datamover=datamover,
        flush_policy=flush_policy,
        cleaner=cleaner,
        placement=placement,
        cluster=topology,
        metadata=metadata,
        crashpoints=crashpoints,
    )
