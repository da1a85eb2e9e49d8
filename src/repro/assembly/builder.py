"""``build_stack``: the one place a storage stack is assembled.

Both instantiations of the framework — the PATSY simulator and the Pegasus
file system — used to hand-assemble their component stacks in their
constructors, and the two copies drifted (PFS never gained the multi-volume
array).  This builder is now the only assembly path: a world-independent
:class:`~repro.assembly.spec.StackSpec` plus a world-picking
:class:`~repro.assembly.bindings.Binding` yields a fully wired
:class:`StorageStack`, and the two front-ends are thin facades over it.

Every stack is a cluster of nodes (one by default), each an array of
volumes: a machine's disks carved into ``spec.array.volumes`` volumes (one by
default), each with its own layout and cleaner, in front of one buffer cache
and one flush policy per node, behind the routing façades, under a
:class:`~repro.core.cluster.placement.ClusterPlacement` routing tier, a fault
board and the durable metadata tier.  What the spec's numbers add: with more
than one node, every non-front-end node's volumes are wrapped in a
:class:`~repro.core.cluster.remote.RemoteVolume` so their block I/O crosses
the simulated network, and the skew monitor runs; with ``replicas > 0``, the
replica manager and the repairer.

The construction order below is load-bearing: scheduler interactions during
assembly (thread spawns, RNG wiring) must be identical across worlds (pinned
by the goldens of ``tests/test_golden_schedule.py``).
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
from repro.core.cluster.replication import ReplicaManager, ReplicationRepairer
from repro.core.datamover import DataMover
from repro.core.filesystem import FileSystem
from repro.core.flush import ShardedFlushPolicy
from repro.core.metadata.manifest import ManifestStore
from repro.core.metadata.tier import MetadataTier
from repro.core.metadata.wal import WriteAheadLog
from repro.core.scheduler import Scheduler
from repro.core.storage.array import RoutedLayout, ShardedCache, VolumeSet
from repro.core.storage.cleaner import CleanerDaemon
from repro.core.storage.lfs import LogStructuredLayout
from repro.core.storage.volume import LocalVolume, Volume

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
    #: one cache shard per node.
    cache: ShardedCache
    datamover: DataMover
    #: one flush policy per cache shard, that is per node.
    flush_policy: ShardedFlushPolicy
    #: one cleaner daemon per volume.
    cleaner: List[CleanerDaemon]
    #: routes files and blocks to volumes: the spec's placement policy
    #: under the migration routing table.
    placement: ClusterPlacement
    #: the nodes (one for a single machine) and what spans them.
    cluster: ClusterTopology
    #: the durable metadata tier; idle until something is journalled.
    metadata: MetadataTier
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
        )
        self.client = AbstractClientInterface(
            self.fs, auto_materialize=self.binding.auto_materialize
        )
        # The skew monitor exists only for multi-node clusters with
        # rebalancing enabled; a single machine spawns nothing.
        cluster_config = self.spec.cluster
        if cluster_config.nodes > 1 and cluster_config.rebalance:
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
        # spawns nothing).
        if cluster_config.replicas > 0:
            repairer = ReplicationRepairer(
                self.scheduler,
                self.layout,
                self.cluster.placement,
                self.cluster.replication,
                self.cluster.faults,
                self.cache,
                self.metadata,
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
    crashpoints: Optional[Any] = None,
) -> LogStructuredLayout:
    """One storage layout over one volume, created through the "layout"
    component registry."""
    layout = registry.create(
        "layout",
        spec.layout.kind,
        scheduler,
        volume,
        block_size=spec.cache.block_size,
        simulated=simulated,
        seed=seed,
        layout_config=spec.layout,
    )
    if crashpoints is not None:
        # The recovery harness crashes inside the LFS summary write.
        layout.crashpoints = crashpoints
    return layout


def _make_cleaner_daemon(
    spec: StackSpec, scheduler: Scheduler, layout: LogStructuredLayout, node: int = 0
) -> CleanerDaemon:
    return CleanerDaemon(
        scheduler,
        layout,
        registry.create("cleaner", spec.layout.cleaner_policy),
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
    total_volumes = spec.num_volumes
    placement = ClusterPlacement(
        registry.create("placement", array.placement, total_volumes),
        cluster.nodes,
        spec.volumes_per_node,
        replicas=cluster.replicas,
    )
    # One NIC per node of a multi-node cluster; a single machine has no network.
    nics = binding.build_network(spec, scheduler)
    volumes: List[Volume] = []
    remote_volumes: dict = {}
    for v in range(total_volumes):
        local = LocalVolume(
            [drivers[i] for i in spec.disks_of_volume(v)],
            block_size=spec.cache.block_size,
        )
        node = spec.node_of_volume(v)
        if node != 0:
            # Node-aware wrapper: accesses from the owner's own threads
            # (its daemons) stay off the network; foreign accesses cross
            # the accessor's NIC out and the owner's back.  Node-0
            # volumes stay bare LocalVolumes — node 0 is the front end,
            # where every client runs.
            remote = RemoteVolume(local, scheduler, node, nics)
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
            binding.simulated,
            spec.seed + v,
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
    # One buffer cache per node: a node's volumes share one shard, one
    # replacement policy and one NVRAM budget (the spec's sizes are
    # whole-cluster totals, split evenly over the nodes).
    shard_config = replace(
        spec.cache,
        size_bytes=max(spec.cache.size_bytes // cluster.nodes, spec.cache.block_size),
    )
    shards = [
        BlockCache(scheduler, shard_config, with_data=binding.with_data)
        for _ in range(cluster.nodes)
    ]
    node_of, volume_for = placement.node_of_volume, placement.volume_for_block
    cache = ShardedCache(shards, lambda f, b: node_of(volume_for(f, b)))
    datamover = binding.make_datamover()
    flush_policy = ShardedFlushPolicy(spec.flush)
    cleaner = [
        _make_cleaner_daemon(spec, scheduler, sublayouts[v], node=spec.node_of_volume(v))
        for v in range(total_volumes)
    ]
    # The durable metadata tier stays invisible to the replay (and to the
    # disk) until something is journalled.
    device = binding.make_metadata_device(spec, scheduler)
    wal = WriteAheadLog(
        scheduler,
        device,
        commit_records=cluster.wal_commit_records,
        commit_bytes=cluster.wal_commit_bytes,
        crashpoints=crashpoints,
    )
    metadata = MetadataTier(
        scheduler,
        placement,
        wal,
        ManifestStore(scheduler, device, crashpoints=crashpoints),
        crashpoints=crashpoints,
    )
    layout.tiers.append(metadata)
    nodes = []
    for n in range(cluster.nodes):
        vol_indices = list(placement.volumes_of_node(n))
        nodes.append(
            ClusterNode(
                index=n,
                nic=nics[n] if nics else None,
                volume_indices=vol_indices,
                drivers=[drivers[i] for v in vol_indices for i in spec.disks_of_volume(v)],
                volumes=[volumes[v] for v in vol_indices],
                sublayouts=[sublayouts[v] for v in vol_indices],
                cache_shards=[shards[n]],
            )
        )
    topology = ClusterTopology(
        nodes=nodes,
        nics=nics,
        placement=placement,
        remote_volumes=remote_volumes,
        metadata=metadata,
        faults=layout.faults,
    )
    if cluster.replicas > 0:
        # Creation-time replica re-homing (dead default volume at first
        # write) journals RSETs like a repair does.
        layout.replication = ReplicaManager(
            scheduler, layout, placement, layout.faults, metadata
        )
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
