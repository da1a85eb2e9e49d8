"""Configuration objects for instantiating file systems and simulators.

The cut-and-paste framework is assembled from components at start-up; these
dataclasses are the "wiring lists" used by the two instantiations
(:class:`repro.pfs.filesystem.PegasusFileSystem` and
:class:`repro.patsy.simulator.PatsySimulator`): six sections and the
:class:`StackSpec` that holds one of each, which both constructors take and
every preset below returns.  They deliberately mirror the
knobs discussed in the paper: cache size and flush policy (Section 5.1),
storage layout and segment size (Section 2), the disk/bus complement of the
simulated Sprite file server (Section 5.1), and so on.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, get_type_hints

from repro.errors import ConfigurationError
from repro.units import DEFAULT_BLOCK_SIZE, KB, MB


def _check_registered(kind: str, name: str, what: str) -> None:
    """Reject a component name the :mod:`repro.assembly.registry` does not
    hold, so a config names only what ``build_stack`` can build.

    The registry is the one list of names: importing :mod:`repro` loads
    every built-in module, which registers its components, and third-party
    components must be registered before the configuration is constructed.
    The import is lazy because config sits below the assembly layer in the
    import graph.
    """
    from repro.assembly.registry import registry

    if not registry.has(kind, name):
        raise ConfigurationError(
            f"unknown {what} {name!r}; registered: {registry.names(kind) or 'none'}"
        )

__all__ = [
    "CacheConfig",
    "FlushConfig",
    "LayoutConfig",
    "HostConfig",
    "ArrayConfig",
    "ClusterConfig",
    "StackSpec",
    "sun4_280_config",
    "cluster_config",
    "small_test_config",
]


@dataclass(frozen=True)
class CacheConfig:
    """File-system block cache configuration."""

    size_bytes: int = 8 * MB
    block_size: int = DEFAULT_BLOCK_SIZE
    #: replacement policy: "arc" (the default, the component matrix's
    #: winner) or "lru" (the paper's baseline; see
    #: :mod:`repro.core.replacement`), or any name registered under "replacement".
    replacement: str = "arc"

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise ConfigurationError("block_size must be positive")
        if self.size_bytes < self.block_size:
            raise ConfigurationError("cache must hold at least one block")
        _check_registered("replacement", self.replacement, "replacement policy")

    @property
    def num_blocks(self) -> int:
        return self.size_bytes // self.block_size


@dataclass(frozen=True)
class FlushConfig:
    """Delayed-write (cache flush) policy configuration.

    ``policy`` selects between the experiments of Section 5.1:

    * ``"periodic"`` — the Unix 30-second-update baseline,
    * ``"ups"`` — write-saving: flush only when out of non-dirty blocks,
    * ``"nvram"`` — dirty data confined to an NVRAM buffer of
      ``nvram_bytes``; when full, flush the oldest dirty block
      (``whole_file=False``) or its whole file (``whole_file=True``).
    """

    policy: str = "periodic"
    update_interval: float = 30.0
    scan_interval: float = 5.0
    nvram_bytes: int = 4 * MB
    whole_file: bool = True
    #: flush in a separate daemon thread (the Section 5.2 lesson) rather than
    #: synchronously in the thread that needed a block.
    asynchronous: bool = True

    def __post_init__(self) -> None:
        _check_registered("flush", self.policy, "flush policy")
        if self.update_interval <= 0 or self.scan_interval <= 0:
            raise ConfigurationError("flush intervals must be positive")
        if self.nvram_bytes <= 0:
            raise ConfigurationError("nvram_bytes must be positive")


@dataclass(frozen=True)
class LayoutConfig:
    """Storage-layout configuration: the segmented LFS, the one layout built
    in, or a layout derived from it and registered under ``kind``."""

    kind: str = "lfs"
    segment_size: int = 256 * KB
    #: cleaner policy: "greedy" or "cost-benefit".
    cleaner_policy: str = "cost-benefit"

    def __post_init__(self) -> None:
        _check_registered("layout", self.kind, "storage layout")
        if self.segment_size <= 0:
            raise ConfigurationError("segment_size must be positive")
        _check_registered("cleaner", self.cleaner_policy, "cleaner policy")


@dataclass(frozen=True)
class HostConfig:
    """Host and I/O sub-system configuration for a simulated machine."""

    num_disks: int = 1
    num_buses: int = 1
    #: disk queue scheduling policy: "clook", "fcfs" or "scan-edf" (see
    #: :mod:`repro.core.iosched`), or any name registered under "iosched".
    io_scheduler: str = "clook"

    def __post_init__(self) -> None:
        if self.num_disks < 1 or self.num_buses < 1:
            raise ConfigurationError("need at least one disk and one bus")
        if self.num_buses > self.num_disks:
            raise ConfigurationError("more buses than disks makes no sense")
        _check_registered("iosched", self.io_scheduler, "I/O scheduler")

    def bus_for_disk(self, disk_index: int) -> int:
        """Disks are spread round-robin over the available buses."""
        return disk_index % self.num_buses


@dataclass(frozen=True)
class ArrayConfig:
    """How a machine's disks are carved into volumes and files routed there.

    The traced Sprite server was a Sun 4/280 with ten HP 97560 disks on
    three SCSI buses carved into more than a dozen file systems (Section
    5.1).  An array groups the disks :class:`HostConfig` describes into
    ``volumes`` independent volumes — each with its own storage layout and
    cleaner, all behind the machine's one buffer cache — and routes files
    (or individual blocks, for striping) onto them with a pluggable
    placement policy.  Every stack is such an array; the default is one
    volume over all of the host's disks.
    """

    #: number of independent volumes the host's disks are carved into
    #: (contiguous split; the first ``num_disks % volumes`` volumes get the
    #: spare disks).
    volumes: int = 1
    #: placement policy routing files/blocks to volumes: "hash" (whole file
    #: by name hash; the default here, in ``cluster_config`` and in the
    #: Fig. 2-5 experiments) or "stripe" (round-robin stripe units across
    #: volumes; ``sun4_280_config``'s default).
    placement: str = "hash"

    def __post_init__(self) -> None:
        if self.volumes < 1:
            raise ConfigurationError("an array needs at least one volume")
        _check_registered("placement", self.placement, "placement policy")

    def check_fits(self, host: HostConfig) -> None:
        """Reject an array that carves ``host`` into more volumes than it
        has disks (run wherever a host and an array are put together)."""
        if host.num_disks < self.volumes:
            raise ConfigurationError(
                f"each volume needs at least one disk: {self.volumes} volumes "
                f"over {host.num_disks} disks"
            )


@dataclass(frozen=True)
class ClusterConfig:
    """The cluster tier above the storage array: every stack is a cluster
    of nodes, one by default.

    A cluster is ``nodes`` machines, each with the disks and buses of
    ``StackSpec.host`` carved as ``StackSpec.array`` says (one volume per
    node by default).  Node 0 is the front end where
    clients arrive; block I/O addressed to another node's volumes crosses a
    simulated network link — per-NIC queueing plus latency and bandwidth,
    charged with the same time discipline as PATSY's SCSI buses.

    A skew monitor watches each live volume's load, disk busy time and free
    space and, when a busy volume's load passes ``imbalance_threshold`` (or
    a volume runs short of space), *migrates* files to a live volume
    online: live blocks are copied forward through the cache and the
    routing entry is flipped atomically.  With ``nodes=1`` (the
    default: a single machine) no network objects or monitor threads exist
    at all, and the metadata tier stays idle until something is journalled.
    """

    #: number of machines; node 0 is the client-facing front end.
    nodes: int = 1
    #: whether the skew monitor runs (``nodes > 1`` only).
    rebalance: bool = True
    #: how often (simulated seconds) the skew monitor re-examines the volumes.
    rebalance_interval: float = 5.0
    #: migrate when the busiest live volume carries more than this multiple
    #: of the mean live per-volume load over the last interval and its disks
    #: were busy at least ``rebalance.BUSY_FLOOR`` (half) of that interval.
    imbalance_threshold: float = 2.0
    #: upper bound on file migrations per monitor round.
    max_migrations_per_round: int = 8
    #: the durable metadata tier journals routing flips and migration state
    #: in a write-ahead log, periodically folded into an atomically rewritten
    #: manifest, so a crashed node recovers its routing table at mount time.
    #: A group commit becomes due after this many buffered records (1 =
    #: commit after every record) ...
    wal_commit_records: int = 8
    #: ... or this many buffered bytes (or a second of simulated time
    #: since the previous commit).
    wal_commit_bytes: int = 4 * KB
    #: per-operation latency of the (simulated) metadata device, seconds.
    metadata_latency: float = 0.0002
    #: bandwidth of the metadata device, bytes per second.
    metadata_bandwidth: float = 20 * MB
    #: extra copies kept of every file (0 = no replication, the pre-existing
    #: single-copy stack, byte-identical by construction).  Replica ``i`` of
    #: a file homes on the next nodes after its primary's node (the next
    #: volumes on a one-node cluster), so no two copies ever share a volume
    #: — or a node, when there are enough nodes.  Writes fan out to every
    #: copy (charged over the serving nodes' NICs); reads fail over to a
    #: surviving copy when the fault harness kills a volume or node.  A
    #: replicated cluster always runs the
    #: :class:`~repro.core.cluster.replication.ReplicationRepairer`, which
    #: re-replicates under-replicated files and flips dead primaries onto
    #: surviving copies after a fault.
    replicas: int = 0
    #: concurrent repair threads per scan.  1 (the default) repairs files
    #: strictly in id order; higher values shard the scan round-robin
    #: across worker threads so re-replication overlaps disk queueing —
    #: how a real cluster races the next failure.
    repair_workers: int = 1

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ConfigurationError("a cluster needs at least one node")
        if self.rebalance_interval <= 0:
            raise ConfigurationError("rebalance_interval must be positive")
        if self.imbalance_threshold < 1.0:
            raise ConfigurationError("imbalance_threshold must be at least 1.0")
        if self.max_migrations_per_round < 1:
            raise ConfigurationError("max_migrations_per_round must be positive")
        if self.wal_commit_records < 1:
            raise ConfigurationError("wal_commit_records must be positive")
        if self.wal_commit_bytes < 1:
            raise ConfigurationError("wal_commit_bytes must be positive")
        if self.metadata_latency < 0 or self.metadata_bandwidth < 0:
            raise ConfigurationError("metadata device costs cannot be negative")
        if not (0 <= self.replicas <= 6):
            # The WAL packs a replica set into one i64 argument: up to seven
            # 8-bit volume slots, so at most 6 extra copies.
            raise ConfigurationError("replicas must be between 0 and 6")
        if self.repair_workers < 1:
            raise ConfigurationError("repair_workers must be positive")


#: sub-config dataclass per StackSpec section, for (de)serialisation.
_SECTION_TYPES = {
    "cache": CacheConfig,
    "flush": FlushConfig,
    "layout": LayoutConfig,
    "host": HostConfig,
    "array": ArrayConfig,
    "cluster": ClusterConfig,
}


def _section_from_dict(name: str, section_type: type, section: Dict[str, Any]) -> Any:
    """One sub-config from its manifest dict: unknown keys and values of the
    wrong type are rejected by section and key before the dataclass's own
    range checks see them."""
    hints = get_type_hints(section_type)
    bad = set(section) - set(hints)
    if bad:
        raise ConfigurationError(
            f"unknown keys in StackSpec section {name!r}: {sorted(bad)}"
        )
    for key, value in section.items():
        allowed = (float, int) if hints[key] is float else (hints[key],)
        if not isinstance(value, allowed) or (isinstance(value, bool) and bool not in allowed):
            wanted = " or ".join(t.__name__ for t in allowed)
            raise ConfigurationError(
                f"StackSpec section {name!r}, key {key!r}: expected {wanted}, got {value!r}"
            )
    return section_type(**section)


@dataclass(frozen=True)
class StackSpec:
    """Declarative, world-independent description of one storage stack.

    A spec says *what* the stack is — cache geometry and replacement policy,
    flush policy, storage layout(s), array shape and placement, how many
    such machines (one by default), cleaner policy — without saying *where*
    it runs.  The same
    object builds the off-line simulator (``PatsySimulator(spec)``, under a
    :class:`~repro.assembly.bindings.SimulatedBinding`) and the on-line file
    system (``PegasusFileSystem(spec)``, under an
    :class:`~repro.assembly.bindings.OnlineBinding`); that is the paper's
    cut-and-paste claim made into an object.  ``host`` describes the
    hardware complement: the simulated binding builds exactly that machine
    (HP 97560 disks, SCSI buses, I/O scheduler); the on-line binding keeps the
    disk/volume counts and the I/O scheduler and ignores the performance
    model underneath.

    Specs are frozen (hashable, safe to share between runs) and serialise to
    plain dicts, so an experiment manifest can carry the exact stack it ran —
    ``StackSpec.from_dict(json.load(f))`` rebuilds it bit-for-bit.
    """

    cache: CacheConfig = field(default_factory=CacheConfig)
    flush: FlushConfig = field(default_factory=FlushConfig)
    layout: LayoutConfig = field(default_factory=LayoutConfig)
    host: HostConfig = field(default_factory=HostConfig)
    #: how each machine's disks are carved into volumes (default: one
    #: volume over all of the host's disks).
    array: ArrayConfig = field(default_factory=ArrayConfig)
    #: the machines: each node has the ``host`` hardware carved as
    #: ``array`` (default: one node, no replicas — a single machine).
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    #: seed for the scheduler and any synthesised parameters.
    seed: int = 0

    def __post_init__(self) -> None:
        self.array.check_fits(self.host)

    # ------------------------------------------------------------------ derived shape

    @property
    def num_nodes(self) -> int:
        return self.cluster.nodes

    @property
    def volumes_per_node(self) -> int:
        """One node's volume complement."""
        return self.array.volumes

    @property
    def num_volumes(self) -> int:
        return self.num_nodes * self.volumes_per_node

    @property
    def disks_per_node(self) -> int:
        """One node's disk complement."""
        return self.host.num_disks

    @property
    def num_disks(self) -> int:
        """Total disk complement over every node of the cluster."""
        return self.num_nodes * self.disks_per_node

    @property
    def num_buses(self) -> int:
        """Total bus complement (each node carries its own buses)."""
        return self.num_nodes * self.host.num_buses

    def node_of_volume(self, volume_index: int) -> int:
        """Cluster node one volume belongs to (volumes never span nodes)."""
        return volume_index // self.volumes_per_node

    def node_of_disk(self, disk_index: int) -> int:
        """Cluster node one disk belongs to (disks never span nodes)."""
        return disk_index // self.disks_per_node

    def bus_for_disk(self, disk_index: int) -> int:
        """Global bus index of one disk (buses never span nodes)."""
        node, local = divmod(disk_index, self.disks_per_node)
        return node * self.host.num_buses + self.host.bus_for_disk(local)

    def disks_of_volume(self, volume_index: int) -> range:
        """Global disk indices of one volume: a node's disks are split into
        contiguous runs, the first ``disks % volumes`` volumes taking the
        spare ones."""
        if not (0 <= volume_index < self.num_volumes):
            raise ConfigurationError(
                f"no volume {volume_index} in a {self.num_volumes}-volume stack"
            )
        node, local = divmod(volume_index, self.volumes_per_node)
        base, extra = divmod(self.disks_per_node, self.volumes_per_node)
        start = node * self.disks_per_node + local * base + min(local, extra)
        return range(start, start + base + (1 if local < extra else 0))

    @classmethod
    def from_config(cls, config: "StackSpec") -> "StackSpec":
        """Its argument: every preset already returns a spec.  Kept only
        because the frozen ``benchmarks/e2e/measure.py`` calls it."""
        return config

    # ------------------------------------------------------------------ serialisation

    def to_dict(self) -> Dict[str, Any]:
        """A plain-dict form (JSON-safe) for experiment manifests."""
        data: Dict[str, Any] = {}
        for name in _SECTION_TYPES:
            data[name] = asdict(getattr(self, name))
        data["seed"] = self.seed
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "StackSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        Missing (or ``null``) sections take their defaults; unknown keys
        (inside a section or at the top level) and values of the wrong type
        are rejected by name, so a typo in a manifest fails loudly instead
        of silently running the default stack.
        """
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(f"unknown StackSpec keys: {sorted(unknown)}")
        kwargs: Dict[str, Any] = {}
        for name, section_type in _SECTION_TYPES.items():
            section = data.get(name)
            if section is None:
                continue
            if not isinstance(section, dict):
                raise ConfigurationError(f"StackSpec section {name!r} must be a dict")
            kwargs[name] = _section_from_dict(name, section_type, section)
        if "seed" in data:
            try:
                kwargs["seed"] = int(data["seed"])
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"StackSpec key 'seed' must be an integer, got {data['seed']!r}"
                ) from None
        return cls(**kwargs)


def sun4_280_config(
    scale: float = 1.0,
    seed: int = 0,
    volumes: int = 5,
    placement: str = "stripe",
    num_disks: int = 10,
    buses: int = 3,
) -> StackSpec:
    """The paper's evaluation machine as a storage array.

    A Sun 4/280 file server with 128 MB of main memory, 4 MB of NVRAM and
    ten HP 97560 disks on three SCSI-2 buses (Section 5.1), modelled as
    ``volumes`` independent volumes (the real machine carved the ten disks
    into fourteen file systems), each with its own log, behind the one
    buffer cache: one replacement policy over all 128 MB and one flush
    policy with the whole NVRAM, as on the real machine.  Files are striped
    over the volumes, so a large write drains through every volume's disks
    at once; ``volumes=1, placement="hash"`` is the machine as one file
    system.  ``scale`` shrinks the memory sizes (cache and NVRAM)
    proportionally so that scaled-down synthetic traces exercise the same
    regimes — the published experiments depend on the *ratio* of NVRAM to
    cache and of working set to cache, not on the absolute 1996 sizes.
    """
    if scale <= 0 or scale > 1.0:
        raise ConfigurationError("scale must be in (0, 1]")
    cache_bytes = max(int(128 * MB * scale), 64 * DEFAULT_BLOCK_SIZE * max(volumes, 1))
    nvram_bytes = max(int(4 * MB * scale), 8 * DEFAULT_BLOCK_SIZE * max(volumes, 1))
    return StackSpec(
        cache=CacheConfig(size_bytes=cache_bytes),
        flush=FlushConfig(policy="periodic", nvram_bytes=nvram_bytes),
        layout=LayoutConfig(kind="lfs"),
        host=HostConfig(num_disks=num_disks, num_buses=buses),
        array=ArrayConfig(volumes=volumes, placement=placement),
        seed=seed,
    )


def cluster_config(
    nodes: int = 4,
    scale: float = 1.0,
    seed: int = 0,
    volumes_per_node: int = 2,
    disks_per_node: int = 2,
    buses_per_node: int = 1,
    placement: str = "hash",
    rebalance: bool = True,
    replicas: int = 0,
) -> StackSpec:
    """An N-node cluster of small storage servers behind one front end.

    Each node runs ``volumes_per_node`` volumes over ``disks_per_node``
    disks on ``buses_per_node`` SCSI buses; node 0 is the front end and the
    other nodes' volumes are reached over simulated network links.  Each
    node has its own memory: the cache and NVRAM sizes are cluster totals,
    split evenly into one cache shard and one NVRAM per node, and they grow
    with the volume count so every node's share keeps a workable size;
    ``scale`` shrinks memory exactly as in :func:`sun4_280_config`.
    """
    if scale <= 0 or scale > 1.0:
        raise ConfigurationError("scale must be in (0, 1]")
    total_volumes = max(nodes * volumes_per_node, 1)
    cache_bytes = max(int(128 * MB * scale), 64 * DEFAULT_BLOCK_SIZE * total_volumes)
    nvram_bytes = max(int(4 * MB * scale), 8 * DEFAULT_BLOCK_SIZE * total_volumes)
    return StackSpec(
        cache=CacheConfig(size_bytes=cache_bytes),
        flush=FlushConfig(policy="periodic", nvram_bytes=nvram_bytes),
        layout=LayoutConfig(kind="lfs"),
        host=HostConfig(num_disks=disks_per_node, num_buses=buses_per_node),
        array=ArrayConfig(volumes=volumes_per_node, placement=placement),
        cluster=ClusterConfig(
            nodes=nodes,
            rebalance=rebalance,
            replicas=replicas,
        ),
        seed=seed,
    )


def small_test_config(seed: int = 0) -> StackSpec:
    """A deliberately tiny configuration for unit tests: one disk, one bus,
    a 64-block cache and an 8-block NVRAM."""
    return StackSpec(
        cache=CacheConfig(size_bytes=64 * DEFAULT_BLOCK_SIZE),
        flush=FlushConfig(policy="periodic", nvram_bytes=8 * DEFAULT_BLOCK_SIZE),
        layout=LayoutConfig(segment_size=16 * DEFAULT_BLOCK_SIZE),
        host=HostConfig(num_disks=1, num_buses=1),
        seed=seed,
    )
