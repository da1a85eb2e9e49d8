"""``ClusterNode`` and ``ClusterTopology``: the shape of a built cluster.

A node wraps one machine's slice of the stack — its NIC, its disk drivers,
its (possibly remote-wrapped) volumes, its per-volume layouts and cache
shards — exactly the sub-stack :func:`repro.assembly.builder.build_stack`
assembles for a standalone array of the same shape.  The topology groups
the nodes plus the cluster-wide pieces (placement tier, rebalancer) for
reporting; all of the actual I/O routing happens through the placement and
the routed layout, not through these wrappers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, List, Optional

from repro.core.cluster.network import Nic
from repro.core.cluster.placement import ClusterPlacement
from repro.core.storage.volume import Volume

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cluster.rebalance import ClusterRebalancer

__all__ = ["ClusterNode", "ClusterTopology"]


@dataclass
class ClusterNode:
    """One machine's slice of the cluster stack.

    ``volumes`` holds the volumes as the front end sees them — the local
    node's :class:`~repro.core.storage.volume.LocalVolume` objects, or
    :class:`~repro.core.cluster.remote.RemoteVolume` wrappers for every
    other node.  ``nic`` is None on a one-node cluster (no network exists).
    """

    index: int
    nic: Optional[Nic]
    #: global indices of this node's volumes.
    volume_indices: List[int]
    drivers: List[Any]
    volumes: List[Volume]
    sublayouts: List[Any]
    cache_shards: List[Any]

    @property
    def is_front_end(self) -> bool:
        return self.index == 0

    def __repr__(self) -> str:
        return (
            f"ClusterNode({self.index}, volumes={self.volume_indices}, "
            f"disks={len(self.drivers)})"
        )


@dataclass
class ClusterTopology:
    """Everything cluster-specific a built stack carries."""

    nodes: List[ClusterNode]
    nics: List[Nic]
    placement: ClusterPlacement
    rebalancer: Optional["ClusterRebalancer"] = None
    #: remote volumes, keyed by global volume index (front-end view).
    remote_volumes: dict = field(default_factory=dict)
    #: the durable metadata tier (WAL + manifest).
    metadata: Optional[Any] = None
    #: the fault board (``repro.core.faults.FaultState``).
    faults: Optional[Any] = None
    #: replication data path + repair loop, when ``replicas`` > 0.
    replication: Optional[Any] = None
    repairer: Optional[Any] = None

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def node_of_volume(self, volume: int) -> ClusterNode:
        return self.nodes[self.placement.node_of_volume(volume)]

    def __repr__(self) -> str:
        return f"ClusterTopology(nodes={len(self.nodes)})"
