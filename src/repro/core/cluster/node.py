"""``ClusterNode`` and ``ClusterTopology``: the shape of a built stack.

A node wraps one machine's slice of the stack — its NIC, its disk drivers,
its (possibly remote-wrapped) volumes, its per-volume layouts and cache
shards.  The topology groups the nodes (one for a single machine) plus the
pieces that span them (placement tier, fault board, metadata tier,
rebalancer) for reporting and fault injection; all of the actual I/O
routing happens through the placement and the routed layout, not through
these wrappers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, List, Optional

from repro.core.cluster.network import Nic
from repro.core.cluster.placement import ClusterPlacement
from repro.core.storage.volume import Volume

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cluster.rebalance import ClusterRebalancer

__all__ = ["ClusterNode", "ClusterTopology"]


@dataclass
class ClusterNode:
    """One machine's slice of the stack.

    ``volumes`` holds the volumes as the front end sees them — the local
    node's :class:`~repro.core.storage.volume.LocalVolume` objects, or
    :class:`~repro.core.cluster.remote.RemoteVolume` wrappers for every
    other node.  ``nic`` is None on a single machine (no network exists).
    """

    index: int
    nic: Optional[Nic]
    #: global indices of this node's volumes.
    volume_indices: List[int]
    drivers: List[Any]
    volumes: List[Volume]
    sublayouts: List[Any]
    cache_shards: List[Any]

    def __repr__(self) -> str:
        return (
            f"ClusterNode({self.index}, volumes={self.volume_indices}, "
            f"disks={len(self.drivers)})"
        )


@dataclass
class ClusterTopology:
    """The nodes of a built stack and what spans them.  Every stack has
    one; a single machine is one node with no NICs, no remote volumes and no
    rebalancer."""

    nodes: List[ClusterNode]
    #: one NIC per node of a multi-node cluster (empty on a single machine).
    nics: List[Nic]
    placement: ClusterPlacement
    #: remote volumes, keyed by global volume index (front-end view).
    remote_volumes: dict
    #: the durable metadata tier (WAL + manifest).
    metadata: Any
    #: the fault board (``repro.core.faults.FaultState``).
    faults: Any
    #: the skew monitor, on a multi-node cluster with ``rebalance`` on.
    rebalancer: Optional["ClusterRebalancer"] = None
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
