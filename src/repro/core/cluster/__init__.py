"""The cluster tier: the machines above the storage array, one by default.

The paper stops at one Sun 4/280; this package grows the same component
library to N machines.  Node 0 is the front end where clients arrive; every
other node contributes its volumes through a :class:`RemoteVolume`, whose
block I/O crosses a simulated network link (:class:`Nic`) with the same
charged-time discipline as PATSY's SCSI buses.  A :class:`ClusterPlacement`
tier above the array's placement policies owns the file→volume routing
table, and a :class:`ClusterRebalancer` watches per-volume load/free-space
skew and migrates files online — copy the live blocks forward through the
cache, atomically flip the routing entry.

Every stack is such a cluster.  With one node (the default) there are no
NICs, no remote volumes and no monitor thread: only the routing table, the
fault board and an idle metadata tier.
"""

from __future__ import annotations

from repro.core.cluster.network import Nic
from repro.core.cluster.remote import RemoteVolume
from repro.core.cluster.placement import ClusterPlacement
from repro.core.cluster.node import ClusterNode, ClusterTopology
from repro.core.cluster.rebalance import ClusterRebalancer, Migration

__all__ = [
    "Nic",
    "RemoteVolume",
    "ClusterPlacement",
    "ClusterNode",
    "ClusterTopology",
    "ClusterRebalancer",
    "Migration",
]
