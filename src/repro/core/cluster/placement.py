"""``ClusterPlacement``: the routing tier above the array's placement.

The array's placement policies (hash / stripe) are
pure arithmetic: a file's home volume is encoded in its inode number, so
routing needs no table.  A cluster must be able to *change* a file's home —
that is what rebalancing is — so this tier adds exactly one thing on top of
an inner policy: a routing table of overrides.  A file without an entry
routes by the inner policy's arithmetic (the common case stays O(1) and
table-free); a migrated file routes by its entry.  Flipping an entry is a
single dictionary store, which under the cooperative scheduler makes the
switch atomic — no I/O can interleave with it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.storage.array import PlacementPolicy
from repro.errors import ConfigurationError

__all__ = ["ClusterPlacement"]

#: WAL replica-set records pack each volume index into one byte (offset by
#: one so zero terminates the list), so replicated clusters are bounded.
MAX_REPLICA_VOLUME = 254


class ClusterPlacement(PlacementPolicy):
    """An inner placement policy plus a migration routing table.

    ``nodes`` machines each own ``volumes_per_node`` consecutive volumes
    (node ``n`` owns ``[n * vpn, (n + 1) * vpn)``); the inner policy is
    built over the *total* volume count, so its statistical spread covers
    the whole cluster.
    """

    name = "cluster"

    def __init__(
        self,
        inner: PlacementPolicy,
        nodes: int,
        volumes_per_node: int,
        replicas: int = 0,
    ):
        if nodes < 1 or volumes_per_node < 1:
            raise ConfigurationError("cluster placement needs at least one node and volume")
        if inner.num_volumes != nodes * volumes_per_node:
            raise ConfigurationError(
                f"inner placement covers {inner.num_volumes} volumes, "
                f"but {nodes} nodes x {volumes_per_node} volumes were configured"
            )
        if replicas < 0:
            raise ConfigurationError("replicas cannot be negative")
        #: the inner policy spreads one file's blocks over several volumes.
        self.striped = type(inner).volume_for_block is not PlacementPolicy.volume_for_block
        if replicas > 0:
            if self.striped:  # replica sets derive from the home volume
                raise ConfigurationError(
                    f"{inner.name!r} placement spreads a file over volumes, so a "
                    "replica (derived from its home) can share a volume with its data"
                )
            # Replicas never share a failure domain with the primary: with
            # several nodes the domain is the node, with one node it is the
            # volume, so each copy needs a domain of its own.
            domains = nodes if nodes > 1 else volumes_per_node
            if replicas >= domains:
                raise ConfigurationError(
                    f"{replicas} replicas need at least {replicas + 1} "
                    f"failure domains, but this cluster has {domains}"
                )
            if inner.num_volumes - 1 > MAX_REPLICA_VOLUME:
                raise ConfigurationError(
                    f"replication supports at most {MAX_REPLICA_VOLUME + 1} volumes "
                    "(replica-set journal records pack one volume per byte)"
                )
        super().__init__(inner.num_volumes)
        self.inner = inner
        self._inner_block = inner.volume_for_block
        self.nodes = nodes
        self.volumes_per_node = volumes_per_node
        self.replicas = replicas
        #: the routing table: file id -> migrated home volume.
        self._overrides: Dict[int, int] = {}
        #: replica routing table: file id -> explicit replica volumes.
        #: Files without an entry derive their set from the default rule.
        self._replica_overrides: Dict[int, Tuple[int, ...]] = {}
        #: called with the file id whenever an *existing* entry is dropped
        #: by :meth:`forget` (the metadata tier journals a FORGET record).
        self._forget_hook: Optional[Callable[[int], None]] = None
        #: called after a file's routing or replica set changed, with its
        #: id, or with ``None`` when a whole table was replaced (the replica
        #: manager keeps its under-replicated set current through it).
        self._changed: Callable[[Optional[int]], None] = lambda file_id: None

    # ------------------------------------------------------------------ topology

    def node_of_file(self, file_id: int) -> int:
        return self.node_of_volume(self.volume_of_file(file_id))

    # ------------------------------------------------------------------ routing

    def home_for_new_file(self, parent_id: Optional[int], name: Optional[str], counter: int) -> int:
        return self.inner.home_for_new_file(parent_id, name, counter)

    def volume_of_file(self, file_id: int) -> int:
        home = self._overrides.get(file_id)
        if home is not None:
            return home
        return self.inner.volume_of_file(file_id)

    def volume_for_block(self, file_id: int, block_no: int) -> int:
        # Migrated files are whole-file resident on their new home: a
        # striped file collapses onto one volume when it migrates (the
        # migration copies every live block there).
        if file_id in self._overrides:
            return self._overrides[file_id]
        return self._inner_block(file_id, block_no)

    def group_blocks(self, file_id: int, blocks: List[tuple]) -> Dict[int, list]:
        if file_id in self._overrides:
            return {self._overrides[file_id]: list(blocks)} if blocks else {}
        return self.inner.group_blocks(file_id, blocks)

    # ------------------------------------------------------------------ migration

    def flip(self, file_id: int, new_volume: int) -> None:
        """Atomically repoint ``file_id`` at ``new_volume``.

        A flip back to the file's native arithmetic home removes the entry,
        so the table only ever holds genuinely displaced files.
        """
        if not (0 <= new_volume < self.num_volumes):
            raise ConfigurationError(f"no volume {new_volume} in this cluster")
        if not self.striped and new_volume == self.inner.volume_of_file(file_id):
            # Back on the native home of a whole-file policy: no entry
            # needed.  Striped files keep one (their native routing rotates
            # per block, but a migrated file is whole-file resident).
            self._overrides.pop(file_id, None)
        else:
            self._overrides[file_id] = new_volume
        self._changed(file_id)

    def forget(self, file_id: int) -> None:
        """Drop the routing entries of a deleted file.

        The forget hook only fires when an entry actually existed: files
        that never migrated leave no trace in the journal (an idle
        metadata tier stays invisible).  One
        FORGET record covers both tables: recovery clears the replica
        override together with the home override.
        """
        dropped = self._overrides.pop(file_id, None) is not None
        dropped |= self._replica_overrides.pop(file_id, None) is not None
        if dropped:
            self._changed(file_id)
            if self._forget_hook is not None:
                self._forget_hook(file_id)

    def set_forget_hook(self, hook: Optional[Callable[[int], None]]) -> None:
        self._forget_hook = hook

    def set_change_hook(self, hook: Callable[[Optional[int]], None]) -> None:
        self._changed = hook

    # ------------------------------------------------------------------ replication

    def default_replica_set(self, file_id: int) -> Tuple[int, ...]:
        """The arithmetic replica homes of ``file_id`` (no table entry).

        Derived from the *native* primary — ``inner.volume_of_file``, not
        the override table — so the set is stable under migration flips.
        With several nodes, replica ``i`` lives on the same volume slot of
        the ``i``-th next node (distinct nodes, hence distinct volumes);
        with one node it lives on the ``i``-th next volume.
        """
        if self.replicas == 0:
            return ()
        primary = self.inner.volume_of_file(file_id)
        vpn = self.volumes_per_node
        if self.nodes > 1:
            node, slot = divmod(primary, vpn)
            return tuple(
                ((node + i) % self.nodes) * vpn + slot
                for i in range(1, self.replicas + 1)
            )
        return tuple(
            (primary + i) % self.num_volumes for i in range(1, self.replicas + 1)
        )

    def replica_set(self, file_id: int) -> Tuple[int, ...]:
        """The volumes holding replicas of ``file_id`` (primary excluded)."""
        if self.replicas == 0:
            return ()
        entry = self._replica_overrides.get(file_id)
        if entry is not None:
            return entry
        return self.default_replica_set(file_id)

    def set_replica_set(self, file_id: int, volumes: Tuple[int, ...]) -> None:
        """Repoint ``file_id``'s replicas (repair installs new homes).

        Like :meth:`flip`, setting the default rule's answer removes the
        entry so the table only holds genuinely repaired files.
        """
        for volume in volumes:
            if not (0 <= volume < self.num_volumes):
                raise ConfigurationError(f"no volume {volume} in this cluster")
        volumes = tuple(volumes)
        if volumes == self.default_replica_set(file_id):
            self._replica_overrides.pop(file_id, None)
        else:
            self._replica_overrides[file_id] = volumes
        self._changed(file_id)

    def replication_conflict(self, file_id: int, volume: int) -> bool:
        """Would homing ``file_id``'s primary on ``volume`` collide with one
        of its replicas (same volume, or same node when nodes > 1)?

        The rebalancer consults this before migrating: a primary landing on
        a replica's sub-layout would collide with the shadow inode that
        already carries the file's inode number there.
        """
        if self.replicas == 0:
            return False
        rset = self.replica_set(file_id)
        if volume in rset:
            return True
        if self.nodes > 1:
            node = self.node_of_volume(volume)
            return any(self.node_of_volume(r) == node for r in rset)
        return False

    # ------------------------------------------------------------------ durability

    def load_overrides(self, overrides: Dict[int, int]) -> None:
        """Replace the whole routing table (recovery: the manifest snapshot
        is authoritative for everything up to its checkpoint LSN)."""
        for volume in overrides.values():
            if not (0 <= volume < self.num_volumes):
                raise ConfigurationError(f"no volume {volume} in this cluster")
        self._overrides = dict(overrides)
        self._changed(None)

    def overrides_snapshot(self) -> Dict[int, int]:
        """A copy of the routing table (checkpoint: what the manifest saves)."""
        return dict(self._overrides)

    def load_replicas(self, replicas: Dict[int, Tuple[int, ...]]) -> None:
        """Replace the replica routing table (recovery)."""
        for volumes in replicas.values():
            for volume in volumes:
                if not (0 <= volume < self.num_volumes):
                    raise ConfigurationError(f"no volume {volume} in this cluster")
        self._replica_overrides = {fid: tuple(vols) for fid, vols in replicas.items()}
        self._changed(None)

    def replica_snapshot(self) -> Dict[int, Tuple[int, ...]]:
        """A copy of the replica routing table (checkpoint)."""
        return dict(self._replica_overrides)

    @property
    def displaced_files(self) -> int:
        return len(self._overrides)

    @property
    def repaired_files(self) -> int:
        return len(self._replica_overrides)

    def snapshot(self) -> dict:
        snap = {
            "inner": self.inner.name,
            "nodes": self.nodes,
            "volumes_per_node": self.volumes_per_node,
            "displaced_files": self.displaced_files,
        }
        if self.replicas:
            snap["replicas"] = self.replicas
            snap["repaired_files"] = self.repaired_files
        return snap
