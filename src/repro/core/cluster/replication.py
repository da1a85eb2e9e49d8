"""n-way replication: shadow copies, read fail-over, re-replication.

The cluster keeps ``k`` extra copies of every file (``ClusterConfig.
replicas``).  Each copy is a *shadow inode* on a replica volume: the same
inode number, registered in that volume's sub-layout, but carrying its own
block map of replica-local addresses — exactly the mechanism PR 5's
migration uses to let an LFS sub-layout host a foreign file.  Which
volumes hold the copies is the placement tier's business
(:meth:`~repro.core.cluster.placement.ClusterPlacement.replica_set`):
derived arithmetically from the file's *native* home (so the default needs
no table and no journal), overridden per file only when repair moves a
copy (journalled as an RSET record under the same durable-COMMIT rule as
migration flips).

Three moving parts, all owned by this module:

* :class:`ReplicaManager` — the data-path half.  The routed layout runs
  its copies alongside every primary write (the blocks and the shadow
  inode, one log append per copy; writes to an unavailable volume are dropped
  and the copy marked *stale*) and when a read addresses an unavailable
  volume (iterate the surviving fresh copies, serve from the first one).
  Replica I/O goes through the serving volumes' ``RemoteVolume``
  wrappers, so every copy crossing a machine boundary is charged to the
  NICs like any other remote I/O.
* :class:`ReplicationRepairer` — the control-loop half.  A daemon that
  watches the fault board's epoch and, per damaged file: promotes a
  surviving replica to primary when the primary's volume died (flush →
  atomic flip+RSET in one scheduler step → checkpoint → COMMIT, riding
  the metadata tier's migration rule), then re-replicates missing or
  stale copies onto replacement volumes (copy-forward in segment-sized
  appends, checkpoint the target, RSET + COMMIT).
* fail-over reads themselves never touch the dead volume: the tests prove
  it by scrubbing the dead volume's disk image to zeros at kill time.

Fencing caveat (documented, by design): a volume's death is *runtime*
state — it does not survive a whole-stack crash.  Writes issued after a
kill land only on the surviving copies, so if the stack then power-fails
before the repairer promoted the survivor, recovery routes the file back
to its old (revived) primary, which misses those post-kill writes.  The
recovery matrix therefore crashes at repair boundaries, not between a
kill and un-repaired post-kill writes.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Sequence, Set, Tuple

from repro.core.blocks import CacheBlock
from repro.core.inode import Inode
from repro.errors import DataUnavailable, StorageError

__all__ = ["ReplicaManager", "ReplicationRepairer"]

#: one file of a primary writeback: its inode and ``(block_no, block)`` pairs.
_Write = Tuple[Inode, Sequence[Tuple[int, CacheBlock]]]


def _choose_spare_volume(
    placement: Any, faults: Any, primary: int, occupied: Tuple[int, ...]
) -> Optional[int]:
    """A live volume in a failure domain neither the primary nor any
    volume in ``occupied`` already uses (lowest index wins, so every
    chooser in the module picks deterministically)."""
    # A failure domain is a node; on a single machine, a volume.
    domain = placement.node_of_volume if placement.nodes > 1 else (lambda volume: volume)
    used = {domain(v) for v in (primary, *occupied)}
    for volume in range(placement.num_volumes):
        if not faults.volume_unavailable(volume) and domain(volume) not in used:
            return volume
    return None

#: inode attributes mirrored into shadows (everything but the number and
#: the block map, which are the shadow's own).
_MIRRORED_ATTRS = (
    "kind",
    "size",
    "nlink",
    "uid",
    "gid",
    "mode",
    "atime",
    "mtime",
    "ctime",
    "generation",
    "symlink_target",
)


class ReplicaManager:
    """The data-path half of replication: shadow writes and fail-over reads.

    Owned by the routed layout (``layout.replication``); every method that
    touches a device is a scheduler generator, called from inside the
    layout's own read/write paths.
    """

    def __init__(self, scheduler: Any, layout: Any, placement: Any, faults: Any, metadata: Any):
        self.scheduler = scheduler
        self.layout = layout
        self.placement = placement
        self.faults = faults
        #: the cluster's metadata tier: creation-time RSET overrides are
        #: journalled like a repair's.
        self.metadata = metadata
        #: shadow inodes by (file id, replica volume).
        self._shadows: Dict[Tuple[int, int], Inode] = {}
        #: the live primary inode object per replicated file — the object
        #: the file system holds, so promotion can swap its block map.
        self._primaries: Dict[int, Inode] = {}
        #: copies that missed writes while their volume was unavailable;
        #: never served until repair re-syncs them.
        self._stale: Set[Tuple[int, int]] = set()
        #: every file that ever replicated a write (the repairer's scan set).
        self.files: Set[int] = set()
        #: the files :meth:`short` holds for, as of fault epoch
        #: ``_short_epoch``: rebuilt in one pass when the epoch moves,
        #: otherwise rechecked per file wherever an input of ``short`` changes.
        self._short: Set[int] = set()
        self._short_epoch: Optional[int] = None
        placement.set_change_hook(self._recheck)
        # -- counters
        self.replicated_block_writes = 0
        self.replicated_inode_writes = 0
        self.dropped_replica_writes = 0
        self.failover_reads = 0
        self.failovers_by_node: Dict[int, int] = {}

    # ------------------------------------------------------------------ shadows

    def is_stale(self, file_id: int, volume: int) -> bool:
        return (file_id, volume) in self._stale

    def _shadow(
        self, file_id: int, volume: int, like: Optional[Inode] = None
    ) -> Generator[Any, Any, Optional[Inode]]:
        """The shadow inode of ``file_id`` on ``volume``; created fresh when
        ``like`` is given, loaded from the sub-layout after a remount."""
        shadow = self._shadows.get((file_id, volume))
        if shadow is None:
            try:
                shadow = yield from self.layout.sublayouts[volume].read_inode(file_id)
            except StorageError:
                if like is None:
                    return None
                shadow = Inode(number=file_id, kind=like.kind)
            self._shadows[(file_id, volume)] = shadow
        return shadow

    def _mirror_attrs(self, primary: Inode, shadow: Inode) -> None:
        for attr in _MIRRORED_ATTRS:
            setattr(shadow, attr, getattr(primary, attr))

    def _track(self, inode: Inode) -> None:
        self._primaries[inode.number] = inode
        if inode.number not in self.files:
            self.files.add(inode.number)
            self._recheck(inode.number)

    def _adopt_live_rset(
        self, file_id: int, rset: Tuple[int, ...]
    ) -> Generator[Any, Any, Tuple[int, ...]]:
        """Swap dead volumes out of a *new* file's replica set.

        Placement's arithmetic default is fault-blind: a file born while
        its default replica volume is dead would miss that copy from its
        first write — and when its primary is dead too, the bytes would
        land nowhere at all, a loss no later repair can undo.  So the
        first replication of a file under active faults re-homes dead
        default volumes onto live spare domains, journalling the override
        exactly like a repair (RSET + durable COMMIT) so routing and
        copies still agree after a crash.

        A file born behind a *dead primary* starts life one copy short no
        matter how live its replicas are, so it gets one extra replica
        home — the full ``1 + k`` live-copy count — until the repairer
        promotes a survivor (promotion consumes the surplus entry).
        """
        primary = self.placement.volume_of_file(file_id)
        primary_dead = self.faults.volume_unavailable(primary)
        live = [v for v in rset if not self.faults.volume_unavailable(v)]
        target = self.placement.replicas + (1 if primary_dead else 0)
        while len(live) < target:
            spare = _choose_spare_volume(
                self.placement, self.faults, primary, tuple(live)
            )
            if spare is None:
                break  # no spare domain: stay short until a heal frees one
            live.append(spare)
        new_rset = tuple(live)
        if new_rset == rset:
            return rset
        self.placement.set_replica_set(file_id, new_rset)
        self.metadata.journal_rset(file_id, new_rset)
        yield from self.metadata.journal_commit(file_id)
        return new_rset

    # ------------------------------------------------------------------ write path

    def replicate(self, files: Sequence[_Write]) -> Generator[Any, Any, List[Generator]]:
        """Plan the copies of a primary writeback batch: one job per replica
        volume, for the caller to run alongside the primary's own write.
        A new file's replica set is settled (journalled and committed) here,
        before any copy is issued.

        Copies on unavailable volumes miss the write: it is dropped,
        counted, and the copy marked stale so fail-over never serves it.
        """
        faults = self.faults
        shares: Dict[int, List[_Write]] = {}
        for inode, blocks in files:
            rset = self.placement.replica_set(inode.number)
            if not rset:
                continue
            new_file = inode.number not in self.files
            self._track(inode)
            if new_file and faults.active:
                rset = yield from self._adopt_live_rset(inode.number, rset)
            for volume in rset:
                if faults.active and faults.volume_unavailable(volume):
                    # No recheck: ``short`` already counts the volume out,
                    # and its heal moves the epoch.
                    self._stale.add((inode.number, volume))
                    self.dropped_replica_writes += len(blocks)
                    faults.note_dropped_write(volume, len(blocks) or 1)
                    continue
                shares.setdefault(volume, []).append((inode, blocks))
        return [self._copy(volume, share) for volume, share in shares.items()]

    def _copy(self, volume: int, share: List[_Write]) -> Generator[Any, Any, None]:
        """One replica volume's copy: one batch into its sub-layout — each
        file's ``blocks`` with its shadow inode behind them, or the shadow
        inode alone for an attribute-only update."""
        if self.faults.active:
            extra = self.faults.extra_delay(volume)
            if extra:
                yield from self.scheduler.sleep(extra)
        batch = []
        for inode, blocks in share:
            shadow = yield from self._shadow(inode.number, volume, like=inode)
            self._mirror_attrs(inode, shadow)
            batch.append((shadow, list(blocks), True))
            self.replicated_block_writes += len(blocks)
            self.replicated_inode_writes += 1
        yield from self.layout.sublayouts[volume].write_files(batch)

    # ------------------------------------------------------------------ read path

    def _live_copies(self, file_id: int) -> List[int]:
        """Replica volumes that can serve ``file_id`` right now."""
        faults = self.faults
        return [
            volume
            for volume in self.placement.replica_set(file_id)
            if not faults.volume_unavailable(volume)
            and (file_id, volume) not in self._stale
        ]

    def _count_failover(self, failed_volume: int, count: int = 1) -> None:
        self.failover_reads += count
        node = self.placement.node_of_volume(failed_volume)
        self.failovers_by_node[node] = self.failovers_by_node.get(node, 0) + count

    def read_failover(
        self,
        inode: Inode,
        blocks: Sequence[Tuple[int, CacheBlock]],
        failed_volume: int,
    ) -> Generator[Any, Any, int]:
        """Serve one read's blocks on ``failed_volume`` from a surviving
        fresh copy (one fail-over counted per block), or raise
        :class:`DataUnavailable` when none is left.

        In the simulated world a missing shadow is created on demand: a
        pre-existing (materialized) file's bytes predate the trace, so in
        a replicated cluster its copies predate it too — the replica sub
        then synthesizes the read exactly like the primary would have."""
        like = inode if self.layout.simulated else None
        if like is not None and inode.number not in self.files and self.faults.active:
            # First touch of a materialized file under active faults: the
            # file enters the simulation *now*, so give it the same
            # fault-aware replica homes a freshly written file would get —
            # its synthetic bytes can be served from any live copy.
            self._track(inode)
            yield from self._adopt_live_rset(
                inode.number, self.placement.replica_set(inode.number)
            )
        for volume in self._live_copies(inode.number):
            shadow = yield from self._shadow(inode.number, volume, like=like)
            if shadow is None:
                continue
            result = yield from self.layout.sublayouts[volume].read_file_blocks(
                shadow, list(blocks)
            )
            self._count_failover(failed_volume, len(blocks))
            return result
        raise DataUnavailable(
            f"blocks {[block_no for block_no, _ in blocks]} of file {inode.number} "
            f"live on unavailable volume {failed_volume} and no surviving "
            "replica holds a copy"
        )

    def read_inode_failover(
        self, inode_number: int, failed_volume: int
    ) -> Generator[Any, Any, Inode]:
        """Serve an inode read from a surviving fresh copy's shadow."""
        for volume in self._live_copies(inode_number):
            shadow = yield from self._shadow(inode_number, volume)
            if shadow is None:
                continue
            self._count_failover(failed_volume)
            return shadow
        raise DataUnavailable(
            f"inode {inode_number} lives on unavailable volume "
            f"{failed_volume} and no surviving replica holds a copy"
        )

    # ------------------------------------------------------------------ deletion

    def free_replicas(self, inode: Inode) -> Generator[Any, Any, None]:
        """Release every copy of a deleted file (dead volumes skipped —
        their bytes are gone anyway)."""
        rset = self.placement.replica_set(inode.number)
        for volume in rset:
            self._stale.discard((inode.number, volume))
            self._recheck(inode.number)
            shadow = self._shadows.pop((inode.number, volume), None)
            if self.faults.active and self.faults.volume_unavailable(volume):
                continue
            sub = self.layout.sublayouts[volume]
            if shadow is None:
                try:
                    shadow = yield from sub.read_inode(inode.number)
                except StorageError:
                    continue
            yield from sub.free_inode(shadow)
        self.files.discard(inode.number)
        self._recheck(inode.number)
        self._primaries.pop(inode.number, None)

    # ------------------------------------------------------------------ reporting

    def short(self, file_id: int) -> bool:
        """Fewer live, fresh copies — the primary counts as a copy — than
        the configured ``1 + replicas``.  A dead primary, a dead or stale
        replica, and a promotion-shrunk set all qualify until repair
        restores the full count."""
        live = len(self._live_copies(file_id))
        if not self.faults.volume_unavailable(self.placement.volume_of_file(file_id)):
            live += 1
        return live <= self.placement.replicas

    def _recheck(self, file_id: Optional[int]) -> None:
        """An input of :meth:`short` changed for ``file_id`` (``None``: for
        every file, so the next query rebuilds).  Skipped while the kept
        set is from an older epoch: the rebuild will see the change."""
        if file_id is None:
            self._short_epoch = None
        elif self._short_epoch == self.faults.epoch:
            if file_id in self.files and self.short(file_id):
                self._short.add(file_id)
            else:
                self._short.discard(file_id)

    def short_files(self) -> Set[int]:
        """The files :meth:`short` holds for (the kept set; do not mutate)."""
        if self._short_epoch != self.faults.epoch:
            self._short = set(filter(self.short, self.files))
            self._short_epoch = self.faults.epoch
        return self._short

    def under_replicated_files(self) -> int:
        return len(self.short_files())

    def healthy(self, file_id: int) -> bool:
        """Nothing for repair to do: the primary and every replica volume
        live and fresh, and the set at its configured size."""
        rset = self.placement.replica_set(file_id)
        return (
            len(rset) >= self.placement.replicas
            and len(self._live_copies(file_id)) == len(rset)
            and not self.faults.volume_unavailable(self.placement.volume_of_file(file_id))
        )

    def snapshot(self) -> dict:
        return {
            "replicas": self.placement.replicas,
            "replicated_files": len(self.files),
            "replicated_block_writes": self.replicated_block_writes,
            "replicated_inode_writes": self.replicated_inode_writes,
            "dropped_replica_writes": self.dropped_replica_writes,
            "failover_reads": self.failover_reads,
            "stale_copies": len(self._stale),
            "under_replicated_files": self.under_replicated_files(),
        }


class ReplicationRepairer:
    """Re-replicates damaged files after the fault harness strikes.

    A polling daemon (every ``interval`` simulated seconds) that re-scans the
    replicated file set whenever the fault board's epoch moves.  Per file:

    1. **promote** — primary volume unavailable: flush the file (pushing
       its dirty blocks to the surviving copies), then in one atomic
       scheduler step flip the routing to the chosen survivor and repoint
       the replica set (FLIP + RSET journalled), swap the in-memory
       primary's block map to the shadow's, checkpoint the new home, and
       journal COMMIT — the exact durability discipline of a migration.
    2. **re-replicate** — for each dead or stale copy: pick a replacement
       volume in an unused failure domain, copy the file forward from a
       live source (a segment's worth of blocks per log append, the inode
       behind the last), checkpoint the target, journal RSET + COMMIT,
       and clear the stale mark.
    """

    def __init__(
        self,
        scheduler: Any,
        layout: Any,
        placement: Any,
        manager: ReplicaManager,
        faults: Any,
        cache: Any,
        metadata: Any,
        interval: float = 1.0,
        workers: int = 1,
        crashpoints: Any = None,
    ):
        self.scheduler = scheduler
        self.layout = layout
        self.placement = placement
        self.manager = manager
        self.faults = faults
        self.cache = cache
        self.metadata = metadata
        self.interval = interval
        self.workers = max(1, workers)
        self.crashpoints = crashpoints
        self._seen_epoch = 0
        # -- counters
        self.scans = 0
        self.promoted_files = 0
        self.repaired_copies = 0
        self.blocks_copied = 0
        self.bytes_copied = 0
        self.lost_files = 0
        self.repairs_by_node: Dict[int, int] = {}

    def _hit(self, point: str) -> None:
        if self.crashpoints is not None:
            self.crashpoints.hit(point)

    # ------------------------------------------------------------------ the daemon

    def run(self) -> Generator[Any, Any, None]:
        while True:
            yield from self.scheduler.sleep(self.interval)
            while self.faults.epoch != self._seen_epoch:
                self._seen_epoch = self.faults.epoch
                yield from self.repair_all()
            # Damage also accrues *between* epochs: every write dropped on
            # a dead replica volume marks a copy stale, and files keep
            # being created while hardware is down.  Keep scanning until
            # the file set is fully replicated again (or nothing more can
            # be done with the surviving failure domains).
            if self.faults.active and self.manager.short_files():
                yield from self.repair_all()

    def repair_all(self) -> Generator[Any, Any, None]:
        """One full scan over the replicated file set.

        With ``workers > 1`` the scan is sharded round-robin across that
        many repair threads, so re-replication overlaps disk queueing
        instead of serializing behind it — the difference between beating
        the next failure to the remaining copies and losing the race.
        """
        self.scans += 1
        files = sorted(self.manager.files)
        if self.workers <= 1 or len(files) <= 1:
            yield from self._repair_shard(files)
            return
        shards = [files[i :: self.workers] for i in range(self.workers)]
        threads = [
            self.scheduler.spawn(
                self._repair_shard(shard), name=f"repair-w{i}", daemon=True, node=0
            )
            for i, shard in enumerate(shards)
            if shard
        ]
        for thread in threads:
            yield from thread.join()

    def _repair_shard(self, shard) -> Generator[Any, Any, None]:
        for file_id in shard:
            # A healthy file is skipped, not given a pass that finds nothing.
            if not self.manager.healthy(file_id):
                yield from self.repair_file(file_id)

    # ------------------------------------------------------------------ per file

    def repair_file(self, file_id: int) -> Generator[Any, Any, None]:
        placement, faults = self.placement, self.faults
        primary = placement.volume_of_file(file_id)
        rset = placement.replica_set(file_id)
        if faults.volume_unavailable(primary):
            promoted = yield from self._promote(file_id, rset)
            if not promoted:
                self.lost_files += 1
                return
            primary = placement.volume_of_file(file_id)
            rset = placement.replica_set(file_id)
        damaged = [
            volume
            for volume in rset
            if faults.volume_unavailable(volume) or self.manager.is_stale(file_id, volume)
        ]
        for bad in damaged:
            if faults.volume_unavailable(bad):
                replacement = self._choose_replacement(file_id, primary, rset)
                if replacement is None:
                    # No spare failure domain left: the file stays
                    # under-replicated until a future heal frees one.
                    continue
            else:
                replacement = bad  # stale but alive: re-sync in place
            done = yield from self._clone(file_id, primary, bad, replacement, rset)
            if done:
                rset = placement.replica_set(file_id)
        # A promotion consumed one copy (the survivor became the primary):
        # grow the set back to the configured count where domains allow.
        while len(rset) < placement.replicas:
            replacement = self._choose_replacement(file_id, primary, rset)
            if replacement is None:
                break
            done = yield from self._clone(file_id, primary, None, replacement, rset)
            if not done:
                break
            rset = placement.replica_set(file_id)

    # ------------------------------------------------------------------ promotion

    def _promote(
        self, file_id: int, rset: Tuple[int, ...]
    ) -> Generator[Any, Any, bool]:
        manager, placement = self.manager, self.placement
        live = [
            volume
            for volume in rset
            if not self.faults.volume_unavailable(volume)
            and not manager.is_stale(file_id, volume)
        ]
        if not live:
            return False
        # In the simulated world a live copy may exist only in the routing
        # table so far (a materialized file adopted at fail-over time whose
        # reads were all served by another copy): synthesize its shadow on
        # demand, exactly as a fail-over read of that copy would.
        like = manager._primaries.get(file_id) if self.layout.simulated else None
        new_home, shadow = None, None
        for volume in live:
            shadow = yield from manager._shadow(file_id, volume, like=like)
            if shadow is not None:
                new_home = volume
                break
        if shadow is None or new_home is None:
            return False
        # Push the file's cached dirty blocks out first: the primary's
        # volume drops them, the surviving copies absorb them, so the
        # shadow's map is complete before it becomes the map of record.
        yield from self.cache.flush_file(file_id)
        self._hit("repair.flip.pre")
        # One atomic scheduler step: routing flip + replica-set shrink,
        # both journalled, plus the in-memory map swap — no I/O between.
        primary_obj = manager._primaries.get(file_id)
        placement.flip(file_id, new_home)
        new_rset = tuple(v for v in rset if v != new_home)
        placement.set_replica_set(file_id, new_rset)
        self.metadata.journal_flip(file_id, new_home)
        self.metadata.journal_rset(file_id, new_rset)
        new_sub = self.layout.sublayouts[new_home]
        manager._shadows.pop((file_id, new_home), None)
        if primary_obj is not None and primary_obj is not shadow:
            # The file system keeps holding its own inode object; hand it
            # the promoted copy's addresses and re-register it as the new
            # home's object of record so later writes stay coherent.
            primary_obj.block_map = dict(shadow.block_map)
            yield from new_sub.write_inode(primary_obj)
        self._hit("repair.checkpoint.pre")
        yield from new_sub.checkpoint()
        self._hit("repair.commit.pre")
        yield from self.metadata.journal_commit(file_id)
        self._hit("repair.commit.post")
        self.promoted_files += 1
        node = self.placement.node_of_volume(new_home)
        self.repairs_by_node[node] = self.repairs_by_node.get(node, 0) + 1
        return True

    # ------------------------------------------------------------------ re-replication

    def _choose_replacement(
        self, file_id: int, primary: int, rset: Tuple[int, ...]
    ) -> Optional[int]:
        """A live volume in a failure domain the file does not already use."""
        placement, faults = self.placement, self.faults
        live_set = tuple(v for v in rset if not faults.volume_unavailable(v))
        return _choose_spare_volume(placement, faults, primary, live_set)

    def _clone(
        self,
        file_id: int,
        primary: int,
        bad: Optional[int],
        replacement: int,
        rset: Tuple[int, ...],
    ) -> Generator[Any, Any, bool]:
        """Copy ``file_id`` forward onto ``replacement`` and repoint the
        replica set (``bad`` → ``replacement``; ``None`` grows the set)."""
        manager, layout = self.manager, self.layout
        source_inode = manager._primaries.get(file_id)
        if source_inode is None:
            try:
                source_inode = yield from layout.read_inode(file_id)
            except (StorageError, DataUnavailable):
                return False
        # Disk must hold the complete file before we copy from it.
        yield from self.cache.flush_file(file_id)
        self._hit("repair.clone.pre")
        target_sub = layout.sublayouts[replacement]
        if replacement == bad:
            # In-place re-sync: reuse the registered shadow so rewriting a
            # block retires its old replica address instead of leaking it.
            shadow = yield from manager._shadow(file_id, replacement, like=source_inode)
        else:
            shadow = Inode(number=file_id, kind=source_inode.kind)
        manager._mirror_attrs(source_inode, shadow)
        source_sub = layout.sublayouts[primary]
        with_data = not layout.simulated
        # Whole file, a segment's worth of blocks per append (bounded
        # memory); the shadow inode rides the last batch.
        block_nos = sorted(source_inode.block_map)
        batch = max(target_sub.segment_blocks - 2, 1)
        for start in range(0, len(block_nos), batch):
            carriers = [
                (block_no, CacheBlock(slot=-1, size=layout.block_size, with_data=with_data))
                for block_no in block_nos[start : start + batch]
            ]
            yield from source_sub.read_file_blocks(source_inode, carriers)
            for _block_no, carrier in carriers:
                carrier.valid_bytes = carrier.size
            yield from target_sub.write_file_blocks(
                shadow, carriers, with_inode=start + batch >= len(block_nos)
            )
            self.blocks_copied += len(carriers)
            self.bytes_copied += len(carriers) * layout.block_size
        if not block_nos:
            yield from target_sub.write_inode(shadow)
        self._hit("repair.checkpoint.pre")
        yield from target_sub.checkpoint()
        if bad in rset:
            new_rset = tuple(replacement if v == bad else v for v in rset)
        else:  # growing a promotion-shrunk set: append instead of substitute
            new_rset = rset + (replacement,)
        self._hit("repair.rset.pre")
        self.placement.set_replica_set(file_id, new_rset)
        self.metadata.journal_rset(file_id, new_rset)
        self._hit("repair.commit.pre")
        yield from self.metadata.journal_commit(file_id)
        self._hit("repair.commit.post")
        manager._shadows[(file_id, replacement)] = shadow
        manager._stale.discard((file_id, bad))
        manager._stale.discard((file_id, replacement))
        manager._recheck(file_id)
        if bad != replacement:
            manager._shadows.pop((file_id, bad), None)
        self.repaired_copies += 1
        node = self.placement.node_of_volume(replacement)
        self.repairs_by_node[node] = self.repairs_by_node.get(node, 0) + 1
        return True

    # ------------------------------------------------------------------ reporting

    def snapshot(self) -> dict:
        return {
            "scans": self.scans,
            "promoted_files": self.promoted_files,
            "repaired_copies": self.repaired_copies,
            "blocks_copied": self.blocks_copied,
            "bytes_copied": self.bytes_copied,
            "lost_files": self.lost_files,
        }
