"""Online rebalancing: the skew monitor and the file-migration machinery.

Placement skew is the array's known failure mode (one volume filling up or
carrying most of the traffic while others idle).  Each round the
rebalancer *migrates* files online, through the ordinary cache and layout
paths, off a volume short of free space or off an overloaded one: more than
``imbalance_threshold`` times the mean load (disk operations over the
interval) *and* disks busy at least ``BUSY_FLOOR`` of it — below that there
is no queue to relieve.  Files go to the least-loaded volume.  Only live
volumes count: a write flushed to one the fault board reports unavailable
is dropped.

One migration runs this state machine (all steps through charged I/O, so a
migration's cost shows up in the measurements like any other traffic):

1. **PULL**   — every live block of the file is brought into the cache
   through the *old* routing (cache hits are free; misses are charged
   reads, over the network for a remote volume).  Pulled blocks are pinned
   (``busy``) so replacement cannot drop them mid-migration.
2. **FLIP**   — the routing entry flips to the new home volume.  A single
   dictionary store under the cooperative scheduler: atomic.
3. **COPY**   — cached copies move into the new home node's cache shard
   and are marked dirty ("copy-forward through the cache").  From this
   instant every lookup routes to the new shard and hits.  Between two
   volumes of one node the blocks already sit in that shard: they are only
   marked dirty, no copy is made.
4. **FLUSH**  — the file's dirty blocks are written out; the layout assigns
   fresh addresses on the new volume and updates the block map.
5. **RETIRE** — the old on-disk blocks (captured before the flip) are
   released on the old volume and the old inode record is retired; the
   inode is persisted on its new home.

Monitor decisions use only sorted orders and interval counters — no RNG —
so the same seed and the same skew produce the identical migration
schedule (pinned by ``tests/test_cluster.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional, Tuple

from repro.config import ClusterConfig
from repro.core.cluster.placement import ClusterPlacement
from repro.core.inode import FileKind, Inode, ROOT_INODE_NUMBER
from repro.core.scheduler import Scheduler, Thread
from repro.core.storage.array import RoutedLayout, ShardedCache
from repro.errors import CacheError, StorageError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.filesystem import FileSystem

__all__ = ["ClusterRebalancer", "Migration"]


#: migrate off (and never onto) a volume whose free-block fraction is below this.
FREE_SPACE_LOW_WATER = 0.10
#: load skew migrates only off a volume whose disks were busy at least this
#: share of the interval: below it there is no queue for a migration to relieve.
BUSY_FLOOR = 0.5


@dataclass(frozen=True)
class Migration:
    """One completed migration, as recorded in the schedule."""

    time: float
    file_id: int
    source: int
    target: int
    blocks: int


class ClusterRebalancer:
    """Skew monitor plus the per-file migration state machine."""

    def __init__(
        self,
        fs: "FileSystem",
        placement: ClusterPlacement,
        config: ClusterConfig,
        metadata: Any,
        crashpoints: Optional[Any] = None,
    ):
        self.fs = fs
        self.placement = placement
        self.config = config
        #: the durable metadata tier (``repro.core.metadata``) every cluster
        #: stack carries: routing flips and migration state are journalled.
        self.metadata = metadata
        #: crash-injection hooks for the recovery test harness.
        self.crashpoints = crashpoints
        self.scheduler: Scheduler = fs.scheduler
        self.monitor_thread: Optional[Thread] = None
        #: completed migrations, in order (the deterministic schedule).
        self.schedule: List[Migration] = []
        self.rounds = 0
        self.migrations = 0
        self.blocks_copied = 0
        self.migrations_skipped = 0

    # ------------------------------------------------------------------ wiring

    def _hit(self, point: str) -> None:
        if self.crashpoints is not None:
            self.crashpoints.hit(point)

    @property
    def layout(self) -> RoutedLayout:
        return self.fs.layout  # type: ignore[return-value]

    @property
    def cache(self) -> ShardedCache:
        return self.fs.cache  # type: ignore[return-value]

    def start(self) -> None:
        """Spawn the skew-monitor daemon (idempotent)."""
        if self.monitor_thread is None:
            self.monitor_thread = self.scheduler.spawn(
                self._monitor, name="cluster-rebalancer", daemon=True
            )

    # ------------------------------------------------------------------ the monitor

    def _snapshot(self) -> List[Tuple[int, float]]:
        """Per volume: disk operations so far, and busy seconds per disk."""
        snapshot = []
        for sub in self.layout.sublayouts:
            stats = [driver.stats for driver in sub.volume.drivers]
            busy = sum(s.busy_time for s in stats) / len(stats)
            snapshot.append((sum(s.operations for s in stats), busy))
        return snapshot

    def _monitor(self) -> Generator[Any, Any, None]:
        before, since = self._snapshot(), self.scheduler.now
        while True:
            yield from self.scheduler.sleep(self.config.rebalance_interval)
            self.rounds += 1
            snapshot, elapsed = self._snapshot(), self.scheduler.now - since
            load = [ops - old for (ops, _), (old, _) in zip(snapshot, before)]
            busy = [(now - old) / elapsed for (_, now), (_, old) in zip(snapshot, before)]
            before, since = snapshot, self.scheduler.now
            yield from self.rebalance_once(load, busy)

    def rebalance_once(self, load: List[int], busy: List[float]) -> Generator[Any, Any, int]:
        """One monitor round over per-volume interval loads (disk
        operations) and busy fractions (per disk, of the interval).

        Returns the number of files migrated.  Exposed separately so tests
        and experiments can drive rounds without the daemon.
        """
        faults = self.layout.faults
        live = [v for v in range(len(load)) if not faults.volume_unavailable(v)]
        if len(live) < 2:
            return 0
        subs = self.layout.sublayouts
        free = {v: subs[v].free_blocks / max(subs[v].volume.total_blocks, 1) for v in live}
        mean_load = sum(load[v] for v in live) / len(live)

        source: Optional[int] = None
        starved = [v for v in live if free[v] < FREE_SPACE_LOW_WATER]
        if starved:
            # Free-space pressure beats load skew: migrate off the fullest.
            source = min(starved, key=lambda v: (free[v], v))
        elif mean_load > 0:
            busiest = max(live, key=lambda v: (load[v], -v))
            skewed = load[busiest] > self.config.imbalance_threshold * mean_load
            if skewed and busy[busiest] >= BUSY_FLOOR:
                source = busiest
        if source is None:
            return 0
        # The least-loaded live volume with the most room — never the
        # source, and never a volume itself below the free-space low water
        # (moving files onto a full volume just ping-pongs them back).
        candidates = [v for v in live if v != source and free[v] >= FREE_SPACE_LOW_WATER]
        if not candidates:
            return 0
        target = min(candidates, key=lambda v: (load[v], -free[v], v))
        migrated = 0
        for file_id in self._victims(source):
            if migrated >= self.config.max_migrations_per_round:
                break
            migrated += yield from self.migrate_file(file_id, target)
        return migrated

    def _victims(self, source: int) -> List[int]:
        """Deterministic victim order: hottest cached files of ``source``
        first (most cached blocks), then the cold remainder by inode
        number.  The root directory is never a victim."""
        counts: Dict[int, int] = {}
        for shard in self.cache.shards:
            for block in shard.blocks():
                if block.block_id is None:
                    continue
                file_id = block.block_id.file_id
                if self.placement.volume_of_file(file_id) == source:
                    counts[file_id] = counts.get(file_id, 0) + 1
        hot = sorted(counts, key=lambda fid: (-counts[fid], fid))
        cold = [
            fid
            for fid in self.layout.sublayouts[source].known_inode_numbers()
            if fid not in counts and self.placement.volume_of_file(fid) == source
        ]
        return [fid for fid in hot + cold if fid != ROOT_INODE_NUMBER]

    # ------------------------------------------------------------------ migration

    def migrate_file(self, file_id: int, new_home: int) -> Generator[Any, Any, bool]:
        """Move ``file_id``'s home volume to ``new_home`` (see the module
        docstring for the state machine).  Returns True when the file
        actually moved; directories, the root and layouts that cannot host
        foreign inode numbers are skipped."""
        placement = self.placement
        layout = self.layout
        cache = self.cache
        old_home = placement.volume_of_file(file_id)
        if new_home == old_home or file_id == ROOT_INODE_NUMBER:
            return False
        if placement.replication_conflict(file_id, new_home):
            # The target volume (or its node) holds one of the file's
            # replicas: the primary landing there would collide with the
            # shadow inode already carrying this inode number.
            self.migrations_skipped += 1
            return False
        new_sub = layout.sublayouts[new_home]
        old_sub = layout.sublayouts[old_home]
        loaded = self.fs.file_table.find(file_id)
        if loaded is not None:
            inode = loaded.inode
        else:
            try:
                inode = yield from layout.read_inode(file_id)
            except StorageError:
                self.migrations_skipped += 1
                return False
        if inode.kind is not FileKind.REGULAR:
            self.migrations_skipped += 1
            return False

        # Journal the migration's intent before touching anything.  A BEGIN
        # without a later COMMIT is ignored at recovery, so an abandoned or
        # crashed migration leaves routing exactly where it was.
        self.metadata.journal_begin(file_id, old_home, new_home)
        self._hit("migrate.pull.pre")

        # -- PULL: every live block into the cache through the old routing.
        if len(inode.block_map) > min(s.num_blocks for s in cache.shards) // 2:
            # Too big to copy-forward through the cache without starving it.
            self.migrations_skipped += 1
            return False
        pulled: List[tuple[int, Any, Any]] = []  # (block_no, block, owning shard)
        to_move: List[tuple[int, Any, Any]] = []
        #: pre-allocated landing slots in the new home's shard, by block no.
        copies: Dict[int, Any] = {}
        #: landing slots filled straight from disk (the block was not
        #: cached): block no -> the disk address the bytes came from.
        landed: Dict[int, Optional[int]] = {}
        # Where the file's blocks route once the flip lands: the new home's
        # node shard (a migrated file is whole-file resident).  A move
        # between two volumes of one node lands in the shard it is in.
        target = cache.shards[placement.node_of_volume(new_home)]

        def release_pins() -> None:
            for _no, block, _shard in pulled + to_move:
                block.busy = False
            for block_no, copy in copies.items():
                copy.busy = False
                if target.peek(file_id, block_no) is copy:
                    target.invalidate(copy)

        def landing_slot(block_no: int) -> Generator[Any, Any, Any]:
            """A busy slot for ``block_no`` in the new home's shard.  Nothing
            routes there before the flip; after it a client finds the block
            busy and *waits*, instead of reading stale addresses through
            the new volume's sub-layout."""
            while True:
                try:
                    copy = yield from target.allocate(file_id, block_no)
                    break
                except CacheError:
                    copy = target.peek(file_id, block_no)
                    if copy is not None:
                        break
            copy.busy = True
            copies[block_no] = copy
            return copy

        try:
            for _attempt in range(8):
                if any(b.owed is not None for b in cache.cached_blocks_of(file_id)):
                    # Old bytes a block owes sit at addresses the flip
                    # drops: the writeback reads them in.
                    yield from cache.flush_file(file_id)
                # -- PULL: every live block into the cache, old routing.
                block_nos = sorted(
                    set(inode.block_map)
                    | {b.block_id.block_no for b in cache.cached_blocks_of(file_id)}
                )
                if len(block_nos) > min(s.num_blocks for s in cache.shards) // 2:
                    release_pins()
                    self.migrations_skipped += 1
                    return False
                to_land: List[tuple[int, Any]] = []
                for block_no in block_nos:
                    shard = cache.shard_for(file_id, block_no)
                    block = shard.peek(file_id, block_no)
                    if block is None and shard is not target:
                        # Not cached: read it straight into its landing
                        # slot.  The overloaded shard is spared an
                        # allocation it would stall on — and a slot the
                        # migration would hold hostage until the flip.
                        if block_no not in landed:
                            to_land.append((block_no, (yield from landing_slot(block_no))))
                        continue
                    while block is None:  # the old shard *is* the target
                        try:
                            block = yield from shard.allocate(file_id, block_no)
                        except CacheError:
                            # A client cached it while we waited for space.
                            block = shard.peek(file_id, block_no)
                            continue
                        block.busy = True
                        try:
                            yield from layout.read_file_blocks(inode, [(block_no, block)])
                        finally:
                            block.busy = False
                    block.busy = True  # pinned until the move completes
                    pulled.append((block_no, block, shard))
                if to_land:
                    # One read for everything that lands straight from disk.
                    addresses = {no: inode.get_block_address(no) for no, _ in to_land}
                    yield from layout.read_file_blocks(inode, to_land)
                    landed.update(addresses)

                # Landing slots for the blocks that were cached, allocated
                # while nothing routes to them yet.
                for block_no in block_nos:
                    if cache.shard_for(file_id, block_no) is target or block_no in copies:
                        continue
                    yield from landing_slot(block_no)

                # Re-scan the whole cache for this file's blocks — clients
                # may have created new ones while the steps above yielded.
                # This scan, the completeness check, the pin check and the
                # flip below all share one scheduler step, so nothing can
                # change in between.
                landing = {id(copy) for copy in copies.values()}
                to_move = []
                for shard in cache.shards:
                    for block in shard.cached_blocks_of(file_id):
                        if id(block) not in landing:
                            to_move.append((block.block_id.block_no, block, shard))
                to_move.sort(key=lambda item: item[0])
                moving = {no for no, _b, _s in to_move}
                # A block read straight from disk is good only while the
                # file still maps it to the address it was read from: a
                # client that rewrote (or truncated) it since holds — or
                # has already flushed and lost from the cache — newer bytes.
                landed = {
                    no: address
                    for no, address in landed.items()
                    if no not in moving and inode.get_block_address(no) == address
                }
                # A concurrent flush clearing ``busy`` can let a pulled
                # block be evicted before we get here: every on-disk block
                # must be back in the cache, every cached block outside the
                # target shard needs its landing slot, and a write during the
                # pull may have left a block owing old bytes — else go again.
                missing_pull = set(inode.block_map) - moving - set(landed)
                missing_copy = any(
                    shard is not target and no not in copies
                    for no, _b, shard in to_move
                )
                owing = any(block.owed is not None for _no, block, _shard in to_move)
                if missing_pull or missing_copy or owing:
                    for _no, block, _shard in pulled:
                        block.busy = False
                    pulled = []
                    continue
                break
            else:
                release_pins()
                self.migrations_skipped += 1
                return False
            # Abort if any block is pinned: a client mid-operation would
            # strand its block in the old shard once the routing flips.
            ours = {id(block) for _no, block, _shard in pulled}
            if any(
                block.pinned or (block.busy and id(block) not in ours)
                for _no, block, _shard in to_move
            ):
                release_pins()
                self.migrations_skipped += 1
                return False
            # Pin the whole move set: ``busy`` keeps the replacement policy
            # and the flush daemons off these blocks until each is moved.
            for _no, block, _shard in to_move:
                block.busy = True

            # Old on-disk addresses, grouped by the *old* routing, captured
            # before the flip so RETIRE frees exactly what the file owned.
            old_groups: Dict[int, Dict[int, int]] = {}
            for block_no, address in inode.block_map.items():
                volume = placement.volume_for_block(file_id, block_no)
                old_groups.setdefault(volume, {})[block_no] = address

            # -- FLIP + COPY, one scheduler step: the routing entry flips,
            # every byte lands in its (busy) pre-allocated slot, and the
            # stale old-volume addresses leave the block map.  No client
            # I/O can interleave, and readers/writers racing the remaining
            # bookkeeping find busy blocks and wait for them.
            self._hit("migrate.flip.pre")
            placement.flip(file_id, new_home)
            # Same atomic step as the flip (append is synchronous and
            # non-durable): the journal never disagrees with memory about
            # the order of routing changes.
            self.metadata.journal_flip(file_id, new_home)
            for block_no, block, _shard in to_move:
                copy = copies.get(block_no)
                if copy is not None and block.data is not None and copy.data is not None:
                    copy.data[:] = block.data
            inode.drop_blocks_from(0)

            # -- DIRTY: publish each landing slot (mark dirty, clear busy)
            # and retire the old shard's now-redundant copy.
            for block_no, block, shard in to_move:
                copy = copies.get(block_no)
                if copy is None:  # already in the target shard
                    yield from target.mark_dirty(block)
                    block.busy = False
                else:
                    yield from target.mark_dirty(copy)
                    copy.busy = False
                    shard.mark_clean(block)
                    block.busy = False
                    shard.invalidate(block)
                    # Wake anyone parked on either shard's block-ready
                    # event so they re-look-up through the flipped routing.
                    target.notify_block_ready()
                    shard.notify_block_ready()
                self.blocks_copied += 1
            for block_no in sorted(landed):
                copy = copies[block_no]
                yield from target.mark_dirty(copy)
                copy.busy = False
                target.notify_block_ready()
                self.blocks_copied += 1
            # Landing slots whose source vanished mid-protocol (truncate or
            # delete racing the pulls) were never published: drop them.
            published = moving | set(landed)
            for block_no, copy in copies.items():
                if block_no not in published and target.peek(file_id, block_no) is copy:
                    copy.busy = False
                    target.invalidate(copy)
            self._hit("migrate.copy.post")
        except BaseException:
            release_pins()
            raise

        # Register the inode on its new home *before* flushing: the
        # writeback path re-reads an unloaded file's inode through the (now
        # flipped) routing, so the record must already exist there.
        yield from layout.write_inode(inode)

        # -- FLUSH: write the file out; the new volume assigns addresses.
        self._hit("migrate.flush.pre")
        yield from cache.flush_file(file_id)

        # Durability barrier before COMMIT.  The flush wrote the blocks, but
        # an LFS volume recovers only from its last checkpoint — so
        # checkpoint the new home first, *then* journal COMMIT.  Crash
        # before the COMMIT is durable: recovery routes to the old home,
        # whose on-disk state is untouched (RETIRE has not run).  Crash
        # after: recovery routes to the new home, whose copy is durable.
        self._hit("migrate.checkpoint.pre")
        yield from new_sub.checkpoint()
        self._hit("migrate.commit.pre")
        yield from self.metadata.journal_commit(file_id)
        self._hit("migrate.commit.post")

        # -- RETIRE: free the old storage and the old inode record.
        self._hit("migrate.retire.pre")
        for volume in sorted(old_groups):
            shim = Inode(number=file_id, kind=inode.kind)
            shim.block_map = dict(old_groups[volume])
            yield from layout.sublayouts[volume].release_blocks(shim, 0)
        retire = Inode(number=file_id, kind=inode.kind)
        yield from old_sub.free_inode(retire)
        self._hit("migrate.retire.post")

        self.metadata.journal_end(file_id)
        yield from self.metadata.post_migration()

        self.migrations += 1
        self.schedule.append(
            Migration(
                time=self.scheduler.now,
                file_id=file_id,
                source=old_home,
                target=new_home,
                blocks=len(to_move) + len(landed),
            )
        )
        return True

    # ------------------------------------------------------------------ reporting

    def snapshot(self) -> dict:
        return {
            "rounds": self.rounds,
            "migrations": self.migrations,
            "blocks_copied": self.blocks_copied,
            "migrations_skipped": self.migrations_skipped,
            "displaced_files": self.placement.displaced_files,
        }
