"""The multi-volume storage array: placement, the per-node cache and routing.

The traced Sprite server was not "one big disk": it was a Sun 4/280 with
ten HP 97560 disks on three SCSI buses, carved into fourteen file systems
(Section 5.1).  This module grows the framework's storage stack from "one
cache, one volume, one driver list" into that shape:

* :class:`PlacementPolicy` decides which volume a file (or, for striping,
  an individual file block) lives on — pluggable, like every other policy
  in the cut-and-paste framework.
* :class:`VolumeSet` groups N independent :class:`~repro.core.storage.volume.Volume`
  objects, each over its own disk complement.
* :class:`ShardedCache` presents the :class:`~repro.core.cache.BlockCache`
  API over one cache shard per node, so the file system runs unchanged
  against one machine's buffer cache or a cluster's N memories.  A
  machine's volumes share its one shard, as the Sun 4/280's ten disks
  shared its one 128 MB memory and one 4 MB NVRAM.
* :class:`RoutedLayout` presents the :class:`~repro.core.storage.layout.StorageLayout`
  API over one sub-layout per volume, routing inodes to their home volume
  and data blocks wherever the placement policy puts them.

Volume membership is *encoded in the inode number*: volume ``v`` hands out
numbers congruent to ``ROOT_INODE_NUMBER + v`` modulo the volume count, so
any component can recover a file's home volume from its identifier alone —
no routing table, no lookups, O(1) like the replacement subsystem.
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, Generator, Iterator, List, Optional, Sequence

from repro.assembly.registry import registry
from repro.core.blocks import CacheBlock
from repro.core.cache import BlockCache, CacheStatistics
from repro.core.faults import FaultState
from repro.core.inode import FileKind, Inode, ROOT_INODE_NUMBER
from repro.core.scheduler import Scheduler
from repro.core.storage.layout import ReadAhead, StorageLayout, WriteBack
from repro.core.storage.volume import Volume
from repro.core.sync import gather
from repro.errors import ConfigurationError, DataUnavailable, StorageError
from repro.units import add_counters

__all__ = [
    "PlacementPolicy",
    "HashPlacement",
    "StripedPlacement",
    "VolumeSet",
    "ShardedCache",
    "RoutedLayout",
]


# --------------------------------------------------------------------------- placement


class PlacementPolicy(ABC):
    """Decides which volume a file — and each of its blocks — lives on.

    The *home* volume holds the file's inode and is encoded in the inode
    number at allocation time (``number ≡ ROOT + home (mod volumes)``), so
    :meth:`volume_of_file` is pure arithmetic.  Block placement defaults to
    the home volume; striping policies override :meth:`volume_for_block`.
    """

    name = "abstract"

    def __init__(self, num_volumes: int):
        if num_volumes < 1:
            raise ConfigurationError("placement needs at least one volume")
        self.num_volumes = num_volumes
        #: every volume belongs to one machine, until a
        #: :class:`~repro.core.cluster.placement.ClusterPlacement` spreads
        #: them over nodes.
        self.volumes_per_node = num_volumes

    def node_of_volume(self, volume: int) -> int:
        return volume // self.volumes_per_node

    def volumes_of_node(self, node: int) -> range:
        start = node * self.volumes_per_node
        return range(start, start + self.volumes_per_node)

    @abstractmethod
    def home_for_new_file(self, parent_id: Optional[int], name: Optional[str], counter: int) -> int:
        """Home volume for a file about to be created.  ``counter`` is the
        array-wide allocation sequence number (a deterministic tiebreak for
        files with no parent/name hint)."""

    def volume_of_file(self, file_id: int) -> int:
        """Home volume of an existing file, recovered from its inode number."""
        return (file_id - ROOT_INODE_NUMBER) % self.num_volumes

    def volume_for_block(self, file_id: int, block_no: int) -> int:
        """Volume holding one logical block of ``file_id``."""
        return self.volume_of_file(file_id)

    def group_blocks(self, file_id: int, blocks: List[tuple]) -> Dict[int, list]:
        """``blocks`` (tuples led by a block number) of ``file_id`` grouped
        by the volume holding each, in their order: whole-file placement
        routes the file once."""
        return {self.volume_of_file(file_id): list(blocks)} if blocks else {}

    def forget(self, file_id: int) -> None:
        """``file_id`` is deleted: pure arithmetic keeps nothing to drop
        (the cluster placement tier keeps a routing entry per displaced
        file)."""


def _crc(text: str) -> int:
    return zlib.crc32(text.encode("utf-8", "replace"))


class HashPlacement(PlacementPolicy):
    """Whole-file placement by name hash: all blocks of a file live on the
    volume selected by hashing its (parent, leaf-name) identity, so load
    spreads statistically while every file stays one-volume-local."""

    name = "hash"

    def home_for_new_file(self, parent_id: Optional[int], name: Optional[str], counter: int) -> int:
        if name is None:
            return _crc(str(counter)) % self.num_volumes
        return _crc(f"{parent_id if parent_id is not None else 0}/{name}") % self.num_volumes


class StripedPlacement(PlacementPolicy):
    """Round-robin striping: consecutive runs of ``stripe_unit`` blocks of a
    file rotate over the volumes (RAID-0 at file-block granularity), so one
    large file drives every disk in the array at once.  The ``sun4_280``
    preset's default: it wins ``e2e/write_burst`` in ``BENCH_components.json``
    (3.14 / 3.44 / 3.20 ms against hash's 10.06 / 10.25 / 10.05 on seeds
    1-3), where large new files drain from the one NVRAM through all disks
    at once.  ``hash`` stays the default where files must stay whole: in a
    replicated cluster (replica sets derive from the home volume, so
    striping with replicas is refused) and in the Fig. 2-5 experiments."""

    name = "stripe"

    def __init__(self, num_volumes: int, stripe_unit: int = 16):
        super().__init__(num_volumes)
        if stripe_unit < 1:
            raise ConfigurationError("stripe unit must be at least one block")
        self.stripe_unit = stripe_unit

    def home_for_new_file(self, parent_id: Optional[int], name: Optional[str], counter: int) -> int:
        return counter % self.num_volumes

    def volume_for_block(self, file_id: int, block_no: int) -> int:
        return (file_id - ROOT_INODE_NUMBER + block_no // self.stripe_unit) % self.num_volumes

    def group_blocks(self, file_id: int, blocks: List[tuple]) -> Dict[int, list]:
        """Routes once per stripe unit of consecutive blocks, not per block."""
        groups: Dict[int, list] = {}
        unit, base = self.stripe_unit, file_id - ROOT_INODE_NUMBER
        run = group = None
        for item in blocks:
            if item[0] // unit != run:
                run = item[0] // unit
                group = groups.setdefault((base + run) % self.num_volumes, [])
            group.append(item)
        return groups


# "placement" factories take (num_volumes) and return a PlacementPolicy,
# keyed by ``ArrayConfig.placement``; striping runs at its default unit.
registry.register("placement", "hash", HashPlacement)
registry.register("placement", "stripe", StripedPlacement)


# --------------------------------------------------------------------------- volume set


class VolumeSet(Volume):
    """N independent volumes behind one handle.

    Implements the :class:`~repro.core.storage.volume.Volume` protocol for
    the operations the file-system layer performs on "the volume" as a
    whole (``block_size``, ``total_blocks``, ``flush``); everything
    block-address specific goes through the per-volume sub-layouts instead,
    so raw block I/O on the set itself is a usage error.
    """

    def __init__(self, volumes: Sequence[Volume]):
        if not volumes:
            raise StorageError("a volume set needs at least one volume")
        block_size = volumes[0].block_size
        if any(volume.block_size != block_size for volume in volumes):
            raise StorageError("all volumes in a set must share one block size")
        self.volumes = list(volumes)
        self.block_size = block_size

    @property
    def total_blocks(self) -> int:
        return sum(volume.total_blocks for volume in self.volumes)

    @property
    def num_disks(self) -> int:
        return sum(volume.num_disks for volume in self.volumes)

    def flush(self) -> Generator[Any, Any, None]:
        """Wait for every disk queue of every volume to drain."""
        for volume in self.volumes:
            yield from volume.flush()

    def read_run(self, block_addr: int, nblocks: int = 1) -> Generator[Any, Any, None]:
        raise StorageError(
            "a VolumeSet has no flat address space; block I/O goes through "
            "the per-volume sub-layouts"
        )
        yield  # pragma: no cover - generator shape

    def write_run(self, block_addr: int, nblocks: int, data) -> Generator[Any, Any, None]:
        raise StorageError(
            "a VolumeSet has no flat address space; block I/O goes through "
            "the per-volume sub-layouts"
        )
        yield  # pragma: no cover - generator shape

    def __len__(self) -> int:
        return len(self.volumes)

    def __iter__(self) -> Iterator[Volume]:
        return iter(self.volumes)

    def __getitem__(self, index: int) -> Volume:
        return self.volumes[index]

    def __repr__(self) -> str:
        return f"VolumeSet(volumes={len(self.volumes)}, blocks={self.total_blocks})"


# --------------------------------------------------------------------------- sharded cache


class ShardedCache:
    """One :class:`BlockCache` shard per node behind the ``BlockCache`` API.

    Block-identified operations route to the shard of the node whose volume
    stores the block (the router composes the placement with the node map,
    so a block's shard is always its disk's machine's memory); whole-cache
    and whole-file operations fan out over the shards.  With a single shard
    (every single machine) every call is a bare pass-through.
    """

    def __init__(self, shards: Sequence[BlockCache], router: Callable[[int, int], int]):
        if not shards:
            raise ConfigurationError("a sharded cache needs at least one shard")
        self.shards = list(shards)
        #: block -> shard index; a single shard needs no routing.
        self._router = router if len(self.shards) > 1 else lambda file_id, block_no: 0
        first = self.shards[0]
        if len(self.shards) == 1:
            # A single machine: the per-block calls are the shard's own.
            self.lookup, self.allocate_now = first.lookup, first.allocate_now
        self.scheduler = first.scheduler
        self.config = first.config
        self.block_size = first.block_size
        self.with_data = first.with_data

    # ------------------------------------------------------------------ routing

    def shard_for(self, file_id: int, block_no: int) -> BlockCache:
        return self.shards[self._router(file_id, block_no)]

    # ------------------------------------------------------------------ aggregate views

    @property
    def stats(self) -> CacheStatistics:
        """The shards' counters added up (``peak_dirty_bytes`` is the sum of
        the per-shard peaks, an upper bound on the simultaneous peak)."""
        return CacheStatistics(**add_counters(vars(shard.stats) for shard in self.shards))

    @property
    def num_blocks(self) -> int:
        return sum(shard.num_blocks for shard in self.shards)

    @property
    def free_count(self) -> int:
        return sum(shard.free_count for shard in self.shards)

    @property
    def dirty_count(self) -> int:
        return sum(shard.dirty_count for shard in self.shards)

    @property
    def cached_count(self) -> int:
        return sum(shard.cached_count for shard in self.shards)

    # -- the file system's writeback, fanned out to every shard ---------------

    @property
    def writeback(self):
        return self.shards[0].writeback

    @writeback.setter
    def writeback(self, fn) -> None:
        for shard in self.shards:
            shard.writeback = fn

    # ------------------------------------------------------------------ block-routed operations

    def contains(self, file_id: int, block_no: int) -> bool:
        return self.shards[self._router(file_id, block_no)].contains(file_id, block_no)

    def peek(self, file_id: int, block_no: int) -> Optional[CacheBlock]:
        return self.shards[self._router(file_id, block_no)].peek(file_id, block_no)

    def lookup(self, file_id: int, block_no: int) -> Optional[CacheBlock]:
        return self.shards[self._router(file_id, block_no)].lookup(file_id, block_no)

    #: allocate_now, then allocate_later if it found no slot: as a shard.
    allocate = BlockCache.allocate

    def allocate_now(self, file_id: int, block_no: int) -> Optional[CacheBlock]:
        return self.shards[self._router(file_id, block_no)].allocate_now(file_id, block_no)

    def allocate_later(self, file_id: int, block_no: int) -> Generator[Any, Any, CacheBlock]:
        shard = self.shard_for(file_id, block_no)
        block = yield from shard.allocate_later(file_id, block_no)
        if self.shard_for(file_id, block_no) is shard:
            return block
        # The block's routing changed while the allocation waited for
        # space (an online migration moved the file to another node).  The
        # slot landed in a shard nothing will ever route to again: release
        # it and allocate in the right shard instead.
        shard.invalidate(block)
        return (yield from self.allocate(file_id, block_no))

    def try_allocate(self, file_id: int, block_no: int) -> Optional[CacheBlock]:
        return self.shard_for(file_id, block_no).try_allocate(file_id, block_no)

    def mark_dirty(self, block: CacheBlock) -> Generator[Any, Any, None]:
        yield from block.owner.mark_dirty(block)

    def invalidate(self, block: CacheBlock) -> None:
        block.owner.invalidate(block)

    def wait_block_ready(self, file_id: int, block_no: int) -> Generator[Any, Any, None]:
        yield from self.shard_for(file_id, block_no).wait_block_ready()

    def notify_block_ready(self, file_id: int, block_no: int) -> None:
        self.shard_for(file_id, block_no).notify_block_ready()

    # ------------------------------------------------------------------ fan-out queries

    def dirty_blocks_of(self, file_id: int) -> List[CacheBlock]:
        return [block for shard in self.shards for block in shard.dirty_blocks_of(file_id)]

    def cached_blocks_of(self, file_id: int) -> List[CacheBlock]:
        return [block for shard in self.shards for block in shard.cached_blocks_of(file_id)]

    # ------------------------------------------------------------------ fan-out mutations

    def invalidate_file(self, file_id: int, from_block: int = 0) -> tuple[int, int]:
        """(clean, dirty) blocks dropped, over every shard."""
        dropped = [shard.invalidate_file(file_id, from_block) for shard in self.shards]
        return sum(clean for clean, _ in dropped), sum(dirty for _, dirty in dropped)

    def flush_file(self, file_id: int) -> Generator[Any, Any, int]:
        """Every shard holding dirty blocks of the file writes at once."""
        jobs = [s.flush_file(file_id) for s in self.shards if s.dirty_blocks_of(file_id)]
        return sum((yield from gather(self.scheduler, jobs, name="flush-shard")))

    def flush_all(self) -> Generator[Any, Any, int]:
        """Every dirty shard flushes at once: a sync takes its slowest node's time."""
        jobs = [shard.flush_all() for shard in self.shards if shard.dirty_count]
        return sum((yield from gather(self.scheduler, jobs, name="flush-shard")))

    def __repr__(self) -> str:
        return (
            f"ShardedCache(shards={len(self.shards)}, blocks={self.num_blocks}, "
            f"free={self.free_count}, dirty={self.dirty_count})"
        )


# --------------------------------------------------------------------------- routed layout


class RoutedLayout(StorageLayout):
    """A storage layout routing files and blocks over per-volume sub-layouts.

    Each volume runs its own complete layout instance (an LFS) over its
    own disks; this class owns only the *routing*: inode numbers are handed
    out in per-volume arithmetic progressions (``number ≡ ROOT + v`` modulo
    the volume count) so a file's home volume is recoverable from its
    identifier, and data blocks follow the placement policy — the home
    volume for whole-file policies, rotating volumes for striping.
    """

    name = "array"

    def __init__(
        self,
        scheduler: Scheduler,
        volume_set: VolumeSet,
        sublayouts: Sequence[StorageLayout],
        placement: PlacementPolicy,
        block_size: int,
        seed: int = 0,
    ):
        if len(sublayouts) != len(volume_set):
            raise ConfigurationError("need exactly one sub-layout per volume")
        if placement.num_volumes != len(sublayouts):
            raise ConfigurationError("placement volume count must match the sub-layouts")
        super().__init__(
            scheduler,
            volume_set,
            block_size,
            simulated=sublayouts[0].simulated,
            seed=seed,
        )
        self.sublayouts = list(sublayouts)
        self.placement = placement
        self._next_number = [ROOT_INODE_NUMBER + v for v in range(len(self.sublayouts))]
        self._file_counter = 0
        #: the fault board: inert (one attribute check per I/O) until a
        #: fault schedule or a test marks a volume dead, unreachable or slow.
        self.faults = FaultState(placement)
        #: what persists the routing table, attached by the builder (the
        #: durable metadata tier): wiped at format, recovered once the
        #: sub-layouts are mounted, checkpointed before they unmount.
        self.tiers: List[Any] = []
        #: replica manager (``repro.core.cluster.replication``) — attached
        #: by the builder when ``ClusterConfig.replicas`` > 0.
        self.replication: Optional[Any] = None

    # ------------------------------------------------------------------ routing helpers

    @property
    def num_volumes(self) -> int:
        return len(self.sublayouts)

    def home_of(self, file_id: int) -> int:
        return self.placement.volume_of_file(file_id)

    def sub_for_file(self, file_id: int) -> StorageLayout:
        return self.sublayouts[self.home_of(file_id)]

    # ------------------------------------------------------------------ lifecycle

    def format(self) -> Generator[Any, Any, None]:
        self._next_number = [ROOT_INODE_NUMBER + v for v in range(self.num_volumes)]
        self._file_counter = 0
        for sub in self.sublayouts:
            yield from sub.format()
        for tier in self.tiers:
            # A fresh file system must not inherit stale routing.
            tier.wipe()

    def mount(self) -> Generator[Any, Any, None]:
        for sub in self.sublayouts:
            yield from sub.mount()
        for tier in self.tiers:
            # Manifest + WAL replay, before the first path lookup routes
            # anything.
            yield from tier.recover()
        # Resume each volume's progression past every number already handed
        # out: what the sub-layouts loaded from disk, and each one's own
        # persisted counter (which also remembers deleted files).  A fresh
        # or simulated mount finds nothing and starts at the root.
        volumes = self.num_volumes
        known = self.known_inode_numbers()
        self._file_counter = len(known)
        floors = [sub.next_inode_number for sub in self.sublayouts]  # type: ignore[attr-defined]
        for number in known:
            v = (number - ROOT_INODE_NUMBER) % volumes
            floors[v] = max(floors[v], number + 1)
        self._next_number = [
            floor + (ROOT_INODE_NUMBER + v - floor) % volumes for v, floor in enumerate(floors)
        ]

    def checkpoint(self) -> Generator[Any, Any, None]:
        jobs = [sub.checkpoint() for sub in self.sublayouts]
        yield from gather(self.scheduler, jobs, name="checkpoint-volume")

    def unmount(self) -> Generator[Any, Any, None]:
        for tier in self.tiers:
            yield from tier.on_unmount()
        for sub in self.sublayouts:
            yield from sub.unmount()

    # ------------------------------------------------------------------ inodes

    def allocate_inode(
        self,
        kind: FileKind,
        parent_id: Optional[int] = None,
        name: Optional[str] = None,
    ) -> Inode:
        if self._file_counter == 0:
            # The very first allocation is the root directory; like the
            # superblock it lives on volume 0.
            home = 0
        else:
            home = self.placement.home_for_new_file(parent_id, name, self._file_counter)
        number = self._next_number[home]
        self._next_number[home] += self.num_volumes
        sub = self.sublayouts[home]
        # Force the home volume's progression onto the sub-layout's counter;
        # the sub-layout allocates exactly this number and we never reuse it.
        sub.next_inode_number = number  # type: ignore[attr-defined]
        inode = sub.allocate_inode(kind)
        self._file_counter += 1
        return inode

    def known_inode_numbers(self) -> List[int]:
        known: set[int] = set()
        for sub in self.sublayouts:
            known.update(sub.known_inode_numbers())
        return sorted(known)

    def read_inode(self, inode_number: int) -> Generator[Any, Any, Inode]:
        volume = self.home_of(inode_number)
        faults = self.faults
        if faults.active and faults.volume_unavailable(volume):
            faults.note_failed_read(volume)
            if self.replication is not None:
                return (
                    yield from self.replication.read_inode_failover(inode_number, volume)
                )
            raise DataUnavailable(
                f"inode {inode_number} lives on unavailable volume {volume} "
                "and the cluster keeps no replicas"
            )
        return (yield from self.sublayouts[volume].read_inode(inode_number))

    def free_inode(self, inode: Inode) -> Generator[Any, Any, None]:
        if self.replication is not None:
            yield from self.replication.free_replicas(inode)
        # Data blocks may be spread over several volumes (striping); release
        # them through the router first, then retire the inode on its home.
        yield from self.release_blocks(inode, 0)
        yield from self.sub_for_file(inode.number).free_inode(inode)
        self.placement.forget(inode.number)

    # ------------------------------------------------------------------ data blocks

    def read_file_blocks(
        self,
        inode: Inode,
        blocks: List[tuple[int, CacheBlock]],
        *,
        readahead: Optional[ReadAhead] = None,
    ) -> Generator[Any, Any, int]:
        """Group the call's blocks by volume (as :meth:`write_files`
        does) and read every group at once: a striped file keeps all its
        volumes busy for one client read."""
        groups = self.placement.group_blocks(inode.number, blocks)
        counts = yield from gather(
            self.scheduler,
            [
                self._read_group(inode, volume, groups[volume], readahead)
                for volume in sorted(groups)
            ],
            name="read-volume",
        )
        return sum(counts)

    def _read_group(
        self,
        inode: Inode,
        volume: int,
        group: List[tuple[int, CacheBlock]],
        readahead: Optional[ReadAhead],
    ) -> Generator[Any, Any, int]:
        """One volume's share of a read: fault delay and fail-over apply to
        the group as a whole."""
        faults = self.faults
        if faults.active:
            if faults.volume_unavailable(volume):
                faults.note_failed_read(volume, len(group))
                if self.replication is not None:
                    return (yield from self.replication.read_failover(inode, group, volume))
                raise DataUnavailable(
                    f"blocks {[block_no for block_no, _ in group]} of file "
                    f"{inode.number} live on unavailable volume {volume} "
                    "and the cluster keeps no replicas"
                )
            extra = faults.extra_delay(volume)
            if extra:
                yield from self.scheduler.sleep(extra)
        own_blocks_only = None
        if readahead is not None:
            # The inode maps every volume's blocks, each in its own address
            # space: a sub-layout may only run on into blocks that are its.
            placement, number = self.placement, inode.number

            def own_blocks_only(block_no: int) -> Optional[CacheBlock]:
                if placement.volume_for_block(number, block_no) != volume:
                    return None
                return readahead(block_no)

        return (
            yield from self.sublayouts[volume].read_file_blocks(
                inode, group, readahead=own_blocks_only
            )
        )

    def write_files(self, files: List[WriteBack]) -> Generator[Any, Any, None]:
        """Split a writeback batch by volume and hand each volume its share
        as one batch, all in flight at once, replica copies alongside.  The
        shares carrying no inode go first — a striped file's blocks on
        volumes other than its home — so every inode lands behind the blocks
        it maps; an inode whose home got no blocks has its own entry there."""
        phases: tuple[Dict[int, List[WriteBack]], ...] = ({}, {})
        group_blocks = self.placement.group_blocks
        for inode, blocks, with_inode in files:
            groups = group_blocks(inode.number, blocks)
            if with_inode:
                home = self.home_of(inode.number)
                groups.setdefault(home, [])
            for volume, group in groups.items():
                carries = with_inode and volume == home
                phases[carries].setdefault(volume, []).append((inode, group, carries))
        copies = []
        if self.replication is not None:
            copies = yield from self.replication.replicate([(i, b) for i, b, _w in files])
        yield from gather(self.scheduler, [self._write_phases(phases), *copies], name="write-copy")

    def _write_phases(self, phases: Sequence[dict]) -> Generator[Any, Any, None]:
        for phase in phases:
            jobs = [self._write_share(volume, phase[volume]) for volume in sorted(phase)]
            yield from gather(self.scheduler, jobs, name="write-volume")

    def _write_share(self, volume: int, share: List[WriteBack]) -> Generator[Any, Any, None]:
        """One volume's share of a write: fault drop and delay apply to the
        share as a whole."""
        faults = self.faults
        if faults.active:
            if faults.volume_unavailable(volume):
                # A dead disk eats the write; the flusher completes and the
                # data survives only where replication put a copy.
                faults.note_dropped_write(volume, sum(len(b) or 1 for _i, b, _w in share))
                return
            extra = faults.extra_delay(volume)
            if extra:
                yield from self.scheduler.sleep(extra)
        yield from self.sublayouts[volume].write_files(share)

    def release_blocks(self, inode: Inode, from_block: int) -> Generator[Any, Any, None]:
        groups = self.placement.group_blocks(
            inode.number, [item for item in inode.block_map.items() if item[0] >= from_block]
        )
        for volume in sorted(groups):
            # Each sub-layout must only see (and free) the addresses it owns,
            # so hand it a shim inode carrying just that volume's mappings.
            shim = Inode(number=inode.number, kind=inode.kind)
            shim.block_map = dict(groups[volume])
            yield from self.sublayouts[volume].release_blocks(shim, from_block)
        inode.drop_blocks_from(from_block)

    # ------------------------------------------------------------------ space accounting

    @property
    def free_blocks(self) -> int:
        return sum(sub.free_blocks for sub in self.sublayouts)

    @property
    def free_segment_fraction(self) -> float:
        """Mean free-segment fraction over the sub-layouts."""
        return sum(sub.free_segment_fraction for sub in self.sublayouts) / len(self.sublayouts)

    # ------------------------------------------------------------------ reporting

    def combined_stats(self) -> dict:
        """Summed :class:`~repro.core.storage.layout.LayoutStatistics` over
        the sub-layouts (the per-volume breakdown lives in the report), plus
        what is counted against the router itself (``coalesced_read_hits``:
        the file system credits the layout it talks to)."""
        return add_counters(vars(layout.stats) for layout in (self, *self.sublayouts))

    def __repr__(self) -> str:
        return (
            f"RoutedLayout(volumes={self.num_volumes}, "
            f"placement={self.placement.name!r}, kind={self.sublayouts[0].name!r})"
        )
