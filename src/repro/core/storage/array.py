"""The multi-volume storage array: placement, cache shards and routing.

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
  API over one cache shard per volume, so the file system, the flush
  daemons and the replacement subsystem run unchanged against either a
  single cache or N shards.
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
from typing import Any, Callable, Dict, Generator, Iterable, Iterator, List, Optional, Sequence

from repro.assembly.registry import registry
from repro.core.blocks import CacheBlock
from repro.core.cache import BlockCache, CacheStatistics
from repro.core.faults import FaultState
from repro.core.inode import FileKind, Inode, ROOT_INODE_NUMBER
from repro.core.scheduler import Scheduler
from repro.core.storage.layout import ReadAhead, StorageLayout
from repro.core.storage.volume import Volume
from repro.core.sync import gather
from repro.errors import ConfigurationError, DataUnavailable, StorageError

__all__ = [
    "PlacementPolicy",
    "HashPlacement",
    "StripedPlacement",
    "DirectoryAffinityPlacement",
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
    def home_for_new_file(
        self,
        parent_id: Optional[int],
        name: Optional[str],
        counter: int,
        kind: Optional[FileKind] = None,
    ) -> int:
        """Home volume for a file about to be created.  ``counter`` is the
        array-wide allocation sequence number (a deterministic tiebreak for
        files with no parent/name hint); ``kind`` lets policies treat
        directories differently from regular files."""

    def volume_of_file(self, file_id: int) -> int:
        """Home volume of an existing file, recovered from its inode number."""
        return (file_id - ROOT_INODE_NUMBER) % self.num_volumes

    def volume_for_block(self, file_id: int, block_no: int) -> int:
        """Volume holding one logical block of ``file_id``."""
        return self.volume_of_file(file_id)

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

    def home_for_new_file(
        self,
        parent_id: Optional[int],
        name: Optional[str],
        counter: int,
        kind: Optional[FileKind] = None,
    ) -> int:
        if name is None:
            return _crc(str(counter)) % self.num_volumes
        return _crc(f"{parent_id if parent_id is not None else 0}/{name}") % self.num_volumes


class StripedPlacement(PlacementPolicy):
    """Round-robin striping: consecutive runs of ``stripe_unit`` blocks of a
    file rotate over the volumes (RAID-0 at file-block granularity), so one
    large file drives every disk in the array at once."""

    name = "stripe"

    def __init__(self, num_volumes: int, stripe_unit: int = 16):
        super().__init__(num_volumes)
        if stripe_unit < 1:
            raise ConfigurationError("stripe unit must be at least one block")
        self.stripe_unit = stripe_unit

    def home_for_new_file(
        self,
        parent_id: Optional[int],
        name: Optional[str],
        counter: int,
        kind: Optional[FileKind] = None,
    ) -> int:
        return counter % self.num_volumes

    def volume_for_block(self, file_id: int, block_no: int) -> int:
        home = self.volume_of_file(file_id)
        return (home + block_no // self.stripe_unit) % self.num_volumes


class DirectoryAffinityPlacement(PlacementPolicy):
    """Directory affinity: the FFS cylinder-group idea lifted to array
    scale.  New *directories* are spread over the volumes (by name hash) so
    the namespace fans out; regular files then land on their parent
    directory's volume, keeping name lookups, dirent updates and the files
    of one working directory on a single set of disk arms."""

    name = "directory"

    def home_for_new_file(
        self,
        parent_id: Optional[int],
        name: Optional[str],
        counter: int,
        kind: Optional[FileKind] = None,
    ) -> int:
        if kind is FileKind.DIRECTORY:
            if name is None:
                return counter % self.num_volumes
            return _crc(f"{parent_id if parent_id is not None else 0}/{name}") % self.num_volumes
        if parent_id is None:
            return counter % self.num_volumes
        return self.volume_of_file(parent_id)


# "placement" factories take (num_volumes, stripe_unit=...) and return a
# PlacementPolicy, keyed by ``ArrayConfig.placement``; whole-file policies
# ignore the stripe keyword.
registry.register(
    "placement", "hash", lambda num_volumes, stripe_unit=16: HashPlacement(num_volumes)
)
registry.register("placement", "stripe", StripedPlacement)
registry.register(
    "placement",
    "directory",
    lambda num_volumes, stripe_unit=16: DirectoryAffinityPlacement(num_volumes),
)


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


class ShardedCacheStatistics:
    """Read-only aggregate view over per-shard :class:`CacheStatistics`.

    Counter attributes sum across the shards on every access, so the view
    is always current.  ``peak_dirty_bytes`` is the sum of per-shard peaks —
    an upper bound on the true simultaneous aggregate peak.
    """

    _FIELDS = tuple(CacheStatistics().snapshot().keys())

    def __init__(self, shards: Sequence[BlockCache]):
        self._shards = list(shards)

    def __getattr__(self, name: str):
        if name in self._FIELDS and name != "hit_rate":
            return sum(getattr(shard.stats, name) for shard in self._shards)
        raise AttributeError(name)

    @property
    def hit_rate(self) -> float:
        lookups = sum(shard.stats.lookups for shard in self._shards)
        if lookups == 0:
            return 0.0
        return sum(shard.stats.hits for shard in self._shards) / lookups

    def snapshot(self) -> dict:
        snapshot: Dict[str, Any] = {}
        for shard in self._shards:
            for key, value in shard.stats.snapshot().items():
                snapshot[key] = snapshot.get(key, 0) + value
        snapshot["hit_rate"] = self.hit_rate
        return snapshot


class _ShardedPolicyView:
    """Aggregate view of the per-shard replacement policies (name plus a
    summed counter snapshot) for reports that expect ``cache.policy``."""

    def __init__(self, shards: Sequence[BlockCache]):
        self._shards = list(shards)

    @property
    def name(self) -> str:
        return self._shards[0].policy.name

    def snapshot(self) -> dict:
        merged: Dict[str, Any] = {}
        for shard in self._shards:
            for key, value in shard.policy.snapshot().items():
                if isinstance(value, (int, float)) and isinstance(
                    merged.get(key, 0), (int, float)
                ):
                    merged[key] = merged.get(key, 0) + value
                else:
                    merged.setdefault(key, value)
        return merged


class ShardedCache:
    """Per-volume :class:`BlockCache` shards behind the ``BlockCache`` API.

    Block-identified operations route to the owning shard via the placement
    router (the same function that places the block on disk, so a block's
    cache shard always fronts the volume that stores it); whole-cache and
    whole-file operations fan out over the shards.  With a single shard
    (the default one-volume stack) every call is a bare pass-through.
    """

    def __init__(self, shards: Sequence[BlockCache], router: Callable[[int, int], int]):
        if not shards:
            raise ConfigurationError("a sharded cache needs at least one shard")
        self.shards = list(shards)
        self._router = router
        first = self.shards[0]
        self.scheduler = first.scheduler
        self.config = first.config
        self.block_size = first.block_size
        self.with_data = first.with_data
        self._aggregate = (
            first.stats if len(self.shards) == 1 else ShardedCacheStatistics(self.shards)
        )
        self._policy_view = (
            first.policy if len(self.shards) == 1 else _ShardedPolicyView(self.shards)
        )

    # ------------------------------------------------------------------ routing

    def shard_index(self, file_id: int, block_no: int) -> int:
        if len(self.shards) == 1:
            return 0
        return self._router(file_id, block_no) % len(self.shards)

    def shard_for(self, file_id: int, block_no: int) -> BlockCache:
        return self.shards[self.shard_index(file_id, block_no)]

    def _shard_of_block(self, block: CacheBlock) -> BlockCache:
        block_id = block.block_id
        if block_id is None:
            raise ConfigurationError("cannot route a cache block with no identity")
        routed = self.shard_for(block_id.file_id, block_id.block_no)
        if routed.peek(block_id.file_id, block_id.block_no) is block:
            return routed
        # A repair promotion can flip the file's home volume while a thread
        # holds one of its blocks pinned: new lookups route to the new home,
        # but this block still lives in the shard it was allocated in.
        # Route by residence so the in-flight operation completes against
        # its own slot (the old node's flush path then drops the I/O).
        for shard in self.shards:
            if shard.peek(block_id.file_id, block_id.block_no) is block:
                return shard
        return routed

    # ------------------------------------------------------------------ aggregate views

    @property
    def stats(self):
        return self._aggregate

    @property
    def policy(self):
        return self._policy_view

    @property
    def num_blocks(self) -> int:
        return sum(shard.num_blocks for shard in self.shards)

    @property
    def free_count(self) -> int:
        return sum(shard.free_count for shard in self.shards)

    @property
    def clean_count(self) -> int:
        return sum(shard.clean_count for shard in self.shards)

    @property
    def dirty_count(self) -> int:
        return sum(shard.dirty_count for shard in self.shards)

    @property
    def dirty_bytes(self) -> int:
        return sum(shard.dirty_bytes for shard in self.shards)

    @property
    def cached_count(self) -> int:
        return sum(shard.cached_count for shard in self.shards)

    # -- shared cache knobs, fanned out to every shard -------------------------

    @property
    def writeback(self):
        return self.shards[0].writeback

    @writeback.setter
    def writeback(self, fn) -> None:
        for shard in self.shards:
            shard.writeback = fn

    @property
    def dirty_limit_bytes(self) -> Optional[int]:
        return self.shards[0].dirty_limit_bytes

    @dirty_limit_bytes.setter
    def dirty_limit_bytes(self, limit: Optional[int]) -> None:
        for shard in self.shards:
            shard.dirty_limit_bytes = limit

    @property
    def space_requester(self):
        return self.shards[0].space_requester

    @space_requester.setter
    def space_requester(self, fn) -> None:
        for shard in self.shards:
            shard.space_requester = fn

    # ------------------------------------------------------------------ block-routed operations

    def contains(self, file_id: int, block_no: int) -> bool:
        return self.shard_for(file_id, block_no).contains(file_id, block_no)

    def peek(self, file_id: int, block_no: int) -> Optional[CacheBlock]:
        return self.shard_for(file_id, block_no).peek(file_id, block_no)

    def lookup(self, file_id: int, block_no: int) -> Optional[CacheBlock]:
        return self.shard_for(file_id, block_no).lookup(file_id, block_no)

    def allocate(self, file_id: int, block_no: int) -> Generator[Any, Any, CacheBlock]:
        while True:
            shard = self.shard_for(file_id, block_no)
            block = yield from shard.allocate(file_id, block_no)
            if self.shard_for(file_id, block_no) is shard:
                return block
            # The block's routing changed while the allocation waited for
            # space (an online migration flipped the file's home volume).
            # The slot landed in a shard nothing will ever route to again:
            # release it and allocate in the right shard instead.
            shard.invalidate(block)

    def try_allocate(self, file_id: int, block_no: int) -> Optional[CacheBlock]:
        return self.shard_for(file_id, block_no).try_allocate(file_id, block_no)

    def touch(self, block: CacheBlock) -> None:
        self._shard_of_block(block).touch(block)

    def mark_dirty(self, block: CacheBlock) -> Generator[Any, Any, None]:
        yield from self._shard_of_block(block).mark_dirty(block)

    def mark_clean(self, block: CacheBlock) -> None:
        self._shard_of_block(block).mark_clean(block)

    def invalidate(self, block: CacheBlock) -> None:
        self._shard_of_block(block).invalidate(block)

    def flush_block(self, block: CacheBlock) -> Generator[Any, Any, int]:
        return (yield from self._shard_of_block(block).flush_block(block))

    def wait_block_ready(
        self, file_id: Optional[int] = None, block_no: Optional[int] = None
    ) -> Generator[Any, Any, None]:
        if file_id is not None and block_no is not None:
            yield from self.shards[self.shard_index(file_id, block_no)].wait_block_ready()
        else:
            yield from self.shards[0].wait_block_ready()

    def notify_block_ready(
        self, file_id: Optional[int] = None, block_no: Optional[int] = None
    ) -> None:
        if file_id is not None and block_no is not None:
            self.shards[self.shard_index(file_id, block_no)].notify_block_ready()
        else:
            for shard in self.shards:
                shard.notify_block_ready()

    # ------------------------------------------------------------------ fan-out queries

    def dirty_blocks_of(self, file_id: int) -> List[CacheBlock]:
        blocks: List[CacheBlock] = []
        for shard in self.shards:
            blocks.extend(shard.dirty_blocks_of(file_id))
        return blocks

    def cached_blocks_of(self, file_id: int) -> List[CacheBlock]:
        blocks: List[CacheBlock] = []
        for shard in self.shards:
            blocks.extend(shard.cached_blocks_of(file_id))
        return blocks

    def oldest_dirty(self, skip_busy: bool = True) -> Optional[CacheBlock]:
        oldest: Optional[CacheBlock] = None
        for shard in self.shards:
            candidate = shard.oldest_dirty(skip_busy=skip_busy)
            if candidate is None:
                continue
            if oldest is None or (candidate.dirty_since or 0.0) < (oldest.dirty_since or 0.0):
                oldest = candidate
        return oldest

    def dirty_files(self) -> List[int]:
        entries: List[tuple[float, int]] = []
        for shard in self.shards:
            for block in shard._dirty.values():
                entries.append((block.dirty_since or 0.0, block.block_id.file_id))
        entries.sort(key=lambda item: item[0])
        return list(dict.fromkeys(file_id for _when, file_id in entries))

    def blocks(self) -> Iterable[CacheBlock]:
        for shard in self.shards:
            yield from shard.blocks()

    def oldest_dirty_age(self) -> float:
        return max((shard.oldest_dirty_age() for shard in self.shards), default=0.0)

    def has_allocatable_slot(self) -> bool:
        return any(shard.has_allocatable_slot() for shard in self.shards)

    def notify_space_available(self) -> None:
        for shard in self.shards:
            shard.notify_space_available()

    # ------------------------------------------------------------------ fan-out mutations

    def invalidate_file(self, file_id: int, from_block: int = 0) -> tuple[int, int]:
        clean_dropped = 0
        dirty_dropped = 0
        for shard in self.shards:
            clean, dirty = shard.invalidate_file(file_id, from_block)
            clean_dropped += clean
            dirty_dropped += dirty
        return clean_dropped, dirty_dropped

    def flush_file(self, file_id: int) -> Generator[Any, Any, int]:
        written = 0
        for shard in self.shards:
            written += yield from shard.flush_file(file_id)
        return written

    def flush_oldest(self) -> Generator[Any, Any, int]:
        """One flush unit of the shard holding the oldest dirty block (a
        shard only sees its own stripe units of a striped file)."""
        victim = self.oldest_dirty()
        if victim is None:
            return 0
        return (yield from self._shard_of_block(victim).flush_oldest())

    def flush_all(self) -> Generator[Any, Any, int]:
        written = 0
        for shard in self.shards:
            written += yield from shard.flush_all()
        return written

    def __repr__(self) -> str:
        return (
            f"ShardedCache(shards={len(self.shards)}, blocks={self.num_blocks}, "
            f"free={self.free_count}, clean={self.clean_count}, dirty={self.dirty_count})"
        )


# --------------------------------------------------------------------------- routed layout


class RoutedLayout(StorageLayout):
    """A storage layout routing files and blocks over per-volume sub-layouts.

    Each volume runs its own complete layout instance (LFS or FFS) over its
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
        volumes = len(self.sublayouts)
        for v, sub in enumerate(self.sublayouts):
            # Slot-mapped layouts (FFS) must be built for exactly this
            # member's arithmetic progression of inode numbers.
            stride = getattr(sub, "inode_stride", None)
            if stride is not None and (stride, getattr(sub, "inode_base", None)) != (volumes, v):
                raise ConfigurationError(
                    f"sub-layout {v} expects inode progression base="
                    f"{getattr(sub, 'inode_base', None)} stride={stride}, "
                    f"but this array hands it base={v} stride={volumes}"
                )
        self._next_number = [ROOT_INODE_NUMBER + v for v in range(volumes)]
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
        for sub in self.sublayouts:
            yield from sub.checkpoint()

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
            home = self.placement.home_for_new_file(
                parent_id, name, self._file_counter, kind=kind
            )
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

    def write_inode(self, inode: Inode) -> Generator[Any, Any, None]:
        yield from self._write_home_inode(inode)
        if self.replication is not None:
            yield from self.replication.replicate(inode)

    def _write_home_inode(self, inode: Inode) -> Generator[Any, Any, None]:
        volume = self.home_of(inode.number)
        faults = self.faults
        if faults.active and faults.volume_unavailable(volume):
            # The home volume eats the write — the data loss replication
            # absorbs (and a bare cluster simply suffers).
            faults.note_dropped_write(volume)
        else:
            yield from self.sublayouts[volume].write_inode(inode)

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
        """Group the call's blocks by volume (as :meth:`write_file_blocks`
        does) and read every group at once: a striped file keeps all its
        volumes busy for one client read."""
        groups: Dict[int, List[tuple[int, CacheBlock]]] = {}
        for block_no, cache_block in blocks:
            volume = self.placement.volume_for_block(inode.number, block_no)
            groups.setdefault(volume, []).append((block_no, cache_block))
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

    def write_file_blocks(
        self,
        inode: Inode,
        blocks: List[tuple[int, CacheBlock]],
        *,
        with_inode: bool = True,
    ) -> Generator[Any, Any, None]:
        if not blocks:
            return
        groups: Dict[int, List[tuple[int, CacheBlock]]] = {}
        for block_no, cache_block in blocks:
            volume = self.placement.volume_for_block(inode.number, block_no)
            groups.setdefault(volume, []).append((block_no, cache_block))
        home = self.home_of(inode.number)
        faults = self.faults
        # The home volume goes last: its append carries the inode, which
        # must map the blocks a striped file just placed on other volumes.
        for volume in sorted(groups, key=lambda v: (v == home, v)):
            if faults.active:
                if faults.volume_unavailable(volume):
                    # A dead disk eats the write; the flusher completes and
                    # the data survives only where replication put a copy.
                    faults.note_dropped_write(volume, len(groups[volume]))
                    continue
                extra = faults.extra_delay(volume)
                if extra:
                    yield from self.scheduler.sleep(extra)
            yield from self.sublayouts[volume].write_file_blocks(
                inode, groups[volume], with_inode=with_inode and volume == home
            )
        if with_inode and home not in groups:
            yield from self._write_home_inode(inode)
        if self.replication is not None:
            # A copy is always one append: blocks and shadow inode together.
            yield from self.replication.replicate(inode, blocks)

    def release_blocks(self, inode: Inode, from_block: int) -> Generator[Any, Any, None]:
        groups: Dict[int, Dict[int, int]] = {}
        for block_no, address in inode.block_map.items():
            if block_no < from_block:
                continue
            volume = self.placement.volume_for_block(inode.number, block_no)
            groups.setdefault(volume, {})[block_no] = address
        for volume in sorted(groups):
            # Each sub-layout must only see (and free) the addresses it owns,
            # so hand it a shim inode carrying just that volume's mappings.
            shim = Inode(number=inode.number, kind=inode.kind)
            shim.block_map = groups[volume]
            yield from self.sublayouts[volume].release_blocks(shim, from_block)
        inode.drop_blocks_from(from_block)

    # ------------------------------------------------------------------ space accounting

    @property
    def free_blocks(self) -> int:
        return sum(sub.free_blocks for sub in self.sublayouts)

    @property
    def free_segment_fraction(self) -> float:
        """Mean free-segment fraction over LFS sub-layouts (1.0 otherwise)."""
        fractions = [
            sub.free_segment_fraction
            for sub in self.sublayouts
            if hasattr(sub, "free_segment_fraction")
        ]
        if not fractions:
            return 1.0
        return sum(fractions) / len(fractions)

    # ------------------------------------------------------------------ reporting

    def combined_stats(self) -> dict:
        """Summed :class:`~repro.core.storage.layout.LayoutStatistics` over
        the sub-layouts (the per-volume breakdown lives in the report), plus
        what is counted against the router itself (``coalesced_read_hits``:
        the file system credits the layout it talks to)."""
        totals: Dict[str, int] = {}
        for layout in (self, *self.sublayouts):
            for key, value in vars(layout.stats).items():
                if isinstance(value, (int, float)):
                    totals[key] = totals.get(key, 0) + value
        return totals

    def __repr__(self) -> str:
        return (
            f"RoutedLayout(volumes={self.num_volumes}, "
            f"placement={self.placement.name!r}, kind={self.sublayouts[0].name!r})"
        )
