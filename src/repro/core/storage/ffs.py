"""An FFS-like write-in-place storage layout.

The paper notes that "to implement other storage-layouts (such as a Unix
FFS, EFS, or journalling file-systems), a new derived storage-layout class
needs to be written that defines a new storage-layout on disk".  This module
is that demonstration: a simple update-in-place layout with a fixed inode
region and a block allocator with locality hints.  It plugs into exactly the
same slot as the segmented LFS and is exercised by tests and by the layout
ablation benchmark.

On-disk format (real instantiation):

```
block 0                      superblock
blocks 1 .. max_inodes       inode region (one block per inode slot)
blocks max_inodes+1 .. end   data region (bitmap-allocated)
```

The allocation bitmap is not persisted; :meth:`mount` rebuilds it by scanning
the inode region (an fsck-style sweep), which doubles as a consistency check.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.assembly.registry import registry
from repro.core import codec
from repro.core.blocks import CacheBlock
from repro.core.inode import FileKind, Inode, ROOT_INODE_NUMBER
from repro.core.scheduler import Scheduler
from repro.core.storage.allocator import BlockAllocator
from repro.core.storage.layout import StorageLayout
from repro.core.storage.volume import Volume
from repro.errors import StorageError
from repro.units import DEFAULT_BLOCK_SIZE

__all__ = ["FfsLikeLayout"]


class FfsLikeLayout(StorageLayout):
    """Write-in-place layout with a fixed inode table."""

    name = "ffs"

    def __init__(
        self,
        scheduler: Scheduler,
        volume: Volume,
        block_size: int = DEFAULT_BLOCK_SIZE,
        max_inodes: Optional[int] = None,
        simulated: bool = False,
        seed: int = 0,
        inode_base: int = 0,
        inode_stride: int = 1,
    ):
        """``inode_base``/``inode_stride`` describe the arithmetic
        progression of inode numbers this layout serves: a standalone file
        system owns every number (base 0, stride 1), while volume ``v`` of a
        ``V``-volume array owns ``ROOT + v, ROOT + v + V, ...`` (base ``v``,
        stride ``V``).  Slots are allocated densely within the progression,
        so a member of an array keeps its full inode-table capacity."""
        super().__init__(scheduler, volume, block_size, simulated=simulated, seed=seed)
        if inode_stride < 1 or not (0 <= inode_base < inode_stride):
            raise StorageError("need 0 <= inode_base < inode_stride")
        self.inode_base = inode_base
        self.inode_stride = inode_stride
        if max_inodes is None:
            # One block per inode slot: auto-size the table to an eighth of
            # the volume so small volumes keep a usable data region.
            max_inodes = min(max(volume.total_blocks // 8, 8), 4096)
        if max_inodes < 8:
            raise StorageError("FFS layout needs at least 8 inode slots")
        data_start = 1 + max_inodes
        if data_start + 8 > volume.total_blocks:
            raise StorageError("volume too small for the requested inode region")
        self.max_inodes = max_inodes
        self.inode_region_start = 1
        self.data_region_start = data_start
        self.allocator = BlockAllocator(data_start, volume.total_blocks - data_start)
        self.next_inode_number = ROOT_INODE_NUMBER + inode_base
        self._inode_objects: dict[int, Inode] = {}
        self._known_inodes: set[int] = set()
        self._mounted = False

    # ------------------------------------------------------------------ lifecycle

    def format(self) -> Generator[Any, Any, None]:
        self._inode_objects.clear()
        self._known_inodes.clear()
        self.next_inode_number = ROOT_INODE_NUMBER + self.inode_base
        self.allocator = BlockAllocator(
            self.data_region_start, self.volume.total_blocks - self.data_region_start
        )
        if self.simulated:
            return
        superblock = codec.pack_superblock(
            self.block_size, 0, self.volume.total_blocks, 0, 0
        )
        yield from self.volume.write_block(0, self._pad(superblock))
        self.stats.disk_writes += 1
        # Clear the inode region so mount's scan sees empty slots.
        for slot in range(self.max_inodes):
            yield from self.volume.write_block(
                self.inode_region_start + slot, bytes(self.block_size)
            )
            self.stats.disk_writes += 1

    def mount(self) -> Generator[Any, Any, None]:
        if self.simulated:
            self._mounted = True
            return
        data = yield from self.volume.read_block(0)
        self.stats.disk_reads += 1
        if data is None:
            raise StorageError("cannot mount a real FFS layout on a data-less volume")
        codec.unpack_superblock(data)
        highest = ROOT_INODE_NUMBER + self.inode_base - self.inode_stride
        for slot in range(self.max_inodes):
            raw = yield from self.volume.read_block(self.inode_region_start + slot)
            self.stats.disk_reads += 1
            if raw is None or not raw.rstrip(b"\0"):
                continue
            try:
                inode = codec.unpack_inode(raw)
            except StorageError:
                continue
            self._known_inodes.add(inode.number)
            highest = max(highest, inode.number)
            for address in inode.block_map.values():
                self.allocator.allocate_at(address)
        self.next_inode_number = highest + self.inode_stride
        self._mounted = True

    def checkpoint(self) -> Generator[Any, Any, None]:
        """All metadata is written in place; nothing extra to do."""
        return
        yield  # pragma: no cover - keeps this a generator

    # ------------------------------------------------------------------ inodes

    def _slot_of(self, inode_number: int) -> int:
        """Dense slot index of a number within this layout's progression."""
        offset = inode_number - ROOT_INODE_NUMBER - self.inode_base
        if offset < 0 or offset % self.inode_stride != 0:
            raise StorageError(
                f"inode number {inode_number} not in this layout's progression "
                f"(base {self.inode_base}, stride {self.inode_stride})"
            )
        return offset // self.inode_stride

    def _slot_address(self, inode_number: int) -> int:
        slot = self._slot_of(inode_number)
        if slot >= self.max_inodes:
            raise StorageError(f"inode number {inode_number} outside the inode region")
        return self.inode_region_start + slot

    def allocate_inode(
        self,
        kind: FileKind,
        parent_id: Optional[int] = None,
        name: Optional[str] = None,
    ) -> Inode:
        if self._slot_of(self.next_inode_number) >= self.max_inodes:
            raise StorageError("out of inode slots")
        number = self.next_inode_number
        self.next_inode_number += self.inode_stride
        now = self.scheduler.now
        inode = Inode(number=number, kind=kind, atime=now, mtime=now, ctime=now)
        self._inode_objects[number] = inode
        self._known_inodes.add(number)
        return inode

    def known_inode_numbers(self) -> list[int]:
        return sorted(self._known_inodes)

    def read_inode(self, inode_number: int) -> Generator[Any, Any, Inode]:
        if inode_number not in self._known_inodes and self.simulated:
            raise StorageError(f"unknown inode {inode_number}")
        raw = yield from self.volume.read_block(self._slot_address(inode_number))
        self.stats.disk_reads += 1
        self.stats.inodes_read += 1
        if raw is None:
            inode = self._inode_objects.get(inode_number)
            if inode is None:
                raise StorageError(f"simulated FFS lost track of inode {inode_number}")
            return inode
        if not raw.rstrip(b"\0"):
            raise StorageError(f"unknown inode {inode_number}")
        inode = codec.unpack_inode(raw)
        self._inode_objects[inode_number] = inode
        return inode

    def write_inode(self, inode: Inode) -> Generator[Any, Any, None]:
        self._inode_objects[inode.number] = inode
        self._known_inodes.add(inode.number)
        payload: Optional[bytes] = None
        if not self.simulated:
            packed = codec.pack_inode(inode)
            if len(packed) > self.block_size:
                raise StorageError(
                    f"inode {inode.number} too large for one block "
                    f"({len(packed)} bytes); the FFS-like layout caps file size"
                )
            payload = self._pad(packed)
        yield from self.volume.write_block(self._slot_address(inode.number), payload)
        self.stats.disk_writes += 1
        self.stats.inodes_written += 1

    def free_inode(self, inode: Inode) -> Generator[Any, Any, None]:
        yield from self.release_blocks(inode, 0)
        payload = None if self.simulated else bytes(self.block_size)
        yield from self.volume.write_block(self._slot_address(inode.number), payload)
        self.stats.disk_writes += 1
        self._inode_objects.pop(inode.number, None)
        self._known_inodes.discard(inode.number)

    # ------------------------------------------------------------------ file data

    def write_file_blocks(
        self,
        inode: Inode,
        blocks: list[tuple[int, CacheBlock]],
        *,
        with_inode: bool = True,
    ) -> Generator[Any, Any, None]:
        if not blocks:
            return
        previous: Optional[int] = None
        for block_no, cache_block in sorted(blocks, key=lambda item: item[0]):
            address = inode.get_block_address(block_no)
            if address is None or self._is_synthetic(inode.number, block_no, address):
                address = self.allocator.allocate(near=previous)
                inode.set_block_address(block_no, address)
            previous = address
            yield from self.volume.write_block(address, self.block_payload(cache_block))
            self.stats.disk_writes += 1
            self.stats.blocks_written += 1
        if with_inode:
            # Update in place: the inode's fixed slot, wherever the data went.
            yield from self.write_inode(inode)

    def release_blocks(self, inode: Inode, from_block: int) -> Generator[Any, Any, None]:
        for block_no in sorted(bn for bn in inode.block_map if bn >= from_block):
            address = inode.block_map[block_no]
            if not self._is_synthetic(inode.number, block_no, address):
                self.allocator.free(address)
        inode.drop_blocks_from(from_block)
        return
        yield  # pragma: no cover - keeps this a generator

    # ------------------------------------------------------------------ space

    @property
    def free_blocks(self) -> int:
        return self.allocator.free_count

    # ------------------------------------------------------------------ helpers

    def _pad(self, data: bytes) -> bytes:
        if len(data) > self.block_size:
            raise StorageError(f"payload of {len(data)} bytes exceeds the block size")
        return data + bytes(self.block_size - len(data))


# --------------------------------------------------------------------------- registry
#
# "layout" factories share one signature (see repro.core.storage.lfs); FFS
# maps inode numbers to dense table slots, so an array member needs its
# arithmetic progression (inode_base/inode_stride) at construction time.


def _build_ffs_layout(
    scheduler,
    volume,
    *,
    block_size,
    simulated,
    seed,
    layout_config,
    inode_base=0,
    inode_stride=1,
):
    return FfsLikeLayout(
        scheduler,
        volume,
        block_size=block_size,
        simulated=simulated,
        seed=seed,
        inode_base=inode_base,
        inode_stride=inode_stride,
    )


registry.register("layout", "ffs", _build_ffs_layout)
