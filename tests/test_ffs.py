"""The FFS-like write-in-place layout and the block allocator."""

import pytest

from repro.core.blocks import CacheBlock
from repro.core.inode import FileKind
from repro.core.storage.allocator import BlockAllocator
from repro.core.storage.ffs import FfsLikeLayout
from repro.core.storage.volume import LocalVolume
from repro.errors import NoSpaceLeft, StorageError
from repro.pfs.diskfile import MemoryBackedDiskDriver
from repro.units import KB, MB
from tests.conftest import run


def make_layout(scheduler, simulated=False, disk_mb=8, max_inodes=32):
    driver = MemoryBackedDiskDriver(scheduler, size_bytes=disk_mb * MB)
    volume = LocalVolume([driver], block_size=4 * KB)
    layout = FfsLikeLayout(
        scheduler, volume, block_size=4 * KB, max_inodes=max_inodes, simulated=simulated
    )
    run(scheduler, layout.format)
    run(scheduler, layout.mount)
    return layout


def data_block(payload=b""):
    block = CacheBlock(0, 4 * KB, with_data=True)
    if payload:
        block.data[: len(payload)] = payload
    return block


# --------------------------------------------------------------------------- allocator


def test_allocator_basic():
    allocator = BlockAllocator(first_block=10, num_blocks=4)
    addresses = [allocator.allocate() for _ in range(4)]
    assert sorted(addresses) == [10, 11, 12, 13]
    assert allocator.free_count == 0
    with pytest.raises(NoSpaceLeft):
        allocator.allocate()
    allocator.free(11)
    assert allocator.allocate() == 11


def test_allocator_locality_hint():
    allocator = BlockAllocator(first_block=0, num_blocks=100)
    first = allocator.allocate(near=50)
    second = allocator.allocate(near=first)
    assert abs(second - first) <= 2


def test_allocator_double_free_rejected():
    allocator = BlockAllocator(0, 10)
    address = allocator.allocate()
    allocator.free(address)
    with pytest.raises(StorageError):
        allocator.free(address)


def test_allocator_range_checking():
    allocator = BlockAllocator(100, 10)
    with pytest.raises(StorageError):
        allocator.free(50)
    allocator.allocate_at(105)
    assert allocator.is_allocated(105)


# --------------------------------------------------------------------------- layout


def test_ffs_inode_roundtrip(scheduler):
    layout = make_layout(scheduler)
    inode = layout.allocate_inode(FileKind.REGULAR)
    inode.size = 777
    run(scheduler, layout.write_inode, inode)
    layout._inode_objects.clear()
    loaded = run(scheduler, layout.read_inode, inode.number)
    assert loaded.size == 777


def test_ffs_write_in_place(scheduler):
    layout = make_layout(scheduler)
    inode = layout.allocate_inode(FileKind.REGULAR)
    run(scheduler, layout.write_file_blocks, inode, [(0, data_block(b"v1"))])
    address = inode.get_block_address(0)
    run(scheduler, layout.write_file_blocks, inode, [(0, data_block(b"v2"))])
    assert inode.get_block_address(0) == address  # update in place, no relocation
    target = data_block()
    run(scheduler, layout.read_file_blocks, inode, [(0, target)])
    assert bytes(target.data[:2]) == b"v2"


def test_ffs_free_inode_releases_blocks(scheduler):
    layout = make_layout(scheduler)
    inode = layout.allocate_inode(FileKind.REGULAR)
    run(scheduler, layout.write_file_blocks, inode, [(i, data_block(b"x")) for i in range(3)])
    free_before = layout.free_blocks
    run(scheduler, layout.free_inode, inode)
    assert layout.free_blocks == free_before + 3
    with pytest.raises(StorageError):
        run(scheduler, layout.read_inode, inode.number)


def test_ffs_remount_rebuilds_allocator(scheduler):
    layout = make_layout(scheduler)
    inode = layout.allocate_inode(FileKind.REGULAR)
    # One call persists the blocks and, in its fixed slot, the inode.
    run(scheduler, layout.write_file_blocks, inode, [(i, data_block(b"p")) for i in range(4)])
    used = layout.allocator.used_count

    reloaded = FfsLikeLayout(
        scheduler, layout.volume, block_size=4 * KB, max_inodes=32, simulated=False
    )
    run(scheduler, reloaded.mount)
    assert reloaded.allocator.used_count == used
    loaded = run(scheduler, reloaded.read_inode, inode.number)
    assert loaded.block_map == inode.block_map


def test_ffs_inode_slot_exhaustion(scheduler):
    layout = make_layout(scheduler, max_inodes=8)
    for _ in range(8):
        layout.allocate_inode(FileKind.REGULAR)
    with pytest.raises(StorageError):
        layout.allocate_inode(FileKind.REGULAR)


def test_ffs_simulated_synthesizes(scheduler):
    layout = make_layout(scheduler, simulated=True)
    inode = layout.allocate_inode(FileKind.REGULAR)
    block = CacheBlock(0, 4 * KB, with_data=False)
    assert run(scheduler, layout.read_file_blocks, inode, [(9, block)]) == 1
    assert layout.stats.synthesized_addresses == 1
