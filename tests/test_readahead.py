"""Who reads ahead: only a sequential reader, and a call's own blocks are
one disk read — in both worlds.

Every test runs twice on one spec: in PATSY (simulated disks, no bytes)
and in PFS, with real bytes through ``NfsLoopbackClient`` and every read
compared against what was written.  The file under test is written in one
writeback, so its blocks lie contiguously in the log, then dropped from
the cache: each read starts cold.
"""

from __future__ import annotations

import pytest

from repro.assembly.bindings import SimulatedBinding
from repro.assembly.builder import build_stack
from repro.assembly.spec import StackSpec
from repro.config import CacheConfig
from repro.core.storage.lfs import LogStructuredLayout
from repro.pfs.filesystem import PegasusFileSystem
from repro.pfs.nfs import NfsLoopbackClient, NfsServer
from repro.units import KB, MB
from tests.conftest import run

SPEC = StackSpec(cache=CacheConfig(size_bytes=1 * MB))
BLOCK = 4 * KB
#: read-ahead's bound on a run, which every stack's LFS runs at its default.
AHEAD = LogStructuredLayout.read_coalesce_blocks


class Patsy:
    """The simulated world: a length-only file, reads checked for length."""

    def __init__(self, blocks: int):
        stack = build_stack(SPEC, SimulatedBinding())
        self.scheduler, self.fs, client = stack.scheduler, stack.fs, stack.client
        run(self.scheduler, self.fs.mount, True)
        self.size = blocks * BLOCK

        def create():
            handle = yield from client.create("/f")
            yield from client.write(handle, 0, length=self.size)
            yield from client.fsync(handle)
            return handle

        self.handle = run(self.scheduler, create)
        self.file = self.fs.file_table.get_handle(self.handle).file
        self.client = client

    def read(self, offset: int, length: int) -> None:
        data = run(self.scheduler, self.client.read, self.handle, offset, length)
        assert len(data) == min(length, self.size - offset)

    def write(self, offset: int, data: bytes) -> None:
        run(self.scheduler, self.client.write, self.handle, offset, length=len(data))


class Pfs:
    """The on-line world: real bytes over NFS, every read compared."""

    def __init__(self, blocks: int):
        pfs = PegasusFileSystem(SPEC, size_bytes=16 * MB)
        pfs.format()
        self.fs = pfs.fs
        self.client = NfsLoopbackClient(NfsServer(pfs.fs, num_threads=3))
        self.data = bytearray(b"".join(bytes([n % 251 + 1]) * BLOCK for n in range(blocks)))
        self.handle = self.client.create(self.client.root, "f")
        self.client.write(self.handle, 0, bytes(self.data))
        pfs.sync()
        self.file = pfs.run(self.fs.file_table.load, self.handle.inode_number)

    def read(self, offset: int, length: int) -> None:
        assert self.client.read(self.handle, offset, length) == self.data[offset : offset + length]

    def write(self, offset: int, data: bytes) -> None:
        self.client.write(self.handle, offset, data)
        self.data[offset : offset + len(data)] = data


@pytest.fixture(params=[Patsy, Pfs], ids=["patsy", "pfs"])
def cold_file(request):
    """``cold_file(blocks)``: a world holding one contiguous file, on disk
    and nowhere in the cache."""

    def make(blocks: int):
        world = request.param(blocks)
        layout = world.fs.layout.sublayouts[0]
        addresses = [world.file.inode.get_block_address(n) for n in range(blocks)]
        assert addresses == list(range(addresses[0], addresses[0] + blocks))
        assert layout.segment_of(addresses[0]) == layout.segment_of(addresses[-1])
        world.fs.cache.invalidate_file(world.file.file_id)
        world.layout = layout
        return world

    return make


def cost(world, action, *calls):
    """Do ``action(offset, length_or_data)`` for each of ``calls`` in order;
    the disk reads they cost, the blocks those fetched, and how many blocks
    were first referenced after riding another block's disk read (the file
    system credits those to the layout it talks to)."""
    stats, routed = world.layout.stats, world.fs.layout.stats
    before = stats.disk_reads, stats.blocks_read, routed.coalesced_read_hits
    for call in calls:
        action(*call)
    after = stats.disk_reads, stats.blocks_read, routed.coalesced_read_hits
    return tuple(b - a for a, b in zip(before, after))


def reads_of(world, *calls):
    return cost(world, world.read, *calls)


def read_ahead_slots(world):
    return sorted(
        block.block_id.block_no
        for block in world.fs.cache.cached_blocks_of(world.file.file_id)
        if block.read_ahead
    )


def test_a_random_reader_reads_exactly_the_blocks_it_asked_for(cold_file):
    world = cold_file(32)
    # Inside one block each, neither block 0 nor where the previous read
    # ended (or one before).
    firsts = [20, 5, 27, 12, 9, 30, 2]
    calls = [(first * BLOCK + 100, BLOCK - 200) for first in firsts]
    assert reads_of(world, *calls) == (len(firsts), len(firsts), 0)
    assert read_ahead_slots(world) == []


def test_a_partial_block_write_fills_only_the_blocks_it_needs(cold_file):
    world = cold_file(16)
    # A write reads nothing: inside block 3, and over blocks 5 to 7 (block 6
    # replaced whole), the blocks it changes owe their old bytes instead.
    assert cost(world, world.write, (3 * BLOCK + 100, b"x" * 200)) == (0, 0, 0)
    assert cost(world, world.write, (5 * BLOCK + 100, b"y" * (2 * BLOCK))) == (0, 0, 0)
    # A read outside the written bytes pays its block's debt, and that alone.
    assert reads_of(world, (3 * BLOCK, 100)) == (1, 1, 0)
    # Inside them it is a hit.
    assert reads_of(world, (5 * BLOCK + 200, 100)) == (0, 0, 0)
    # The sync pays blocks 5 and 7 in one disk read through block 6, which
    # is not kept.
    assert cost(world, lambda: run(world.fs.scheduler, world.fs.sync), ()) == (1, 2, 0)
    assert read_ahead_slots(world) == []
    world.read(0, 16 * BLOCK)


def test_a_read_at_offset_zero_after_random_reads_reads_ahead_again(cold_file):
    world = cold_file(32)
    assert reads_of(world, (20 * BLOCK, BLOCK), (27 * BLOCK, BLOCK)) == (2, 2, 0)
    # A sequential pass over the first 16 blocks in unaligned 6000-byte
    # calls: each call starts in the block the one before ended in.
    calls = [(offset, min(6000, 16 * BLOCK - offset)) for offset in range(0, 16 * BLOCK, 6000)]
    # Blocks 0 and 1, and read-ahead to the bound.
    assert reads_of(world, calls[0]) == (1, AHEAD, 1)
    assert read_ahead_slots(world) == list(range(2, AHEAD))
    # The calls that follow miss once more, at block AHEAD, and read ahead
    # from there to block 15: of blocks 2 to 15 all but that one rode a read.
    assert reads_of(world, *calls[1:]) == (1, 16 - AHEAD, 16 - 3)
    assert read_ahead_slots(world) == []


def test_a_64_kb_call_over_a_contiguous_file_is_one_disk_read(cold_file):
    world = cold_file(24)
    # Sixteen asked-for blocks are one run; read-ahead, bounded by the
    # run's length, adds nothing to it.
    coalesced = world.layout.stats.cold_read_blocks_coalesced
    assert reads_of(world, (0, 64 * KB)) == (1, 16, 15)
    assert world.layout.stats.cold_read_blocks_coalesced - coalesced == 15
    assert read_ahead_slots(world) == []
