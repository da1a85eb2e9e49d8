"""A write never reads the block it changes: a partial-block write over old
bytes that are not cached leaves the block *owing* them
(``CacheBlock.owed``).  A read outside the written bytes, a later write
apart from them, or the writeback pays the debt with one disk read whose
bytes land around the new ones; an overwrite, truncate or delete first
means it is never paid.

Pinned three ways: one op script counted the same in PATSY and in PFS
(with PFS's bytes checked), random unaligned I/O in PFS against a byte
model across evictions, syncs and remounts, and the failure path — a debt
whose old bytes sit on a dead volume with no replica.
"""

from __future__ import annotations

import random

import pytest

from repro.assembly.bindings import SimulatedBinding
from repro.assembly.builder import build_stack
from repro.assembly.spec import StackSpec
from repro.config import CacheConfig
from repro.errors import DataUnavailable
from repro.pfs.filesystem import PegasusFileSystem
from repro.units import KB, MB
from tests.conftest import run

BLOCK = 4 * KB
SPEC = StackSpec(cache=CacheConfig(size_bytes=1 * MB))
COUNTERS = ("fills_deferred", "fills_at_read", "fills_at_write", "fills_at_writeback")


class World:
    """One stack driven through its client interface.  PATSY writes
    anonymous bytes and reads zero filler; PFS writes a pattern that
    differs per call, and every read is compared with a byte model."""

    def __init__(self, simulated: bool, spec: StackSpec = SPEC, backing=None):
        self.simulated, self.spec, self.backing = simulated, spec, backing
        if simulated:
            stack = build_stack(spec, SimulatedBinding())
            run(stack.scheduler, stack.fs.mount, True)
            self._use(stack)
        else:
            self._use_pfs().format()
        self.model: dict[str, bytearray] = {}
        self.calls = 0
        #: the counters of the stacks unmounted before this one.
        self.earlier = (0,) * len(COUNTERS)

    def _use(self, stack) -> None:
        self.scheduler, self.fs, self.client = stack.scheduler, stack.fs, stack.client

    def _use_pfs(self) -> PegasusFileSystem:
        self.pfs = PegasusFileSystem(self.spec, backing=self.backing, size_bytes=16 * MB)
        self._use(self.pfs.stack)
        return self.pfs

    def remount(self) -> None:
        """PFS: unmount, then mount the backing file in a new stack (an
        empty cache) and read every file back whole."""
        self.pfs.unmount()
        self.pfs.close_backing()
        self.earlier = self.counts()
        self._use_pfs().mount()
        for path, model in self.model.items():
            self.read(path, 0, len(model))

    def do(self, target, *args):
        return run(self.scheduler, target, *args)

    def write(self, path: str, offset: int, length: int) -> None:
        self.calls += 1
        data = bytes((self.calls * 7 + i) % 251 + 1 for i in range(length))
        self.do(self.client.write_file, path, offset, None if self.simulated else data, length)
        model = self.model.setdefault(path, bytearray())
        model.extend(bytes(max(offset + length - len(model), 0)))
        model[offset : offset + length] = data

    def read(self, path: str, offset: int, length: int) -> None:
        data = self.do(self.client.read_file, path, offset, length)
        expected = self.model[path][offset : offset + length]
        assert len(data) == len(expected)
        if not self.simulated:
            assert data == expected, f"{path} [{offset}, +{length})"

    def truncate(self, path: str, size: int) -> None:
        self.do(self.client.truncate_path, path, size)
        model = self.model[path]
        del model[size:]
        model.extend(bytes(size - len(model)))

    def delete(self, path: str) -> None:
        self.do(self.client.unlink, path)
        del self.model[path]

    def sync(self) -> None:
        self.do(self.client.sync)

    def cold(self) -> None:
        """Drop every file's blocks from the cache (they are all clean)."""
        for path in self.model:
            file = self.do(self.client.lookup, path)
            self.fs.cache.invalidate_file(file.file_id)

    def block(self, path: str, block_no: int):
        return self.fs.cache.peek(self.do(self.client.lookup, path).file_id, block_no)

    def counts(self) -> tuple[int, ...]:
        stats = self.fs.cache.stats
        return tuple(e + getattr(stats, name) for e, name in zip(self.earlier, COUNTERS))


@pytest.fixture(params=[True, False], ids=["patsy", "pfs"])
def world(request):
    return World(request.param)


def old_file(world: World, path: str, blocks: int) -> None:
    """``path`` holds ``blocks`` blocks on disk and none in the cache."""
    world.write(path, 0, blocks * BLOCK)
    world.sync()
    world.cold()


def test_each_way_of_paying_a_debt_counts_the_same_in_both_worlds(world):
    old_file(world, "/a", 8)
    old_file(world, "/b", 4)
    reads = world.fs.layout.stats.disk_reads
    world.write("/a", BLOCK + 100, 200)  # block 1 owes [0, 100) and [300, 4096)
    world.write("/a", 2 * BLOCK + 100, 200)  # block 2 too ...
    world.write("/a", 3 * BLOCK + 10, 100)  # ... and block 3
    world.write("/a", 5 * BLOCK + 10, 2 * BLOCK)  # blocks 5 and 7; 6 is covered
    world.write("/b", 100, 100)
    assert world.fs.layout.stats.disk_reads == reads  # no write read anything
    assert world.block("/a", 1).owed == (100, 300, BLOCK)
    assert world.block("/a", 5).owed == (10, BLOCK, BLOCK)
    assert world.block("/a", 6).owed is None
    assert world.counts() == (6, 0, 0, 0)

    world.read("/a", BLOCK + 150, 100)  # inside the written bytes: a hit
    assert world.fs.layout.stats.disk_reads == reads
    world.read("/a", BLOCK, 50)  # outside: this read pays
    world.write("/a", 2 * BLOCK + 300, 100)  # next to the written bytes: widens
    assert world.block("/a", 2).owed == (100, 400, BLOCK)
    world.write("/a", 2 * BLOCK + 1000, 10)  # apart from them: this write pays
    world.write("/a", 3 * BLOCK, BLOCK)  # overwritten whole: never paid
    world.truncate("/a", 7 * BLOCK)  # block 7 cut off: never paid
    world.delete("/b")  # never paid
    assert world.counts() == (6, 1, 1, 0)
    world.sync()  # block 5's debt rides the writeback
    assert world.counts() == (6, 1, 1, 1)
    assert world.block("/a", 5).owed is None
    world.cold()
    world.read("/a", 0, 7 * BLOCK)


@pytest.mark.parametrize("seed", range(4))
def test_random_unaligned_io_matches_a_byte_model(tmp_path, seed):
    """A cache of twelve blocks, so evictions write back all the time; every
    read is compared, and every file in full after each remount."""
    draw = random.Random(seed)
    world = World(False, StackSpec(cache=CacheConfig(size_bytes=12 * BLOCK)), tmp_path / "disk")
    names = ["/a", "/b", "/c"]
    for name in names:
        world.write(name, 0, draw.randrange(1, 6 * BLOCK))
    for _ in range(220):
        name = draw.choice(names)
        size = len(world.model[name])
        roll = draw.random()
        if roll < 0.45:
            world.write(name, draw.randrange(size + BLOCK), draw.randrange(1, 3 * BLOCK))
        elif roll < 0.8:
            world.read(name, draw.randrange(size + 1), draw.randrange(1, 3 * BLOCK))
        elif roll < 0.9:
            world.truncate(name, draw.randrange(size + BLOCK))
        elif roll < 0.96:
            world.sync()
        else:
            world.remount()
    world.remount()
    deferred, at_read, at_write, at_writeback = world.counts()
    assert at_read and at_writeback, "both payment points were reached"
    assert at_read + at_write + at_writeback <= deferred


@pytest.mark.parametrize("fault", ["disk_fail", "node_crash"])
def test_a_debt_on_a_dead_volume_fails_and_is_never_zeros(world, fault):
    """One node, no replicas: the old bytes die with their volume.  The
    sync cannot pay the debt; it drops the block instead of writing a
    half-known one, does not retry it, and returns.  A later read fails."""
    old_file(world, "/f", 3)
    world.write("/f", BLOCK + 10, 100)
    board = world.fs.layout.faults
    board.kill_volume(0) if fault == "disk_fail" else board.kill_node(0)
    world.sync()
    assert world.block("/f", 1) is None
    assert world.fs.cache.dirty_count == 0
    assert world.counts() == (1, 0, 0, 0)
    assert board.failed_reads_by_node == {0: 1}
    world.sync()  # nothing left to retry
    assert board.failed_reads_by_node == {0: 1}
    for offset in (BLOCK + 10, BLOCK):
        with pytest.raises(DataUnavailable):
            world.read("/f", offset, 100)
