"""The block cache: allocation, LRU lists, dirty tracking, flushing."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.config import CacheConfig
from repro.core.blocks import BlockState
from repro.core.cache import BlockCache
from repro.core.clock import VirtualClock
from repro.core.scheduler import Delay, Scheduler
from repro.errors import CacheError
from tests.conftest import run


def make_cache(scheduler, blocks=8, with_data=False, replacement="lru"):
    config = CacheConfig(size_bytes=blocks * 4096, block_size=4096, replacement=replacement)
    cache = BlockCache(scheduler, config, with_data=with_data)
    written = []

    def writeback(batch):
        for file_id, pairs in batch:
            # The cache's own resident blocks, pinned and busy while written.
            assert all(
                cache.peek(file_id, no) is block and block.pinned and block.busy
                for no, block in pairs
            )
            written.append((file_id, tuple(no for no, _block in pairs)))
        yield Delay(0.005)

    cache.writeback = writeback
    cache.written_log = written
    return cache


def test_geometry(scheduler):
    cache = make_cache(scheduler, blocks=8)
    assert cache.num_blocks == 8
    assert cache.free_count == 8
    assert cache.clean_count == 0
    assert cache.dirty_count == 0


def test_allocate_and_lookup(scheduler):
    cache = make_cache(scheduler)

    def body():
        block = yield from cache.allocate(1, 0)
        return block

    block = run(scheduler, body)
    assert block.state is BlockState.CLEAN
    assert cache.contains(1, 0)
    assert cache.lookup(1, 0) is block
    assert cache.lookup(1, 99) is None
    assert cache.stats.hits == 1 and cache.stats.misses == 1


def test_double_allocate_rejected(scheduler):
    cache = make_cache(scheduler)

    def body():
        yield from cache.allocate(1, 0)
        yield from cache.allocate(1, 0)

    with pytest.raises(CacheError):
        run(scheduler, body)


def test_mark_dirty_and_clean(scheduler):
    cache = make_cache(scheduler)

    def body():
        block = yield from cache.allocate(1, 0)
        yield from cache.mark_dirty(block)
        return block

    block = run(scheduler, body)
    assert block.is_dirty
    assert cache.dirty_count == 1
    assert cache.stats.blocks_dirtied == 1
    cache.mark_clean(block)
    assert block.is_clean
    assert cache.dirty_count == 0
    assert cache.clean_count == 1


def test_eviction_reuses_lru_clean_block(scheduler):
    cache = make_cache(scheduler, blocks=4)

    def fill():
        for i in range(4):
            yield from cache.allocate(1, i)
        # Touch block 0 so block 1 becomes the LRU candidate.
        cache.lookup(1, 0)
        yield from cache.allocate(1, 100)

    run(scheduler, fill)
    assert cache.stats.evictions == 1
    assert cache.contains(1, 0)
    assert not cache.contains(1, 1)
    assert cache.contains(1, 100)


def test_allocation_forces_flush_when_all_dirty(scheduler):
    cache = make_cache(scheduler, blocks=4)

    def body():
        for i in range(4):
            block = yield from cache.allocate(9, i)
            yield from cache.mark_dirty(block)
        # Cache is now entirely dirty; this allocation must trigger a flush.
        yield from cache.allocate(9, 100)

    run(scheduler, body)
    assert cache.written_log, "a writeback should have happened"
    assert cache.stats.blocks_written >= 1
    assert cache.contains(9, 100)


def test_flush_file_groups_blocks(scheduler):
    cache = make_cache(scheduler, blocks=8)

    def body():
        for i in range(3):
            block = yield from cache.allocate(5, i)
            yield from cache.mark_dirty(block)
        other = yield from cache.allocate(6, 0)
        yield from cache.mark_dirty(other)
        flushed = yield from cache.flush_file(5)
        return flushed

    assert run(scheduler, body) == 3
    assert cache.written_log == [(5, (0, 1, 2))]
    assert cache.dirty_count == 1  # file 6 still dirty


def test_flush_all(scheduler):
    cache = make_cache(scheduler)

    def body():
        for file_id in (1, 2):
            for i in range(2):
                block = yield from cache.allocate(file_id, i)
                yield from cache.mark_dirty(block)
        return (yield from cache.flush_all())

    assert run(scheduler, body) == 4
    assert cache.dirty_count == 0


def dirty(cache, file_id, block_no):
    block = yield from cache.allocate(file_id, block_no)
    yield from cache.mark_dirty(block)
    return block


def test_flush_oldest_whole_file():
    """``flush_oldest`` writes the oldest dirty block as one ``flush_unit``:
    alone, with its dirty neighbours up to the first hole, or with every
    dirty block of its file."""
    for unit, written in (("block", (4,)), ("extent", (3, 4, 5)), ("file", (3, 4, 5, 7))):
        scheduler = Scheduler(clock=VirtualClock(), seed=7)
        cache = make_cache(scheduler, blocks=16)
        assert cache.flush_unit == "extent"  # unless the flush policy says otherwise
        cache.flush_unit = unit

        def body():
            for block_no in (4, 7, 3, 5):  # 4 is the oldest; 6 is never dirtied
                yield from dirty(cache, 1, block_no)
                yield Delay(1.0)
            yield from dirty(cache, 2, 5)  # another file's block is never a mate
            yield from cache.allocate(1, 2)  # clean: not part of the run either
            return (yield from cache.flush_oldest())

        assert run(scheduler, body) == len(written)
        assert cache.written_log == [(1, written)]
        assert cache.dirty_count == 5 - len(written)


def test_busy_neighbour_ends_the_extent(scheduler):
    """A neighbour whose writeback is in flight ends the run: the flush
    neither waits for it nor reaches over it to the blocks beyond."""
    cache = make_cache(scheduler, blocks=16)

    def body():
        for block_no in range(6):
            yield from dirty(cache, 1, block_no)
        busy = cache.peek(1, 2)
        flusher = scheduler.spawn(cache.flush_block, busy)  # 5 ms at the "disk"
        yield Delay(0.001)
        assert busy.busy
        # Oldest non-busy block is 0: its run stops at 1.
        assert (yield from cache.flush_oldest()) == 2
        # Started at once (1 ms + its own 5 ms), not after block 2 came back.
        assert scheduler.now == pytest.approx(0.006)
        # Now the oldest is 3, on the far side of the block that was busy.
        assert (yield from cache.flush_oldest()) == 3
        yield from flusher.join()

    run(scheduler, body)
    assert cache.written_log == [(1, (2,)), (1, (0, 1)), (1, (3, 4, 5))]
    assert cache.dirty_count == 0


def test_invalidate_file_counts_write_savings(scheduler):
    cache = make_cache(scheduler)

    def body():
        for i in range(3):
            block = yield from cache.allocate(7, i)
            yield from cache.mark_dirty(block)
        clean = yield from cache.allocate(7, 3)
        return cache.invalidate_file(7)

    clean_dropped, dirty_dropped = run(scheduler, body)
    assert dirty_dropped == 3
    assert clean_dropped == 1
    assert cache.stats.dirty_blocks_discarded == 3
    assert cache.free_count == cache.num_blocks


def test_invalidate_file_partial_truncate(scheduler):
    cache = make_cache(scheduler)

    def body():
        for i in range(4):
            block = yield from cache.allocate(7, i)
            yield from cache.mark_dirty(block)
        return cache.invalidate_file(7, from_block=2)

    _, dirty_dropped = run(scheduler, body)
    assert dirty_dropped == 2
    assert cache.contains(7, 0) and cache.contains(7, 1)
    assert not cache.contains(7, 2)


def test_nvram_dirty_limit_stalls_and_drains(scheduler):
    cache = make_cache(scheduler, blocks=8)
    cache.dirty_limit_bytes = 2 * 4096  # at most two dirty blocks
    cache.flush_unit = "block"

    def body():
        for i in range(4):
            block = yield from cache.allocate(3, i)
            yield from cache.mark_dirty(block)
        return cache.dirty_count

    dirty = run(scheduler, body)
    assert dirty <= 2
    assert cache.stats.nvram_stalls >= 1
    assert cache.stats.blocks_written >= 2


def test_oldest_dirty_age(scheduler):
    cache = make_cache(scheduler)

    def body():
        block = yield from cache.allocate(1, 0)
        yield from cache.mark_dirty(block)
        yield Delay(12.0)
        return cache.oldest_dirty_age()

    assert run(scheduler, body) == pytest.approx(12.0)
    assert cache.oldest_dirty() is not None


def test_dirty_files_ordering(scheduler):
    cache = make_cache(scheduler)

    def body():
        for file_id in (4, 2, 9):
            block = yield from cache.allocate(file_id, 0)
            yield from cache.mark_dirty(block)
            yield Delay(0.1)

    run(scheduler, body)
    assert cache.dirty_files() == [4, 2, 9]


def test_writeback_requires_registration(scheduler):
    config = CacheConfig(size_bytes=4 * 4096)
    cache = BlockCache(scheduler, config, with_data=False)

    def body():
        block = yield from cache.allocate(1, 0)
        yield from cache.mark_dirty(block)
        yield from cache.flush_block(block)

    with pytest.raises(CacheError):
        run(scheduler, body)


def test_has_allocatable_slot(scheduler):
    cache = make_cache(scheduler, blocks=2)
    assert cache.has_allocatable_slot()

    def body():
        for i in range(2):
            block = yield from cache.allocate(1, i)
            yield from cache.mark_dirty(block)

    run(scheduler, body)
    assert not cache.has_allocatable_slot()


def test_stats_snapshot_keys(scheduler):
    cache = make_cache(scheduler)
    snapshot = cache.stats.snapshot()
    for key in ("hits", "misses", "hit_rate", "blocks_written", "dirty_blocks_discarded"):
        assert key in snapshot


def test_hit_rate(scheduler):
    cache = make_cache(scheduler)

    def body():
        yield from cache.allocate(1, 0)

    run(scheduler, body)
    cache.lookup(1, 0)
    cache.lookup(1, 1)
    assert cache.stats.hit_rate == pytest.approx(0.5)


# --------------------------------------------------------------------------- per-file views


class CacheIndexMachine(RuleBasedStateMachine):
    """Every mutation keeps the per-file views equal to the global maps
    filtered by file, *in order* (the order reaches the free list and the
    replacement policy, hence simulated time)."""

    FILES = st.integers(1, 3)
    BLOCKS = st.integers(0, 7)

    def __init__(self):
        super().__init__()
        self.scheduler = Scheduler(clock=VirtualClock(), seed=7)
        self.cache = make_cache(self.scheduler, blocks=6)

    def _resident(self, pick):
        resident = list(self.cache._index.values())
        return resident[pick % len(resident)]

    def some_resident(self):
        return self.cache.cached_count > 0

    @rule(file_id=FILES, block_no=BLOCKS)
    def allocate(self, file_id, block_no):
        # On a full cache this evicts, or (all dirty) writes back first.
        if not self.cache.contains(file_id, block_no):
            run(self.scheduler, self.cache.allocate, file_id, block_no)

    @rule(file_id=FILES, block_no=BLOCKS)
    def try_allocate(self, file_id, block_no):
        self.cache.try_allocate(file_id, block_no)

    @precondition(some_resident)
    @rule(pick=st.integers(0, 5))
    def mark_dirty(self, pick):
        run(self.scheduler, self.cache.mark_dirty, self._resident(pick))

    @precondition(some_resident)
    @rule(pick=st.integers(0, 5))
    def mark_clean(self, pick):
        self.cache.mark_clean(self._resident(pick))

    @precondition(some_resident)
    @rule(pick=st.integers(0, 5))
    def invalidate(self, pick):
        self.cache.invalidate(self._resident(pick))

    @rule(file_id=FILES, from_block=BLOCKS)
    def invalidate_file(self, file_id, from_block):
        self.cache.invalidate_file(file_id, from_block)

    @rule(unit=st.sampled_from(["block", "extent", "file"]))
    def writeback(self, unit):
        self.cache.flush_unit = unit
        run(self.scheduler, self.cache.flush_oldest)

    @invariant()
    def views_mirror_the_global_maps(self):
        cache = self.cache
        for view, whole in ((cache._resident_of, cache._index), (cache._dirty_of, cache._dirty)):
            filtered = {}
            for block_id, block in whole.items():
                filtered.setdefault(block_id.file_id, []).append((block_id.block_no, block))
            assert {f: list(blocks.items()) for f, blocks in view.items()} == filtered
        for file_id in (1, 2, 3):
            assert cache.dirty_blocks_of(file_id) == [
                b for b in cache._dirty.values() if b.block_id.file_id == file_id
            ]


CacheIndexMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
test_per_file_views_mirror_the_global_maps = CacheIndexMachine.TestCase
