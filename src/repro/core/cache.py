"""The file-system block cache.

"The cache modules are used to administer and maintain a file-system block
cache.  It provides interfaces to administer all dirty, non-dirty and free
blocks in lists, and it provides interfaces to allocate blocks from the
cache.  Also, when blocks are allocated from a full cache, it decides which
blocks are replaced and flushed." (Section 2)

The base cache keeps three collections:

* a free list of never-used slots,
* an index of every resident block, whose clean members sit in the
  replacement policy's own lists (each block is its own list node), in
  eviction order,
* a *dirty* list ordered by the time each block first became dirty.

Allocation takes free slots first, then asks the configured
:class:`~repro.core.replacement.ReplacementPolicy` for a victim.  The
policy is event-driven: the cache reports inserts, accesses, dirty/clean
transitions and evictions, and the policy answers ``victim()`` in O(1)
amortised time from its own intrusive lists (including ghost lists for the
adaptive policies).  When no block is evictable the cache "initiates a
cache flush through the oldest dirty block" — either synchronously in the
allocating thread, or by kicking an asynchronous flush daemon (the Section
5.2 lesson) registered by the active :class:`~repro.core.flush.FlushPolicy`.
Such a flush writes one ``flush_unit``: by default the *extent* of dirty
file-mates around the oldest block, so a file pushed out under pressure
costs one log append and one inode per run, not one per block.

Persistency policies (the 30-second update timer, UPS write-saving, NVRAM)
are *derived components* implemented in :mod:`repro.core.flush`; they drive
the cache through the public flush interfaces below.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterable, Optional

import repro.core.replacement  # noqa: F401  (registers the built-in "replacement" policies)
from repro.assembly.registry import registry
from repro.config import CacheConfig
from repro.core.blocks import BlockId, BlockState, CacheBlock
from repro.core.scheduler import Scheduler
from repro.errors import CacheError, CacheExhaustedError

__all__ = ["BlockCache", "CacheStatistics", "WritebackBatch", "WritebackFn"]

CLEAN, DIRTY = BlockState.CLEAN, BlockState.DIRTY

#: Writeback callback registered by the file system: a generator function
#: that writes one batch — ``(file_id, [(block_no, block), ...])`` per file,
#: the cache's own pinned, busy blocks in block-number order — to stable
#: storage and returns when the write has completed.
WritebackBatch = list[tuple[int, list[tuple[int, CacheBlock]]]]
WritebackFn = Callable[[WritebackBatch], Generator[Any, Any, None]]


@dataclass
class CacheStatistics:
    """Counters maintained by the cache; read by statistics plug-ins."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    allocations: int = 0
    evictions: int = 0
    blocks_dirtied: int = 0
    blocks_cleaned: int = 0
    writeback_calls: int = 0
    blocks_written: int = 0
    dirty_blocks_discarded: int = 0
    allocation_stalls: int = 0
    nvram_stalls: int = 0
    peak_dirty_bytes: int = 0
    forced_replacement_flushes: int = 0
    #: misses whose identity was found in a policy ghost list (ARC).
    ghost_hits: int = 0
    #: times an adaptive policy re-tuned itself (ARC target movements).
    policy_adaptations: int = 0
    #: list nodes examined across all victim selections; divided by
    #: ``evictions`` this measures the (amortised O(1)) eviction cost.
    victim_scan_steps: int = 0
    #: partial-block writes over uncached old bytes that read nothing and
    #: left the bytes owed (``CacheBlock.owed``), and where the debts were
    #: paid: by a read outside the written bytes, by a later write disjoint
    #: from them, or by the writeback.  The rest were never paid: the block
    #: got overwritten whole, truncated or deleted first.
    fills_deferred: int = 0
    fills_at_read: int = 0
    fills_at_write: int = 0
    fills_at_writeback: int = 0

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def snapshot(self) -> dict:
        return dict(vars(self), hit_rate=self.hit_rate)


class BlockCache:
    """The framework's block cache (base component).

    Parameters
    ----------
    scheduler:
        The thread scheduler (for time stamps and blocking).
    config:
        Cache geometry and replacement policy.
    with_data:
        ``True`` for an on-line system (slots own real buffers), ``False``
        for a simulator.
    """

    def __init__(self, scheduler: Scheduler, config: CacheConfig, with_data: bool = True):
        self.scheduler = scheduler
        self._now = scheduler.clock.now
        self.config = config
        self.block_size = config.block_size
        self.with_data = with_data
        self.stats = CacheStatistics()
        #: the replacement policy; event-driven, shares this cache's stats.
        self.policy = registry.create(
            "replacement", config.replacement, config.num_blocks, scheduler.rng, self.stats
        )
        self._slots = [
            CacheBlock(slot, config.block_size, with_data, self)
            for slot in range(config.num_blocks)
        ]
        self._free: deque[CacheBlock] = deque(self._slots)
        self._index: dict[BlockId, CacheBlock] = {}
        #: dirty residents, in first-dirtied order (drives flush policies).
        self._dirty: "OrderedDict[BlockId, CacheBlock]" = OrderedDict()
        #: per-file views of ``_index`` and ``_dirty``: ``file_id ->
        #: {block_no -> block}``.  Updated exactly where the global maps are,
        #: so each lists its file's blocks in the order the global map holds
        #: them (that order reaches the free list and the policy); a file
        #: with no block left has no entry.
        self._resident_of: dict[int, dict[int, CacheBlock]] = {}
        self._dirty_of: dict[int, dict[int, CacheBlock]] = {}

        #: registered by the file system; required before any flush happens.
        self.writeback: Optional[WritebackFn] = None
        #: set by the NVRAM flush policy: maximum bytes of dirty data allowed.
        self.dirty_limit_bytes: Optional[int] = None
        #: what one :meth:`flush_oldest` writes -- every flush made because
        #: clean blocks or NVRAM ran out: ``"extent"`` (the oldest dirty
        #: block and the dirty file-mates at consecutive block numbers
        #: around it), ``"file"`` or ``"block"`` (the two NVRAM experiments;
        #: set by the flush policy).
        self.flush_unit: str = "extent"
        #: when set, allocation pressure is delegated to this callable
        #: (the asynchronous flush daemon) instead of flushing inline.
        self.space_requester: Optional[Callable[[], None]] = None
        #: an allocation leaving fewer free + clean blocks wakes the flush
        #: daemon without waiting for it (set by the flush policy; 0: never).
        self.low_water_blocks = 0
        #: set by the NVRAM flush policy when flushing is asynchronous: wakes
        #: its drain daemon.  A dirtying past ``drain_high_water_bytes``
        #: calls it without waiting, one that would pass the dirty limit
        #: calls it and waits for space.  ``None``: the writer flushes itself.
        self.drain_requester: Optional[Callable[[], None]] = None
        self.drain_high_water_bytes = 0

        self._space_available = scheduler.new_event("cache-space")
        self._io_done = scheduler.new_event("cache-io-done")

    # ------------------------------------------------------------------ queries

    @property
    def num_blocks(self) -> int:
        return len(self._slots)

    @property
    def free_count(self) -> int:
        return len(self._free)

    @property
    def clean_count(self) -> int:
        return len(self._index) - len(self._dirty)

    @property
    def dirty_count(self) -> int:
        return len(self._dirty)

    @property
    def dirty_bytes(self) -> int:
        return len(self._dirty) * self.block_size

    @property
    def cached_count(self) -> int:
        return len(self._index)

    def contains(self, file_id: int, block_no: int) -> bool:
        return (file_id, block_no) in self._index  # a plain tuple probes BlockId keys

    def peek(self, file_id: int, block_no: int) -> Optional[CacheBlock]:
        """Look up a block without touching statistics or recency."""
        return self._index.get((file_id, block_no))

    def lookup(self, file_id: int, block_no: int) -> Optional[CacheBlock]:
        """Look up a block, recording a hit or miss and updating recency."""
        stats = self.stats
        stats.lookups += 1
        block = self._index.get((file_id, block_no))
        if block is None:
            stats.misses += 1
            return None
        if block.read_ahead:
            # Present only because a read for another block fetched it too:
            # this reference would have missed, and is counted so.  The
            # insert at fill time already stands for it with the replacement
            # policy — a second event would promote every sequentially read
            # block as "re-referenced".  The caller clears the flag once it
            # takes the block.
            stats.misses += 1
            return block
        stats.hits += 1
        block.last_access = self._now()
        self.policy.on_access(block)
        return block

    def dirty_blocks_of(self, file_id: int) -> list[CacheBlock]:
        """Dirty blocks of one file, oldest first."""
        return list(self._dirty_of.get(file_id, {}).values())

    def cached_blocks_of(self, file_id: int) -> list[CacheBlock]:
        return list(self._resident_of.get(file_id, {}).values())

    def oldest_dirty(self, skip_busy: bool = True) -> Optional[CacheBlock]:
        for block in self._dirty.values():
            if skip_busy and block.busy:
                continue
            return block
        return None

    def dirty_files(self) -> list[int]:
        """File identifiers that currently own dirty blocks, oldest first."""
        # Not the keys of ``_dirty_of``: a file keeps its slot there after
        # its oldest block is cleaned, ``_dirty`` orders by the oldest left.
        return list(dict.fromkeys(block.block_id.file_id for block in self._dirty.values()))

    def blocks(self) -> Iterable[CacheBlock]:
        return iter(self._slots)

    def oldest_dirty_age(self) -> float:
        """Age (seconds) of the oldest dirty block, or 0 when nothing is dirty."""
        block = self.oldest_dirty(skip_busy=False)
        if block is None or block.dirty_since is None:
            return 0.0
        return self.scheduler.now - block.dirty_since

    # ------------------------------------------------------------------ waiting helpers

    def wait_block_ready(
        self, file_id: Optional[int] = None, block_no: Optional[int] = None
    ) -> Generator[Any, Any, None]:
        """Wait until some in-flight block I/O completes (spurious wake-ups
        are possible; callers re-check their condition in a loop).  The
        optional ``(file_id, block_no)`` identifies the block being waited
        for; a plain cache has a single completion event, but the sharded
        façade uses the identity to wait on the owning shard."""
        yield from self._io_done.wait()

    def notify_block_ready(
        self, file_id: Optional[int] = None, block_no: Optional[int] = None
    ) -> None:
        self._io_done.signal()

    # ------------------------------------------------------------------ allocation

    def allocate(self, file_id: int, block_no: int) -> Generator[Any, Any, CacheBlock]:
        """Allocate a cache slot for ``(file_id, block_no)``.

        The returned block is inserted in the clean list with invalid
        contents; callers pin it and mark it busy while filling it (from disk
        or from a client write).  Blocks "are first allocated from the
        non-dirty list, and when there are no non-dirty blocks available, the
        cache initiates a cache flush through the oldest dirty block".
        """
        block = self.allocate_now(file_id, block_no)
        if block is None:
            block = yield from self.allocate_later(file_id, block_no)
        return block

    def allocate_now(self, file_id: int, block_no: int) -> Optional[CacheBlock]:
        """:meth:`allocate` without waiting: ``None`` when no slot is free or
        evictable right now (the caller then goes on with
        :meth:`allocate_later`); ``CacheError`` when the block is cached."""
        block = self._take(file_id, block_no)
        low_water = self.low_water_blocks
        if block is not None and low_water and (
            len(self._free) + len(self._index) - len(self._dirty) < low_water
        ):
            self.space_requester()
        return block

    def allocate_later(self, file_id: int, block_no: int) -> Generator[Any, Any, CacheBlock]:
        """The rest of :meth:`allocate` once :meth:`allocate_now` found no
        slot: make space (flush, or wait for the flush daemon) and try again
        until a slot is found."""
        attempts = 0
        while True:
            attempts += 1
            if attempts > 10 * self.num_blocks:
                raise CacheExhaustedError(
                    f"cannot allocate a cache block for {BlockId(file_id, block_no)}: "
                    f"{self.dirty_count} dirty, {self.clean_count} clean (all pinned?)"
                )
            self.stats.allocation_stalls += 1
            yield from self._make_space()
            # Another thread may have cached this very block while we
            # waited for space: ``allocate_now`` raises the ``CacheError``
            # every caller already handles with a re-lookup.
            block = self.allocate_now(file_id, block_no)
            if block is not None:
                return block

    def try_allocate(self, file_id: int, block_no: int) -> Optional[CacheBlock]:
        """:meth:`allocate` for a block nobody is waiting for (read-ahead):
        never blocks, never flushes and never wakes the flush daemon.
        ``None`` when the block is already cached or no slot is free or
        evictable right now."""
        if (file_id, block_no) in self._index:
            return None
        return self._take(file_id, block_no)

    def _take(self, file_id: int, block_no: int) -> Optional[CacheBlock]:
        """A free slot, or the replacement policy's victim evicted, installed
        as ``(file_id, block_no)``; ``None`` if neither exists, and a
        ``CacheError`` if the block is cached already."""
        block_id = BlockId(file_id, block_no)
        if block_id in self._index:
            raise CacheError(f"block {block_id} is already cached")
        if self._free:
            block = self._free.popleft()
        else:
            block = self.policy.victim(block_id)
            if block is None:
                return None
            # Replacement eviction: the policy may remember the identity in
            # a ghost list (the incoming block is what pushed it out).
            self.policy.on_evict(block, True)
            self._remove(block)
            block.reset()
            self.stats.evictions += 1
        block.block_id = block_id
        block.state = CLEAN
        block.last_access = self._now()
        self._index[block_id] = block
        self._resident_of.setdefault(file_id, {})[block_no] = block
        self.policy.on_insert(block)
        self.stats.allocations += 1
        return block

    def has_allocatable_slot(self) -> bool:
        """True when an allocation could succeed right now without flushing."""
        return bool(self._free) or self.policy.victim(peek=True) is not None

    def _make_space(self) -> Generator[Any, Any, None]:
        """Create an evictable block, by flushing dirty data."""
        if self.space_requester is not None:
            # Asynchronous flushing: wake the flush daemon and wait for it to
            # report that space is available.
            self.space_requester()
            yield from self._space_available.wait()
            return
        # Synchronous flushing in the allocating thread (the original design
        # the paper's Section 5.2 later moved away from).
        self.stats.forced_replacement_flushes += 1
        yield from self._flush_oldest_or_wait()

    def _flush_oldest_or_wait(self) -> Generator[Any, Any, None]:
        """Flush the oldest dirty data in the calling thread (out of clean
        blocks with no flush daemon, or out of NVRAM)."""
        if (yield from self.flush_oldest()) == 0:
            # Everything is pinned/busy; wait for in-flight I/O to finish.
            yield from self.wait_block_ready()

    def notify_space_available(self) -> None:
        """Called by the flush daemon once clean/free blocks exist again."""
        self._space_available.signal()

    # ------------------------------------------------------------------ dirty / clean transitions

    def mark_dirty(self, block: CacheBlock) -> Generator[Any, Any, None]:
        """Mark ``block`` dirty, honouring the NVRAM dirty-data limit.

        When a dirty-byte limit is configured (the NVRAM experiments) and the
        limit is reached, the caller is stalled while the oldest dirty data
        is drained to disk — this is exactly the "new writes are waiting for
        the NVRAM to drain" behaviour reported for trace 1b.  With a drain
        daemon (:attr:`drain_requester`) the caller signals it and waits for
        space; without one it flushes in its own thread.
        """
        if self.mark_dirty_now(block):
            return
        limit, dirty, size = self.dirty_limit_bytes, self._dirty, self.block_size
        # One stall per dirtying that waits, however many wake-ups it takes.
        self.stats.nvram_stalls += 1
        while (len(dirty) + 1) * size > limit and dirty:
            if self.drain_requester is None:
                yield from self._flush_oldest_or_wait()
            else:
                self.drain_requester()
                yield from self._space_available.wait()
        self._dirty_block(block)

    def mark_dirty_now(self, block: CacheBlock) -> bool:
        """:meth:`mark_dirty` without waiting: ``False``, with nothing done,
        when the dirtying would pass the dirty limit."""
        block_id = block.block_id
        if block_id is None or block_id not in self._index:
            raise CacheError("cannot dirty a block that is not in the cache")
        # The reference that dirtied this block was already counted by the
        # lookup/allocate that preceded it; notifying the policy again would
        # make every freshly written block look re-referenced and defeat
        # scan resistance, so only the block's own bookkeeping is updated.
        if block.state is DIRTY:
            block.last_access = self._now()
            return True
        limit, dirty = self.dirty_limit_bytes, self._dirty
        if limit is not None and (len(dirty) + 1) * self.block_size > limit and dirty:
            return False
        self._dirty_block(block)
        return True

    def _dirty_block(self, block: CacheBlock) -> None:
        block_id, dirty = block.block_id, self._dirty
        block.state = DIRTY
        block.dirty_since = block.last_access = self._now()
        dirty[block_id] = block
        self._dirty_of.setdefault(block_id[0], {})[block_id[1]] = block
        self.policy.on_dirty(block)
        stats = self.stats
        stats.blocks_dirtied += 1
        dirty_bytes = len(dirty) * self.block_size
        if dirty_bytes > stats.peak_dirty_bytes:
            stats.peak_dirty_bytes = dirty_bytes
        if self.drain_requester is not None and dirty_bytes > self.drain_high_water_bytes:
            self.drain_requester()

    def mark_clean(self, block: CacheBlock) -> None:
        """Move a dirty block back to the clean list (its data is on disk)."""
        if block.state is not DIRTY:
            return
        block_id = block.block_id
        self._dirty.pop(block_id, None)
        self._drop_from(self._dirty_of, block_id)
        block.state = CLEAN
        block.dirty_since = None
        self.policy.on_clean(block)
        self.stats.blocks_cleaned += 1

    # ------------------------------------------------------------------ invalidation

    def _remove(self, block: CacheBlock) -> None:
        block_id = block.block_id
        if block_id is None:
            return
        self._index.pop(block_id, None)
        self._drop_from(self._resident_of, block_id)
        if self._dirty.pop(block_id, None) is not None:
            self._drop_from(self._dirty_of, block_id)

    @staticmethod
    def _drop_from(view: dict[int, dict[int, CacheBlock]], block_id: BlockId) -> None:
        file_id, block_no = block_id
        blocks = view.get(file_id)
        if blocks is not None and blocks.pop(block_no, None) is not None and not blocks:
            del view[file_id]

    def invalidate(self, block: CacheBlock) -> None:
        """Drop one block from the cache, discarding its contents."""
        if block.pinned or block.busy:
            raise CacheError(f"cannot invalidate pinned/busy block {block.block_id}")
        if block.is_dirty:
            self.stats.dirty_blocks_discarded += 1
        # No ghost: the data is destroyed (truncate/delete), not displaced.
        self.policy.on_evict(block, ghost=False)
        self._remove(block)
        block.reset()
        self._free.append(block)

    def invalidate_file(self, file_id: int, from_block: int = 0) -> tuple[int, int]:
        """Drop every cached block of ``file_id`` with block number >=
        ``from_block`` (used by delete and truncate).

        Returns ``(clean_dropped, dirty_dropped)``.  Dirty blocks dropped
        here are the "write savings" of the delayed-write policies: data that
        died in memory and never cost a disk write.
        """
        clean_dropped = 0
        dirty_dropped = 0
        doomed = [
            block
            for block_no, block in self._resident_of.get(file_id, {}).items()
            if block_no >= from_block
        ]
        for block in doomed:
            if block.pinned or block.busy:
                # An in-flight I/O will complete harmlessly; skip it.
                continue
            if block.is_dirty:
                dirty_dropped += 1
            else:
                clean_dropped += 1
            if block.is_dirty:
                self.stats.dirty_blocks_discarded += 1
            self.policy.on_evict(block, ghost=False)
            self._remove(block)
            block.reset()
            self._free.append(block)
        # Ghosts of previously evicted blocks of this file must go too:
        # the data range is destroyed, so a later write to the same block
        # numbers is new data, not reuse.
        self.policy.forget_file(file_id, from_block)
        if doomed:
            self.notify_space_available()
        return clean_dropped, dirty_dropped

    # ------------------------------------------------------------------ flushing

    def flush_block(self, block: CacheBlock) -> Generator[Any, Any, int]:
        """Write one dirty block to disk; returns the number of blocks written."""
        if not block.is_dirty or block.busy:
            return 0
        return (yield from self._writeback_blocks([block]))

    def flush_file(self, file_id: int) -> Generator[Any, Any, int]:
        """Write every dirty block of ``file_id`` to disk."""
        return (yield from self.flush_files([file_id]))

    def flush_files(self, file_ids: Iterable[int]) -> Generator[Any, Any, int]:
        """Write every dirty block of ``file_ids`` as one writeback batch
        (busy blocks, already on their way, are left out)."""
        blocks = [
            block
            for file_id in file_ids
            for block in self._dirty_of.get(file_id, {}).values()
            if not block.busy
        ]
        if not blocks:
            return 0
        return (yield from self._writeback_blocks(blocks))

    def flush_oldest(self, blocks: int = 1) -> Generator[Any, Any, int]:
        """Flush the oldest non-busy dirty data as one writeback: a
        :attr:`flush_unit` around each dirty block in first-dirtied order
        until the units hold ``blocks`` blocks or more.  Returns the number
        of blocks written (0: nothing flushable)."""
        batch: dict[BlockId, CacheBlock] = {}
        for block in self._dirty.values():
            if len(batch) >= blocks:
                break
            if not block.busy and block.block_id not in batch:
                batch.update((mate.block_id, mate) for mate in self._unit_of(block))
        if not batch:
            return 0
        return (yield from self._writeback_blocks(list(batch.values())))

    def _unit_of(self, victim: CacheBlock) -> list[CacheBlock]:
        if self.flush_unit == "block":
            return [victim]
        if self.flush_unit == "file":
            mates = self._dirty_of[victim.block_id.file_id].values()
            return [mate for mate in mates if not mate.busy]
        return self._extent_around(victim)

    def _extent_around(self, victim: CacheBlock) -> list[CacheBlock]:
        """``victim`` and its dirty file-mates at consecutive block numbers
        on both sides, in block order.  A missing or busy neighbour ends the
        run: it is neither waited for nor skipped over.  One writeback of
        the run is one log append with one inode; for a sequentially written
        file it is the paper's "file associated to the oldest block", for a
        random overwrite nothing that was not dirtied next to the victim."""
        mates = self._dirty_of[victim.block_id.file_id]
        first = last = victim.block_id.block_no
        while (mate := mates.get(first - 1)) is not None and not mate.busy:
            first -= 1
        while (mate := mates.get(last + 1)) is not None and not mate.busy:
            last += 1
        return [mates[block_no] for block_no in range(first, last + 1)]

    def flush_all(self) -> Generator[Any, Any, int]:
        """Flush every dirty block (sync / unmount / checkpoint), one batch
        of every file at a time, until nothing is left but busy blocks."""
        written = 0
        while flushed := (yield from self.flush_files(self.dirty_files())):
            written += flushed
        return written

    def _writeback_blocks(self, blocks: list[CacheBlock]) -> Generator[Any, Any, int]:
        """One writeback call for ``blocks``, grouped by file in the order
        the files first appear, each file's blocks in block-number order."""
        if self.writeback is None:
            raise CacheError("no writeback function registered with the cache")
        batch: dict[int, list[tuple[int, CacheBlock]]] = {}
        for block in blocks:
            block.busy = True
            block.pin_count += 1
            file_id, block_no = block.block_id
            batch.setdefault(file_id, []).append((block_no, block))
        for pairs in batch.values():
            pairs.sort()  # by block number: no two are equal, no blocks compared
        try:
            yield from self.writeback(list(batch.items()))
        finally:
            for block in blocks:
                block.pin_count -= 1
                block.busy = False
        for block in blocks:
            self.mark_clean(block)
            if block.owed is not None and not block.pinned:
                # The writeback could not read its old bytes (dead volume,
                # no live copy) and left it out: drop it, never keep or
                # write a block with a hole where those bytes belong.
                self.invalidate(block)
        self.stats.writeback_calls += 1
        self.stats.blocks_written += len(blocks)
        self.notify_space_available()
        self.notify_block_ready()
        return len(blocks)

    def __repr__(self) -> str:
        return (
            f"BlockCache(blocks={self.num_blocks}, free={self.free_count}, "
            f"clean={self.clean_count}, dirty={self.dirty_count})"
        )
