"""A segmented log-structured file system layout (Sprite-LFS style).

"Currently, we have implemented a segmented LFS.  This system stores
file-system updates to the end of the log, and is able to find files through
an IFILE.  The log-cleaner can be replaced and is plugged into the LFS
component when the system starts up." (Section 2)

On-disk layout (real instantiation):

```
block 0      superblock (points at the most recent checkpoint)
block 1...   segments, each ``segment_blocks`` blocks long:
             block 0 of a segment = segment summary
             blocks 1..N-1        = log blocks (file data, inodes, checkpoints)
```

The inode map (the IFILE contents) maps inode numbers to the log address of
the most recent copy of each inode; it is kept in memory and persisted in
checkpoints, which are themselves appended to the log.

A *simulated* LFS issues exactly the same disk traffic but serialises no
data, and synthesises stable random addresses for file blocks it has never
seen (trace replay touches files that existed before the trace started).
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from collections import defaultdict
from operator import itemgetter
from typing import Any, Generator, Iterable, Optional

from repro.assembly.registry import registry
from repro.core import codec
from repro.core.blocks import CacheBlock
from repro.core.inode import FileKind, Inode, ROOT_INODE_NUMBER
from repro.core.scheduler import Scheduler
from repro.core.storage.layout import ReadAhead, StorageLayout, WriteBack
from repro.core.storage.segindex import UtilisationBuckets
from repro.core.storage.volume import Volume
from repro.core.sync import Mutex, gather
from repro.errors import NoSpaceLeft, StorageError
from repro.units import DEFAULT_BLOCK_SIZE

__all__ = ["LogStructuredLayout", "SegmentInfo"]

#: one planned disk read: the first block address and the file blocks it
#: fetches, as ``(offset from that address, logical block number)`` in
#: ascending order.  The read spans up to the last offset; an offset no
#: member names is a block read through and discarded.
ReadRun = tuple[int, list[tuple[int, int]]]


def _contiguous_runs(offsets: list[int]) -> list[tuple[int, int]]:
    """Group a sorted offset list into ``(start, length)`` runs."""
    runs: list[tuple[int, int]] = []
    for offset in offsets:
        if runs and runs[-1][0] + runs[-1][1] == offset:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((offset, 1))
    return runs


class SegmentInfo:
    """Cleaner-visible view of one segment."""

    __slots__ = ("index", "live_blocks", "capacity", "modified_at")

    def __init__(self, index: int, live_blocks: int, capacity: int, modified_at: float):
        self.index = index
        self.live_blocks = live_blocks
        self.capacity = capacity
        self.modified_at = modified_at

    @property
    def utilisation(self) -> float:
        if self.capacity == 0:
            return 1.0
        return self.live_blocks / self.capacity

    def __repr__(self) -> str:
        return f"SegmentInfo(#{self.index} live={self.live_blocks}/{self.capacity})"


class LogStructuredLayout(StorageLayout):
    """Segmented log-structured layout."""

    name = "lfs"
    #: cold-read run length read-ahead stops at (<=1: none; never splits
    #: asked-for blocks).
    read_coalesce_blocks = 8
    #: cleaner candidate-set bound drawn from the utilisation buckets
    #: (0 = unbounded, i.e. the full segment scan).
    cleaner_candidate_bound = 64

    def __init__(
        self,
        scheduler: Scheduler,
        volume: Volume,
        block_size: int = DEFAULT_BLOCK_SIZE,
        segment_blocks: int = 64,
        simulated: bool = False,
        seed: int = 0,
    ):
        super().__init__(scheduler, volume, block_size, simulated=simulated, seed=seed)
        if segment_blocks < 4:
            raise StorageError("segments must hold at least 4 blocks")
        self.segment_blocks = segment_blocks
        # Segments are laid out per disk so a segment never straddles a disk
        # boundary (one segment write is one disk operation).  Block 0 of the
        # volume (on disk 0) is reserved for the superblock.  Geometry is
        # static, so each segment's disk is recorded once, here.
        self._segment_starts: list[int] = []
        self._segment_disk: list[int] = []
        for disk_index in range(volume.num_disks):
            disk_blocks = volume.blocks_on_disk(disk_index)
            start = disk_blocks.start + (1 if disk_index == 0 else 0)
            starts = range(start, disk_blocks.stop - segment_blocks + 1, segment_blocks)
            self._segment_starts.extend(starts)
            self._segment_disk.extend([disk_index] * len(starts))
        self.num_segments = len(self._segment_starts)
        if self.num_segments < 2:
            raise StorageError(
                f"volume too small for LFS: {self.num_segments} segments of {segment_blocks} blocks"
            )
        # --- IFILE / inode map: inode number -> (log address, blocks) -------
        self.inode_map: dict[int, tuple[int, int]] = {}
        #: live inode blocks (the first block of a multi-block inode):
        #: address -> the inode numbers mapped there.  A block an append
        #: packed several inodes into stays live until the last of them dies.
        self._inode_blocks: dict[int, set[int]] = {}
        # --- segment accounting ------------------------------------------------
        self.segment_usage: list[int] = [0] * self.num_segments
        self.segment_mtime: list[float] = [0.0] * self.num_segments
        self.segment_summaries: dict[int, list[tuple[int, int, bool]]] = defaultdict(list)
        #: one flag per segment (1 = free), and how many are set.
        self.free_segments = bytearray(b"\x01") * self.num_segments
        self.free_segment_count = self.num_segments
        # --- in-core state -----------------------------------------------------
        self.next_inode_number = ROOT_INODE_NUMBER
        self._inode_objects: dict[int, Inode] = {}
        self._active_segment: Optional[int] = None
        self._active_offset = 1
        self._append_lock: Optional[Mutex] = None
        self._checkpoint_location: Optional[tuple[int, int]] = None
        self._mounted = False
        self._last_disk = -1
        # --- free-segment heaps (one per disk, lazy deletion) ------------------
        # ``free_segments`` stays the source of truth; the heaps only order it
        # so _pick_free_segment is O(disks·log n) instead of an O(F) scan.
        self._free_heaps: list[list[int]] = []
        self._rebuild_free_heaps()
        # Incremental total of live blocks across all segments (= what the old
        # free_blocks property recomputed with an O(num_segments) sum).
        self._live_total = 0
        #: recovery crash points; attached by the assembly builder when a
        #: CrashPoints instance is threaded through the stack.
        self.crashpoints = None
        #: True once a checkpoint is reachable from the superblock (the
        #: recovery floor; crash points only arm past it).
        self._durable_checkpoint = False
        self._buckets = UtilisationBuckets()
        #: non-free segments whose summary has not been read since
        #: mount (lazy mount: loaded on first cleaner touch).
        self._unloaded: set[int] = set()
        #: log addresses reserved under the append lock whose disk write has
        #: not completed.  Inodes and summaries already name them, but the
        #: bytes are not on disk yet: read-ahead must stop short of them
        #: (the block itself stays cached until its writeback returns).
        self._unwritten: set[int] = set()

    # ------------------------------------------------------------------ geometry helpers

    def segment_start(self, segment: int) -> int:
        return self._segment_starts[segment]

    def segment_of(self, block_addr: int) -> int:
        """Segment index containing ``block_addr``, or -1 if it lies outside
        any segment (reserved blocks, end-of-disk slack)."""
        index = bisect_right(self._segment_starts, block_addr) - 1
        if index < 0:
            return -1
        if block_addr < self._segment_starts[index] + self.segment_blocks:
            return index
        return -1

    @property
    def free_segment_fraction(self) -> float:
        return self.free_segment_count / self.num_segments

    @property
    def free_blocks(self) -> int:
        per_segment = self.segment_blocks - 1  # minus the summary block
        return self.free_segment_count * per_segment + max(
            0,
            (self.num_segments - self.free_segment_count) * per_segment
            - self._live_total,
        )

    # ------------------------------------------------------------------ lifecycle

    def format(self) -> Generator[Any, Any, None]:
        """Write an empty file system: a superblock with no checkpoint."""
        self.inode_map.clear()
        self._inode_blocks.clear()
        self._inode_objects.clear()
        self.segment_usage = [0] * self.num_segments
        self.segment_summaries.clear()
        self.free_segments = bytearray(b"\x01") * self.num_segments
        self.free_segment_count = self.num_segments
        self.next_inode_number = ROOT_INODE_NUMBER
        self._checkpoint_location = None
        self._durable_checkpoint = False
        self._rebuild_free_heaps()
        self._live_total = 0
        self._buckets.clear()
        self._unloaded.clear()
        self._unwritten.clear()
        if not self.simulated:
            superblock = codec.pack_superblock(
                self.block_size, self.segment_blocks, self.volume.total_blocks, 0, 0
            )
            yield from self.volume.write_block(0, self._pad(superblock))
            self.stats.disk_writes += 1

    def mount(self) -> Generator[Any, Any, None]:
        self._append_lock = Mutex(self.scheduler, "lfs-append")
        if self.simulated:
            self._mounted = True
            self._activate_segment(self._pick_free_segment())
            return
        data = yield from self.volume.read_block(0)
        self.stats.disk_reads += 1
        if data is None:
            raise StorageError("cannot mount a real LFS on a data-less volume")
        superblock = codec.unpack_superblock(data)
        if superblock["block_size"] != self.block_size:
            raise StorageError(
                f"volume was formatted with block size {superblock['block_size']}, "
                f"mounted with {self.block_size}"
            )
        if superblock["checkpoint_addr"]:
            yield from self._load_checkpoint(
                superblock["checkpoint_addr"], superblock["checkpoint_blocks"]
            )
        self._mounted = True
        self._activate_segment(self._pick_free_segment())

    def _load_checkpoint(self, address: int, nblocks: int) -> Generator[Any, Any, None]:
        raw = yield from self.volume.read_run(address, nblocks)
        self.stats.disk_reads += 1
        if raw is None:
            raise StorageError("checkpoint read returned no data")
        checkpoint = codec.unpack_checkpoint(raw)
        self.inode_map = dict(checkpoint["inode_map"])
        self._inode_blocks = {}
        for number, (first, _nblocks) in self.inode_map.items():
            self._inode_blocks.setdefault(first, set()).add(number)
        self.next_inode_number = checkpoint["next_inode_number"]
        usage = checkpoint["segment_usage"]
        self.segment_usage = [usage.get(s, 0) for s in range(self.num_segments)]
        self.free_segments = bytearray(live == 0 for live in self.segment_usage)
        self.free_segment_count = self.free_segments.count(1)
        self._checkpoint_location = (address, nblocks)
        self._durable_checkpoint = True
        self._rebuild_free_heaps()
        self._live_total = sum(self.segment_usage)
        # Lazy mount: no summary sweep.  The checkpoint's usage counters are
        # enough to seed the cleaner's utilisation buckets; a segment's
        # summary is read the first time the cleaner touches it.
        self._buckets.clear()
        self._unloaded.clear()
        self.segment_summaries.clear()
        for segment in range(self.num_segments):
            if self.free_segments[segment]:
                continue
            self._unloaded.add(segment)
            self._buckets.insert(
                segment, self.segment_usage[segment], self.segment_blocks - 1
            )

    def _load_segment_summary(self, segment: int) -> Generator[Any, Any, None]:
        """Lazily read one sealed segment's summary block.

        A block that cannot be read or decoded raises ``StorageError`` and
        leaves the segment unloaded: an empty summary would let the cleaner
        free a segment that still holds live blocks."""
        raw = yield from self.volume.read_block(self.segment_start(segment))
        self.stats.disk_reads += 1
        if raw is None:
            raise StorageError(f"segment {segment}: summary block returned no data")
        self.segment_summaries[segment] = codec.unpack_segment_summary(raw)
        self._unloaded.discard(segment)
        self.stats.lazy_summary_loads += 1

    def checkpoint(self) -> Generator[Any, Any, None]:
        """Append a checkpoint to the log and point the superblock at it."""
        if not self._mounted:
            return
        if self.simulated:
            return
        assert self._append_lock is not None
        writes: list[tuple[int, int, Optional[bytes]]] = []
        yield from self._append_lock.acquire()
        try:
            # Retire the previous checkpoint's blocks.
            if self._checkpoint_location is not None:
                self._kill_blocks(*self._checkpoint_location)
            # Reserve first, pack then: the usage table must count the
            # checkpoint's own blocks — and the fresh segment they may have
            # opened — or a remount takes that segment for free and writes
            # over the checkpoint the superblock points at.  One entry of
            # slack in the size covers that segment.
            size = codec.checkpoint_size(
                len(self.inode_map), len(self._checkpointed_usage()) + 1
            )
            nblocks = -(-size // self.block_size)
            entries = [(0, i, False, None) for i in range(nblocks)]
            addresses = yield from self._reserve(entries, writes, contiguous=True)
            payload = codec.pack_checkpoint(
                timestamp=self.scheduler.now,
                next_inode_number=self.next_inode_number,
                next_segment=self._active_segment or 0,
                inode_map=self.inode_map,
                segment_usage=self._checkpointed_usage(),
            )
            writes[-1] = (
                addresses[0],
                nblocks,
                payload + bytes(nblocks * self.block_size - len(payload)),
            )
            self._checkpoint_location = (addresses[0], nblocks)
        finally:
            self._append_lock.release()
        yield from self._issue(writes)
        yield from self._write_active_summary()
        superblock = codec.pack_superblock(
            self.block_size,
            self.segment_blocks,
            self.volume.total_blocks,
            addresses[0],
            nblocks,
        )
        yield from self.volume.write_block(0, self._pad(superblock))
        self.stats.disk_writes += 1
        self._durable_checkpoint = True

    def _checkpointed_usage(self) -> dict[int, int]:
        return {
            s: self.segment_usage[s]
            for s in range(self.num_segments)
            if self.segment_usage[s] > 0 or s == self._active_segment
        }

    # ------------------------------------------------------------------ inodes

    def allocate_inode(
        self,
        kind: FileKind,
        parent_id: Optional[int] = None,
        name: Optional[str] = None,
    ) -> Inode:
        number = self.next_inode_number
        self.next_inode_number += 1
        now = self.scheduler.now
        inode = Inode(number=number, kind=kind, atime=now, mtime=now, ctime=now)
        self._inode_objects[number] = inode
        return inode

    def known_inode_numbers(self) -> list[int]:
        known = set(self.inode_map) | set(self._inode_objects)
        return sorted(known)

    def read_inode(self, inode_number: int) -> Generator[Any, Any, Inode]:
        location = self.inode_map.get(inode_number)
        if location is None:
            inode = self._inode_objects.get(inode_number)
            if inode is None:
                raise StorageError(f"unknown inode {inode_number}")
            return inode
        address, nblocks = location
        raw = yield from self.volume.read_run(address, nblocks)
        self.stats.disk_reads += 1
        self.stats.inodes_read += 1
        if raw is None:
            # Simulated system: the read charged time; return the in-core object.
            inode = self._inode_objects.get(inode_number)
            if inode is None:
                raise StorageError(f"simulated LFS lost track of inode {inode_number}")
            return inode
        # An inode block may hold several inodes: pick this one's record.
        inode = next((i for i in codec.unpack_inode_block(raw) if i.number == inode_number), None)
        if inode is None:
            raise StorageError(f"inode {inode_number} is not in its inode block")
        self._inode_objects[inode_number] = inode
        return inode

    def free_inode(self, inode: Inode) -> Generator[Any, Any, None]:
        yield from self.release_blocks(inode, 0)
        self._kill_inode(inode.number)
        self._inode_objects.pop(inode.number, None)

    def _kill_inode(self, number: int) -> None:
        """Retire the current copy of inode ``number``: its inode block
        dies with the last inode mapped there."""
        old = self.inode_map.pop(number, None)
        if old is None:
            return
        members = self._inode_blocks[old[0]]
        members.discard(number)
        if not members:
            del self._inode_blocks[old[0]]
            self._kill_blocks(*old)

    # ------------------------------------------------------------------ file data

    def read_file_blocks(
        self,
        inode: Inode,
        blocks: list[tuple[int, CacheBlock]],
        *,
        readahead: Optional[ReadAhead] = None,
    ) -> Generator[Any, Any, int]:
        """One client read: fill the given (logical block number, cache
        block) pairs of ``inode`` from disk.

        The blocks are planned into physical runs (:meth:`_plan_read_runs`)
        and each run is one ``volume.read_run``; runs on different disks
        are in flight together.
        """
        slots = dict(blocks)
        by_disk: dict[int, list[ReadRun]] = {}
        for run in self._plan_read_runs(inode, slots, readahead):
            by_disk.setdefault(self.volume.disk_of(run[0]), []).append(run)
        counts = yield from gather(
            self.scheduler,
            [self._read_runs(runs, slots) for runs in by_disk.values()],
            name="read-run",
        )
        return sum(counts)

    def _plan_read_runs(
        self,
        inode: Inode,
        slots: dict[int, CacheBlock],
        readahead: Optional[ReadAhead],
    ) -> list[ReadRun]:
        """Plan one client read into the fewest disk reads.

        The requested blocks are taken in file order; a block joins the run
        before it when it sits physically next to that run's last block — or
        one block further, because each append puts the inodes behind its
        data (``d0-7 i d8-15 i``) and reading *through* that block is far
        cheaper than a second disk operation (it is fetched and discarded).
        A run ends with its segment — segments never straddle disks, so a
        run is always a single-disk operation.  The last run is then
        extended the same way with the file's following blocks, as far as
        ``readahead`` hands out slots for them, the file has blocks, their
        bytes are on disk (not ``_unwritten``) and the run holds fewer than
        ``read_coalesce_blocks`` file blocks: that bound is on read-ahead
        alone (0 or 1: none), never on the blocks the call asked for.
        """
        limit = self.read_coalesce_blocks
        runs: list[ReadRun] = []
        members: list[tuple[int, int]] = []
        start = room = 0

        def joins(address: int) -> bool:
            offset = address - start
            return members[-1][0] < offset <= members[-1][0] + 2 and offset < room

        for block_no in sorted(slots):
            address = self._read_address(inode, block_no)
            if address is None:
                continue  # a hole: the caller sees zeros
            if runs and joins(address):
                members.append((address - start, block_no))
                continue
            start, members = address, [(0, block_no)]
            runs.append((start, members))
            # Blocks from here to the segment end; outside any segment the
            # run stays this one block.
            segment = self.segment_of(start)
            room = 1
            if segment >= 0:
                room = self.segment_start(segment) + self.segment_blocks - start
        if runs and readahead is not None:
            block_no = members[-1][1] + 1
            end = -(-inode.size // self.block_size)
            while len(members) < limit and block_no < end and block_no not in slots:
                address = self._read_address(inode, block_no)
                if address is None or address in self._unwritten or not joins(address):
                    break
                slot = readahead(block_no)
                if slot is None:
                    break
                slots[block_no] = slot
                members.append((address - start, block_no))
                block_no += 1
        return runs

    def _read_address(self, inode: Inode, block_no: int) -> Optional[int]:
        """Where to read ``block_no`` from: its mapped address, else (in a
        simulator) its place in the file's synthetic extent, else ``None``."""
        address = inode.get_block_address(block_no)
        if address is None and self.simulated:
            address = self.synthesize_address(inode.number, block_no)
        return address

    def _read_runs(
        self, runs: list[ReadRun], slots: dict[int, CacheBlock]
    ) -> Generator[Any, Any, int]:
        """Issue ``runs`` (all on one disk) one after the other and copy
        what they return into the cache blocks; returns the blocks read."""
        size = self.block_size
        stats = self.stats
        for address, members in runs:
            raw = yield from self.volume.read_run(address, members[-1][0] + 1)
            stats.disk_reads += 1
            stats.blocks_read += len(members)
            if len(members) > 1:
                stats.cold_read_runs += 1
                stats.cold_read_blocks_coalesced += len(members) - 1
            if raw is None:
                continue
            for offset, block_no in members:
                block = slots[block_no]
                if block.data is not None:
                    disk = raw[offset * size : (offset + 1) * size]
                    # Old bytes a block owes land around what writes put
                    # there, never over it.
                    lo, hi, old_end = block.owed or (0, 0, size)
                    block.data[:lo] = disk[:lo]
                    block.data[hi:old_end] = disk[hi:old_end]
                    block.valid_bytes = block.size
        return sum(len(members) for _address, members in runs)

    def write_files(self, files: list[WriteBack]) -> Generator[Any, Any, None]:
        """One log append per batch, split before the file whose data
        blocks would outgrow a segment (a single larger file is one append)."""
        chunk: list[WriteBack] = []
        data = 0
        for inode, blocks, with_inode in files:
            if chunk and data + len(blocks) > self.segment_blocks - 1:
                yield from self._append_files(chunk)
                chunk, data = [], 0
            chunk.append((inode, sorted(blocks, key=itemgetter(0)), with_inode))
            data += len(blocks)
        if chunk:
            yield from self._append_files(chunk)

    def _append_files(self, files: list[WriteBack]) -> Generator[Any, Any, None]:
        """One log append for one batch: every file's blocks (sorted by
        block number) and, right behind them all, the inodes that map them.

        Everything that decides *what* goes to disk happens under the append
        lock: the data blocks get their addresses, the inodes are packed
        **then** — so they carry those addresses and every one an earlier
        append assigned — and their copies are reserved at the next log
        addresses.  The inode map therefore follows log order: of two
        overlapping writebacks of one file the later reservation is the
        later content, whichever disk write finishes first.  After the lock
        is dropped the lot is one ``volume.write_run`` (two when it
        straddles a segment end).
        """
        self._check_mounted()
        assert self._append_lock is not None
        writes: list[tuple[int, int, Optional[bytes]]] = []
        yield from self._append_lock.acquire()
        try:
            entries = []
            payload = self.block_payload
            for inode, blocks, _with_inode in files:
                number, block_map = inode.number, inode.block_map
                for block_no, cache_block in blocks:
                    old_address = block_map.get(block_no)
                    if old_address is not None and not self._is_synthetic(
                        number, block_no, old_address
                    ):
                        self._kill_blocks(old_address, 1)
                    entries.append((number, block_no, False, payload(cache_block)))
            addresses = iter((yield from self._reserve(entries, writes)))
            for inode, blocks, _with_inode in files:
                for block_no, _cache_block in blocks:
                    inode.block_map[block_no] = next(addresses)  # cache block numbers are >= 0
            self.stats.blocks_written += len(entries)
            inodes = [inode for inode, _blocks, with_inode in files if with_inode]
            yield from self._append_inodes(inodes, writes)
        finally:
            self._append_lock.release()
        yield from self._issue(writes)

    def _append_inodes(
        self, inodes: list[Inode], writes: list[tuple[int, int, Optional[bytes]]]
    ) -> Generator[Any, Any, None]:
        """Reserve fresh copies of ``inodes`` (the caller holds the append
        lock): packed back to back into shared inode blocks, in order; an
        inode larger than a block gets a run of its own.  A block holding
        one inode is that inode zero-padded, summarised as ``(inode, 0)``;
        a shared block is summarised under its first inode with the
        :data:`~repro.core.codec.SHARED_INODE_BLOCK` marker."""
        groups: list[list[Inode]] = []
        sizes: list[int] = []
        for inode in inodes:
            self._inode_objects[inode.number] = inode
            self._kill_inode(inode.number)
            size = codec.packed_inode_size(inode)
            if groups and sizes[-1] + size <= self.block_size:
                groups[-1].append(inode)
                sizes[-1] += size
            else:
                groups.append([inode])
                sizes.append(size)
        for group, size in zip(groups, sizes):
            nblocks = max(1, -(-size // self.block_size))
            chunks: list[Optional[bytes]] = (
                [None] * nblocks  # PATSY needs the length only
                if self.simulated
                else self._chunk(b"".join(map(codec.pack_inode, group)), nblocks)
            )
            logical = range(nblocks) if len(group) == 1 else [codec.SHARED_INODE_BLOCK]
            entries = [(group[0].number, i, True, chunk) for i, chunk in zip(logical, chunks)]
            addresses = yield from self._reserve(entries, writes, contiguous=True)
            self._inode_blocks[addresses[0]] = {inode.number for inode in group}
            for inode in group:
                self.inode_map[inode.number] = (addresses[0], nblocks)
        self.stats.inodes_written += len(inodes)

    def release_blocks(self, inode: Inode, from_block: int) -> Generator[Any, Any, None]:
        for block_no in sorted(bn for bn in inode.block_map if bn >= from_block):
            address = inode.block_map[block_no]
            if not self._is_synthetic(inode.number, block_no, address):
                self._kill_blocks(address, 1)
        inode.drop_blocks_from(from_block)
        return
        yield  # pragma: no cover - keeps this a generator

    # ------------------------------------------------------------------ cleaner support

    def segment_infos(self, segments: Optional[Iterable[int]] = None) -> list[SegmentInfo]:
        """Candidate segments for cleaning: ``segments`` (default: all of
        them) minus the free and the active ones."""
        infos = []
        for segment in range(self.num_segments) if segments is None else segments:
            if self.free_segments[segment] or segment == self._active_segment:
                continue
            infos.append(
                SegmentInfo(
                    index=segment,
                    live_blocks=self.segment_usage[segment],
                    capacity=self.segment_blocks - 1,
                    modified_at=self.segment_mtime[segment],
                )
            )
        return infos

    def cleaner_candidates(self, now: float = 0.0) -> list[SegmentInfo]:
        """Bounded cleaner candidate set.

        Candidates come from the incrementally maintained utilisation
        buckets — the emptiest segments first, at most
        ``cleaner_candidate_bound`` of them — so a cleaner wakeup costs
        O(bound) instead of rebuilding an O(num_segments) info list.
        Greedy's global minimum always lies in the lowest occupied bucket;
        cost-benefit's age term may in rare cases prefer a segment outside
        the bound (the usual LSM-compaction approximation).  A bound of 0
        scans every segment.
        """
        bound = self.cleaner_candidate_bound
        infos = self.segment_infos(self._buckets.candidates(bound) if bound > 0 else None)
        self.stats.cleaner_candidate_scans += 1
        self.stats.cleaner_candidates_considered += len(infos)
        return infos

    def clean_segment(self, segment: int) -> Generator[Any, Any, tuple[int, int]]:
        """Copy the live blocks out of ``segment`` and mark it free.

        Returns ``(blocks_copied, blocks_examined)``.
        """
        if self.free_segments[segment] or segment == self._active_segment:
            return (0, 0)
        if segment in self._unloaded:
            yield from self._load_segment_summary(segment)
        entries = list(self.segment_summaries.get(segment, []))
        start = self.segment_start(segment)
        copied = 0
        # Coalesce the live blocks into contiguous multi-block reads instead
        # of one disk operation per live block.  Liveness is re-checked per
        # entry below: copying an inode forward can kill a later entry of
        # this same segment mid-clean.
        live_offsets = [
            offset
            for offset, (owner, logical, is_inode) in enumerate(entries, start=1)
            if self._is_live(start + offset, owner, logical, is_inode)
        ]
        staged: dict[int, Optional[bytes]] = {}
        size = self.block_size
        for run_start, run_len in _contiguous_runs(live_offsets):
            raw = yield from self.volume.read_run(start + run_start, run_len)
            self.stats.disk_reads += 1
            self.stats.cleaner_read_runs += 1
            for j in range(run_len):
                staged[run_start + j] = (
                    None if raw is None else raw[j * size : (j + 1) * size]
                )
        for offset, (inode_number, logical_block, is_inode) in enumerate(entries, start=1):
            address = start + offset
            if not self._is_live(address, inode_number, logical_block, is_inode):
                continue
            raw = staged[offset]
            inode = self._inode_objects.get(inode_number)
            if is_inode:
                # Every inode still mapped to the block moves to the head
                # of the log, in one append.
                inodes = []
                for number in sorted(self._inode_blocks[address]):
                    inode = self._inode_objects.get(number)
                    if inode is None:
                        inode = yield from self.read_inode(number)
                    inodes.append(inode)
                yield from self.write_files([(inode, [], True) for inode in inodes])
            else:
                if inode is None:
                    try:
                        inode = yield from self.read_inode(inode_number)
                    except StorageError:
                        continue
                payload = raw if raw is not None else None
                new_address = yield from self._append(
                    [(inode_number, logical_block, False, payload)]
                )
                self._kill_blocks(address, 1)
                inode.set_block_address(logical_block, new_address[0])
            copied += 1
        self._live_total -= self.segment_usage[segment]
        self.segment_usage[segment] = 0
        self.segment_mtime[segment] = self.scheduler.now
        self.segment_summaries.pop(segment, None)
        self.free_segments[segment] = 1
        self.free_segment_count += 1
        self._free_push(segment)
        self._buckets.remove(segment)
        self._unloaded.discard(segment)
        self.stats.cleaner_segments_cleaned += 1
        self.stats.cleaner_blocks_copied += copied
        return (copied, len(entries))

    def _is_live(self, address: int, inode_number: int, logical_block: int, is_inode: bool) -> bool:
        if inode_number == 0:
            # Checkpoint blocks: live only if this is the current checkpoint.
            if self._checkpoint_location is None:
                return False
            start, count = self._checkpoint_location
            return start <= address < start + count
        if is_inode:
            # Block ``logical_block`` of an inode's run, or a shared block.
            shared = logical_block == codec.SHARED_INODE_BLOCK
            return (address if shared else address - logical_block) in self._inode_blocks
        inode = self._inode_objects.get(inode_number)
        if inode is None:
            return inode_number in self.inode_map
        return inode.get_block_address(logical_block) == address

    # ------------------------------------------------------------------ the log

    def _append(
        self,
        entries: list[tuple[int, int, bool, Optional[bytes]]],
        contiguous: bool = False,
    ) -> Generator[Any, Any, list[int]]:
        """Append blocks to the log; returns the addresses used, in order.

        Log-space reservation and metadata updates happen under the append
        lock; the disk writes themselves are issued after the lock is
        released, so concurrent flush threads can have several log writes
        outstanding at the disks at once (as a real system would).
        """
        self._check_mounted()
        assert self._append_lock is not None
        writes: list[tuple[int, int, Optional[bytes]]] = []
        yield from self._append_lock.acquire()
        try:
            addresses = yield from self._reserve(entries, writes, contiguous)
        finally:
            self._append_lock.release()
        yield from self._issue(writes)
        return addresses

    def _check_mounted(self) -> None:
        if not self._mounted:
            raise StorageError("LFS is not mounted")

    def _reserve(
        self,
        entries: list[tuple[int, int, bool, Optional[bytes]]],
        writes: list[tuple[int, int, Optional[bytes]]],
        contiguous: bool = False,
    ) -> Generator[Any, Any, list[int]]:
        """Reserve log space for ``entries`` (the caller holds the append
        lock) and queue the disk writes on ``writes``; returns the addresses.

        A reservation that starts where the last queued write ends extends
        that write, which is how a writeback's data and inode become one
        disk operation."""
        if contiguous and len(entries) > self.segment_blocks - 1:
            raise StorageError("contiguous append larger than a segment")
        addresses: list[int] = []
        remaining = entries
        while remaining:
            space = self.segment_blocks - self._active_offset
            if space <= 0 or (contiguous and space < len(remaining)):
                yield from self._finish_active_segment()
                continue
            batch, remaining = remaining[:space], remaining[space:]
            first_address, payload = self._reserve_batch(batch)
            reserved = range(first_address, first_address + len(batch))
            addresses.extend(reserved)
            self._unwritten.update(reserved)
            if writes and writes[-1][0] + writes[-1][1] == first_address:
                start, count, head = writes[-1]
                writes[-1] = (
                    start,
                    count + len(batch),
                    None if payload is None or head is None else head + payload,
                )
            else:
                writes.append((first_address, len(batch), payload))
        return addresses

    def _issue(
        self, writes: list[tuple[int, int, Optional[bytes]]]
    ) -> Generator[Any, Any, None]:
        for first_address, count, payload in writes:
            yield from self.volume.write_run(first_address, count, payload)
            self.stats.disk_writes += 1
            self._unwritten.difference_update(range(first_address, first_address + count))

    def _reserve_batch(
        self, batch: list[tuple[int, int, bool, Optional[bytes]]]
    ) -> tuple[int, Optional[bytes]]:
        """Reserve log space for ``batch`` and update the in-memory metadata;
        returns the first address and the serialised payload to write."""
        assert self._active_segment is not None
        segment = self._active_segment
        first_address = self.segment_start(segment) + self._active_offset
        payload: Optional[bytes]
        if self.simulated:
            payload = None
        else:
            parts = []
            for _owner, _logical, _is_inode, data in batch:
                parts.append(self._pad(data if data is not None else b""))
            payload = b"".join(parts)
        self.segment_summaries[segment].extend(
            (owner, logical, is_inode) for owner, logical, is_inode, _data in batch
        )
        self.segment_usage[segment] += len(batch)
        self._live_total += len(batch)
        self.segment_mtime[segment] = self.scheduler.now
        self._active_offset += len(batch)
        return first_address, payload

    def _finish_active_segment(self) -> Generator[Any, Any, None]:
        sealed = self._active_segment
        yield from self._write_active_summary()
        if sealed is not None:
            self._buckets.insert(
                sealed, self.segment_usage[sealed], self.segment_blocks - 1
            )
        self._activate_segment(self._pick_free_segment())

    def _write_active_summary(self) -> Generator[Any, Any, None]:
        if self._active_segment is None:
            return
        segment = self._active_segment
        # Crash points arm only once a superblock-committed checkpoint
        # exists: before that floor a crash legitimately loses data (classic
        # LFS), which is outside the recovery harness's contract.
        crashpoints = self.crashpoints if self._durable_checkpoint else None
        payload: Optional[bytes] = None
        if not self.simulated:
            payload = self._pad(
                codec.pack_segment_summary(self.segment_summaries.get(segment, []))
            )
        self.stats.index_writes += 1
        if crashpoints is not None:
            crashpoints.hit("lfs.summary.write.pre")
        yield from self.volume.write_block(self.segment_start(segment), payload)
        self.stats.disk_writes += 1
        if crashpoints is not None:
            crashpoints.hit("lfs.summary.write.post")

    def _activate_segment(self, segment: int) -> None:
        self.free_segments[segment] = 0  # always a _pick_free_segment() result
        self.free_segment_count -= 1
        self._active_segment = segment
        self._active_offset = 1
        self.segment_summaries[segment] = []
        self._last_disk = self._segment_disk[segment]
        self._buckets.remove(segment)
        self._unloaded.discard(segment)

    def _rebuild_free_heaps(self) -> None:
        self._free_heaps = [[] for _ in range(self.volume.num_disks)]
        for segment in range(self.num_segments):
            if self.free_segments[segment]:
                self._free_heaps[self._segment_disk[segment]].append(segment)
        for heap in self._free_heaps:
            heapq.heapify(heap)

    def _free_push(self, segment: int) -> None:
        heapq.heappush(self._free_heaps[self._segment_disk[segment]], segment)

    def _pick_free_segment(self) -> int:
        if not self.free_segment_count:
            raise NoSpaceLeft("no free LFS segments left (cleaner cannot keep up)")
        # Prefer a segment on a different disk from the last one so that
        # consecutive segment writes can proceed in parallel.  Per-disk min
        # heaps with lazy deletion give the same selection — the lowest free
        # segment on another disk, else the lowest overall — in
        # O(disks·log n) instead of an O(F) scan per activation.
        free = self.free_segments
        best: Optional[int] = None
        other: Optional[int] = None
        for disk, heap in enumerate(self._free_heaps):
            while heap and not free[heap[0]]:
                heapq.heappop(heap)  # stale entry: segment was activated
            if not heap:
                continue
            head = heap[0]
            if best is None or head < best:
                best = head
            if disk != self._last_disk and (other is None or head < other):
                other = head
        return other if other is not None else best  # type: ignore[return-value]

    # ------------------------------------------------------------------ helpers

    def _kill_blocks(self, address: int, count: int) -> None:
        for offset in range(count):
            segment = self.segment_of(address + offset)
            if 0 <= segment < self.num_segments and self.segment_usage[segment] > 0:
                usage = self.segment_usage[segment] - 1
                self.segment_usage[segment] = usage
                self._live_total -= 1
                # O(1): no-op unless the segment crosses a bucket edge.
                self._buckets.update(segment, usage, self.segment_blocks - 1)

    def _chunk(self, payload: bytes, nblocks: int) -> list[bytes]:
        return [
            payload[i * self.block_size : (i + 1) * self.block_size] for i in range(nblocks)
        ]

    def _pad(self, data: bytes) -> bytes:
        if len(data) > self.block_size:
            raise StorageError(f"payload of {len(data)} bytes exceeds the block size")
        return data + bytes(self.block_size - len(data))


# --------------------------------------------------------------------------- registry
#
# "layout" factories share one signature so the assembly builder can
# instantiate any registered layout from a LayoutConfig:
#   factory(scheduler, volume, block_size=..., simulated=..., seed=...,
#           layout_config=LayoutConfig)


def _build_lfs_layout(scheduler, volume, *, block_size, simulated, seed, layout_config):
    return LogStructuredLayout(
        scheduler,
        volume,
        block_size=block_size,
        segment_blocks=max(layout_config.segment_size // block_size, 4),
        simulated=simulated,
        seed=seed,
    )


registry.register("layout", "lfs", _build_lfs_layout)
