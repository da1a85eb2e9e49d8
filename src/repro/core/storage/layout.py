"""The abstract storage-layout component.

"The base storage-layout class is only an interface: it does not implement
an algorithm.  Specific layouts are implemented through derived classes.
The interface to a storage-layout class is defined such that for all layout
and policy decisions, there exists a virtual method in the base-class."

A layout owns the placement of metadata and data on a :class:`Volume` and
is consulted "whenever something needs to be done with a raw disk".  When a
layout is instantiated for a *simulator*, information that would have been
read from disk is synthesised instead ("educated guesses"): an unknown file
is given a random — but thereafter stable — extent on disk.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from bisect import bisect_right, insort
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Generator, Optional

from repro.core.blocks import CacheBlock
from repro.core.inode import FileKind, Inode
from repro.core.scheduler import Scheduler
from repro.core.storage.volume import Volume
from repro.core.sync import gather
from repro.errors import StorageError

__all__ = ["StorageLayout", "LayoutStatistics", "ReadRun", "ReadAhead"]

#: one planned disk read: the first block address and the file blocks it
#: fetches, as ``(offset from that address, logical block number)`` in
#: ascending order.  The read spans up to the last offset; an offset no
#: member names is a block read through and discarded.
ReadRun = tuple[int, list[tuple[int, int]]]

#: what a caller of :meth:`StorageLayout.read_file_blocks` offers for
#: read-ahead: given a logical block number, a cache slot to fill — or
#: ``None`` when the block is cached already or no slot can be spared.
ReadAhead = Callable[[int], Optional[CacheBlock]]


@dataclass
class LayoutStatistics:
    """Counters shared by every layout implementation."""

    blocks_written: int = 0
    blocks_read: int = 0
    inodes_written: int = 0
    inodes_read: int = 0
    disk_writes: int = 0
    disk_reads: int = 0
    synthesized_addresses: int = 0
    cleaner_segments_cleaned: int = 0
    cleaner_blocks_copied: int = 0
    #: disk read operations the cleaner issued while copying live blocks
    #: forward (coalesced runs count once; without coalescing this equals
    #: the number of live blocks read).
    cleaner_read_runs: int = 0
    #: cleaner candidate selections served and candidates handed out.
    cleaner_candidate_scans: int = 0
    cleaner_candidates_considered: int = 0
    #: segment-index persistence and lazy-summary traffic.
    index_writes: int = 0
    index_reads: int = 0
    lazy_summary_loads: int = 0
    #: cold-read run coalescing: disk reads that fetched more than one file
    #: block, the blocks they fetched beyond their first, and blocks first
    #: referenced after a read made for another block had brought them into
    #: the cache (counted by the file that finds them there).
    cold_read_runs: int = 0
    cold_read_blocks_coalesced: int = 0
    coalesced_read_hits: int = 0
    #: reads skipped because a bloom probe proved the data absent.
    bloom_skips: int = 0
    extra: dict = field(default_factory=dict)


class StorageLayout(ABC):
    """Base class of all storage layouts.

    Parameters
    ----------
    scheduler, volume:
        Execution context and the disks to lay the file system out on.
    block_size:
        File-system block size in bytes.
    simulated:
        True when instantiated inside Patsy: no real metadata is serialised
        and unknown addresses are synthesised rather than read from disk.
    """

    name = "abstract"

    def __init__(
        self,
        scheduler: Scheduler,
        volume: Volume,
        block_size: int,
        simulated: bool = False,
        seed: int = 0,
    ):
        if block_size != volume.block_size:
            raise StorageError("layout block size must match the volume block size")
        self.scheduler = scheduler
        self.volume = volume
        self.block_size = block_size
        self.simulated = simulated
        self.seed = seed
        self.stats = LayoutStatistics()
        #: synthetic placement of files the simulator never saw written:
        #: inode number -> [(first logical block, its address), ...].
        self._synthetic_extents: dict[int, list[tuple[int, int]]] = {}

    # ------------------------------------------------------------------ lifecycle

    @abstractmethod
    def format(self) -> Generator[Any, Any, None]:
        """Create an empty file system on the volume."""

    @abstractmethod
    def mount(self) -> Generator[Any, Any, None]:
        """Load enough metadata to start serving requests."""

    @abstractmethod
    def checkpoint(self) -> Generator[Any, Any, None]:
        """Write enough metadata so that :meth:`mount` succeeds after a crash."""

    def unmount(self) -> Generator[Any, Any, None]:
        """Default unmount simply checkpoints."""
        yield from self.checkpoint()

    # ------------------------------------------------------------------ inodes

    @abstractmethod
    def allocate_inode(
        self,
        kind: FileKind,
        parent_id: Optional[int] = None,
        name: Optional[str] = None,
    ) -> Inode:
        """Create a new in-core inode (persisted by :meth:`write_inode`).

        ``parent_id`` and ``name`` are placement hints: the inode number of
        the directory the file is created in and the file's leaf name.
        Single-volume layouts ignore them; the multi-volume
        :class:`~repro.core.storage.array.RoutedLayout` feeds them to its
        placement policy to pick the file's home volume.
        """

    @abstractmethod
    def read_inode(self, inode_number: int) -> Generator[Any, Any, Inode]:
        """Fetch an inode, possibly from disk."""

    @abstractmethod
    def write_inode(self, inode: Inode) -> Generator[Any, Any, None]:
        """Persist an inode on its own (attribute-only updates; a writeback
        persists it through :meth:`write_file_blocks`)."""

    @abstractmethod
    def free_inode(self, inode: Inode) -> Generator[Any, Any, None]:
        """Release an inode and all of its blocks."""

    @abstractmethod
    def known_inode_numbers(self) -> list[int]:
        """Inode numbers this layout currently knows about."""

    # ------------------------------------------------------------------ data blocks

    def read_file_blocks(
        self,
        inode: Inode,
        blocks: list[tuple[int, CacheBlock]],
        *,
        readahead: Optional[ReadAhead] = None,
    ) -> Generator[Any, Any, int]:
        """One client read: fill the given (logical block number, cache
        block) pairs of ``inode`` from disk.

        The layout plans the blocks into physical runs (:meth:`_plan_read_runs`)
        and issues one ``volume.read_run`` per run; runs on different disks
        are in flight together.  A layout that coalesces may extend the last
        run with the file's following blocks, into slots ``readahead``
        hands out.  Returns the number of blocks read; a hole (a block of a
        real file with no address) is left untouched — the caller sees zeros.
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
        """The disk reads that fetch the blocks of ``slots``.  The base plan
        is one single-block read per block; a layout that knows which
        addresses are safe to read together overrides this, and adds the
        slots it obtained from ``readahead`` to ``slots``."""
        runs: list[ReadRun] = []
        for block_no in sorted(slots):
            address = self._read_address(inode, block_no)
            if address is not None:
                runs.append((address, [(0, block_no)]))
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
                    block.data[:size] = raw[offset * size : (offset + 1) * size]
                    block.valid_bytes = block.size
        return sum(len(members) for _address, members in runs)

    @abstractmethod
    def write_file_blocks(
        self,
        inode: Inode,
        blocks: list[tuple[int, CacheBlock]],
        *,
        with_inode: bool = True,
    ) -> Generator[Any, Any, None]:
        """One writeback: write the given (logical block number, cache
        block) pairs of ``inode`` to disk, update the inode's block map and
        persist the inode that now maps them — callers do not follow up with
        :meth:`write_inode`.  ``with_inode=False`` writes the data alone,
        for the volumes of a striped file that are not its home and for all
        but the last batch of a multi-batch copy."""

    @abstractmethod
    def release_blocks(self, inode: Inode, from_block: int) -> Generator[Any, Any, None]:
        """Free the on-disk blocks of ``inode`` from ``from_block`` onward
        (truncate/delete support)."""

    # ------------------------------------------------------------------ space accounting

    @property
    @abstractmethod
    def free_blocks(self) -> int:
        """Number of free data blocks."""

    # ------------------------------------------------------------------ shared helpers

    def synthesize_address(self, inode_number: int, block_no: int) -> int:
        """The stable disk address of a block the simulator has never seen
        written ("once an initial location has been chosen for a file, the
        simulator sticks to those addresses").

        Placement is per *file*, as on a real disk: block ``k`` sits ``k``
        blocks behind the file's base, so a sequential read is a sequential
        disk access.  The base is drawn from ``(seed, inode)`` alone — not
        from the order files happen to be touched in.  Where the extent
        would run off its disk, the file continues in a second extent
        starting at that block.
        """
        extents = self._synthetic_extents.get(inode_number)
        if extents is None:
            extents = self._synthetic_extents[inode_number] = [
                (0, self._draw_extent(inode_number, 0))
            ]
        first_block, base = extents[bisect_right(extents, block_no, key=itemgetter(0)) - 1]
        address = base + block_no - first_block
        volume = self.volume
        if address >= volume.blocks_on_disk(volume.disk_of(base)).stop:
            address = self._draw_extent(inode_number, block_no)
            insort(extents, (block_no, address))
        return address

    def _draw_extent(self, inode_number: int, first_block: int) -> int:
        self.stats.synthesized_addresses += 1
        draw = random.Random(f"{self.seed}/{inode_number}/{first_block}")
        return draw.randrange(1, self.volume.total_blocks)

    def _is_synthetic(self, inode_number: int, block_no: int, address: int) -> bool:
        return (
            inode_number in self._synthetic_extents
            and self.synthesize_address(inode_number, block_no) == address
        )

    def block_payload(self, block: CacheBlock) -> Optional[bytes]:
        """The bytes to write for a cache block (``None`` in simulated mode)."""
        if self.simulated or block.data is None:
            return None
        return bytes(block.data)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(simulated={self.simulated})"
