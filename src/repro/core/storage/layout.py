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
from repro.errors import StorageError

__all__ = ["StorageLayout", "LayoutStatistics", "ReadAhead", "WriteBack"]

#: what a caller of :meth:`StorageLayout.read_file_blocks` offers for
#: read-ahead: given a logical block number, a cache slot to fill — or
#: ``None`` when the block is cached already or no slot can be spared.
ReadAhead = Callable[[int], Optional[CacheBlock]]

#: one file of a writeback batch: its inode, the (logical block number,
#: cache block) pairs to write, and whether the inode goes down with them.
WriteBack = tuple[Inode, list[tuple[int, CacheBlock]], bool]


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
    #: segment-summary block writes, one per seal in both worlds (the name
    #: predates the summary block losing its index section).
    index_writes: int = 0
    #: sealed segments' summary blocks read after a lazy mount.
    lazy_summary_loads: int = 0
    #: cold-read run coalescing: disk reads that fetched more than one file
    #: block, the blocks they fetched beyond their first, and blocks first
    #: referenced after a read made for another block had brought them into
    #: the cache (counted by the file that finds them there).
    cold_read_runs: int = 0
    cold_read_blocks_coalesced: int = 0
    coalesced_read_hits: int = 0
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

    def write_inode(self, inode: Inode) -> Generator[Any, Any, None]:
        """Persist an inode on its own (attribute-only updates; a writeback
        persists it through :meth:`write_files`)."""
        yield from self.write_files([(inode, [], True)])

    @abstractmethod
    def free_inode(self, inode: Inode) -> Generator[Any, Any, None]:
        """Release an inode and all of its blocks."""

    @abstractmethod
    def known_inode_numbers(self) -> list[int]:
        """Inode numbers this layout currently knows about."""

    # ------------------------------------------------------------------ data blocks

    @abstractmethod
    def read_file_blocks(
        self,
        inode: Inode,
        blocks: list[tuple[int, CacheBlock]],
        *,
        readahead: Optional[ReadAhead] = None,
    ) -> Generator[Any, Any, int]:
        """One client read: fill the given (logical block number, cache
        block) pairs of ``inode`` from disk.

        A layout that coalesces may extend the read with the file's
        following blocks, into slots ``readahead`` hands out.  Returns the
        number of blocks read; a hole (a block of a real file with no
        address) is left untouched — the caller sees zeros.
        """

    def write_file_blocks(
        self,
        inode: Inode,
        blocks: list[tuple[int, CacheBlock]],
        *,
        with_inode: bool = True,
    ) -> Generator[Any, Any, None]:
        """One writeback of one file: a batch of one for :meth:`write_files`
        (nothing at all without blocks).  ``with_inode=False`` writes the
        data alone, for the volumes of a striped file that are not its home
        and for all but the last batch of a multi-batch copy."""
        if blocks:
            yield from self.write_files([(inode, blocks, with_inode)])

    @abstractmethod
    def write_files(self, files: list[WriteBack]) -> Generator[Any, Any, None]:
        """One writeback batch: write each file's (logical block number,
        cache block) pairs, update its block map and — with ``with_inode`` —
        persist the inode that now maps them (callers do not follow up with
        :meth:`write_inode`); a file with no blocks is its inode alone."""

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
