"""The abstract storage-layout component.

"The base storage-layout class is only an interface: it does not implement
an algorithm.  Specific layouts are implemented through derived classes.
The interface to a storage-layout class is defined such that for all layout
and policy decisions, there exists a virtual method in the base-class."

A layout owns the placement of metadata and data on a :class:`Volume` and
is consulted "whenever something needs to be done with a raw disk".  When a
layout is instantiated for a *simulator*, information that would have been
read from disk is synthesised instead ("educated guesses"): unknown file
blocks are given a random — but thereafter stable — location on disk.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from repro.core.blocks import CacheBlock
from repro.core.inode import FileKind, Inode
from repro.core.scheduler import Scheduler
from repro.core.storage.volume import Volume
from repro.errors import StorageError

__all__ = ["StorageLayout", "LayoutStatistics"]


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
    #: cold-read run coalescing: runs issued, extra blocks prefetched,
    #: and prefetched blocks later consumed without a disk read.
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
        self.rng = random.Random(seed)
        self.stats = LayoutStatistics()
        self._synthetic_addresses: dict[tuple[int, int], int] = {}

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

    @abstractmethod
    def read_file_block(
        self, inode: Inode, block_no: int, block: CacheBlock
    ) -> Generator[Any, Any, bool]:
        """Read one logical block of ``inode`` into the cache block.

        Returns ``True`` when a disk read happened, ``False`` for holes
        (the block is zero-filled / left untouched).
        """

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
        """Pick a random, stable disk address for a block the simulator has
        never seen ("once an initial location has been chosen for a file,
        the simulator sticks to those addresses")."""
        key = (inode_number, block_no)
        address = self._synthetic_addresses.get(key)
        if address is None:
            address = self.rng.randrange(1, self.volume.total_blocks)
            self._synthetic_addresses[key] = address
            self.stats.synthesized_addresses += 1
        return address

    def block_payload(self, block: CacheBlock) -> Optional[bytes]:
        """The bytes to write for a cache block (``None`` in simulated mode)."""
        if self.simulated or block.data is None:
            return None
        return bytes(block.data)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(simulated={self.simulated})"
