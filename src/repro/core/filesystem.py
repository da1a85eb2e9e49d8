"""The file-system assembly: wiring the cut-and-paste components together.

An instantiation of the framework — PFS or Patsy — constructs a scheduler,
a cache, a storage layout over some volume, a data mover and a flush policy,
and hands them to :class:`FileSystem`.  This object owns the "global
variables" of the paper's Figure 1: the global file table, the namespace and
the writeback path that connects the cache to the storage layout.

Everything here is instantiation-independent; the only difference between
the real system and the simulator is which helper components were plugged
in underneath (real vs. simulated disks, real vs. absent data buffers).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Iterable, Optional

from repro.core.cache import BlockCache
from repro.core.datamover import DataMover
from repro.core.filetable import FileTable
from repro.core.filetypes import DirectoryFile
from repro.core.flush import FlushPolicy
from repro.core.inode import FileKind, Inode, ROOT_INODE_NUMBER
from repro.core.namespace import Namespace
from repro.core.scheduler import Scheduler
from repro.core.storage.cleaner import CleanerDaemon
from repro.core.storage.layout import StorageLayout
from repro.core.sync import gather
from repro.errors import DataUnavailable, FileSystemError, StorageError
from repro.core.storage.volume import Volume

__all__ = ["FileSystem"]


class FileSystem:
    """A complete file system built from framework components."""

    def __init__(
        self,
        scheduler: Scheduler,
        cache: BlockCache,
        layout: StorageLayout,
        datamover: DataMover,
        flush_policy: Optional[FlushPolicy] = None,
        # One cleaner daemon per volume.
        cleaner: Iterable[CleanerDaemon] = (),
    ):
        self.scheduler = scheduler
        self.cache = cache
        self.layout = layout
        self.datamover = datamover
        self.flush_policy = flush_policy
        self.cleaner = cleaner
        self.file_table = FileTable(self)
        self.namespace = Namespace(self)
        self.block_size = cache.block_size
        self._root: Optional[DirectoryFile] = None
        self._dirty_inodes: Dict[int, Inode] = {}
        self.mounted = False

        cache.writeback = self._writeback
        if flush_policy is not None:
            flush_policy.attach(cache, scheduler)

    # ------------------------------------------------------------------ properties

    @property
    def volume(self) -> Volume:
        """The storage under the layout: a single :class:`Volume`, or a
        :class:`~repro.core.storage.array.VolumeSet` for multi-volume
        arrays (both expose ``block_size``, ``total_blocks`` and
        ``flush``, which is all the file system touches here)."""
        return self.layout.volume

    def root_directory(self) -> DirectoryFile:
        if self._root is None:
            raise FileSystemError("file system is not mounted")
        return self._root

    # ------------------------------------------------------------------ lifecycle

    def mount(self, format: bool = False) -> Generator[Any, Any, None]:
        """Mount the file system, optionally formatting the volume first."""
        if format:
            yield from self.layout.format()
        yield from self.layout.mount()
        root = yield from self._load_or_create_root()
        self._root = root
        for daemon in self.cleaner:
            daemon.start()
        self.mounted = True

    def _load_or_create_root(self) -> Generator[Any, Any, DirectoryFile]:
        try:
            inode = yield from self.layout.read_inode(ROOT_INODE_NUMBER)
        except StorageError:
            inode = self.layout.allocate_inode(FileKind.DIRECTORY)
            if inode.number != ROOT_INODE_NUMBER:
                raise StorageError(
                    f"expected the root inode to be #{ROOT_INODE_NUMBER}, got #{inode.number}"
                )
            inode.nlink = 2
            yield from self.layout.write_inode(inode)
        root = self.file_table.instantiate(inode)
        if not isinstance(root, DirectoryFile):
            raise StorageError("the root inode is not a directory")
        return root

    def sync(self) -> Generator[Any, Any, int]:
        """Flush all dirty data and metadata to disk; returns blocks written."""
        written = yield from self.cache.flush_all()
        # Inodes whose metadata changed without any data being flushed: one batch.
        dirty, self._dirty_inodes = self._dirty_inodes, {}
        yield from self.layout.write_files([(inode, [], True) for inode in dirty.values()])
        yield from self.layout.checkpoint()
        return written

    def unmount(self) -> Generator[Any, Any, None]:
        """Sync, checkpoint and quiesce the disks."""
        yield from self.sync()
        yield from self.layout.unmount()
        yield from self.volume.flush()
        self.mounted = False

    # ------------------------------------------------------------------ dirty metadata tracking

    def note_inode_dirty(self, inode: Inode) -> None:
        """Record that ``inode``'s metadata must reach disk by the next sync."""
        self._dirty_inodes[inode.number] = inode

    def sync_inode(self, inode_number: int) -> Generator[Any, Any, None]:
        """Write one dirty inode to disk now (fsync durability)."""
        inode = self._dirty_inodes.pop(inode_number, None)
        if inode is not None:
            yield from self.layout.write_inode(inode)

    # ------------------------------------------------------------------ the writeback path

    def _writeback(self, batch: list[tuple[int, list[int]]]) -> Generator[Any, Any, None]:
        """Write one batch — the given cached blocks of each file, and its
        inode — to disk, after one gathered read of the old bytes that
        partial-block writes left owed in them.

        Registered with the cache at construction time; every flush —
        policy-driven, NVRAM drain or replacement pressure — funnels through
        here and therefore through the storage layout and disk drivers.
        """
        files = []
        for file_id, block_nos in batch:
            loaded = self.file_table.find(file_id)
            if loaded is not None:
                inode = loaded.inode
            else:
                inode = yield from self.layout.read_inode(file_id)
            pairs = [
                (block_no, block)
                for block_no in block_nos
                if (block := self.cache.peek(file_id, block_no)) is not None
            ]
            if pairs:
                files.append((inode, pairs, True))
        debts = [
            self._pay_debts(inode, owed)
            for inode, pairs, _with_inode in files
            if (owed := [pair for pair in pairs if pair[1].owed is not None])
        ]
        if debts:
            yield from gather(self.scheduler, debts, name="pay-debts")
            # A block whose debt could not be paid stays out of the write
            # (the cache then drops it).
            files = [(i, [p for p in pairs if p[1].owed is None], w) for i, pairs, w in files]
        # Blocks and the inodes that map them: one layout call, which the
        # LFS turns into one log append.
        yield from self.layout.write_files(files)
        for inode, _pairs, _with_inode in files:
            self._dirty_inodes.pop(inode.number, None)

    def _pay_debts(self, inode: Inode, owed: list) -> Generator[Any, Any, None]:
        """Read the old bytes the blocks ``owed`` of ``inode`` owe in under
        the new ones; if they are unavailable, the blocks stay owing."""
        try:
            yield from self.layout.read_file_blocks(inode, owed)
        except DataUnavailable:
            return
        for _block_no, block in owed:
            block.owed = None
            block.owner.stats.fills_at_writeback += 1

    def __repr__(self) -> str:
        return (
            f"FileSystem(layout={self.layout.name}, cache_blocks={self.cache.num_blocks}, "
            f"mounted={self.mounted})"
        )
