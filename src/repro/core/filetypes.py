"""Instantiated files: the per-file objects that live in the file table.

"Abstract client requests are dispatched to so-called instantiated files.
An instantiated file is used to control a file that has been loaded into the
file-system cache.  It may contain a memory copy of the file's inode,
references to cached file data, and it contains a set of functions to
perform operations on a file, such as a read, write and flush method."

Each file *type* is a derived class (Section 2, "Files"): regular files,
directories, symbolic links, multi-media files and administrative files.
Derived classes can override caching behaviour — the multimedia file limits
its cache footprint and can run an *active* prefetching thread, exactly the
examples the paper gives for why per-file policy matters.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Generator, Iterable, Optional

from repro.core import codec
from repro.core.blocks import CacheBlock
from repro.core.inode import FileKind, Inode
from repro.errors import CacheError, InvalidArgument
from repro.units import block_span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.filesystem import FileSystem

__all__ = [
    "BaseFile",
    "RegularFile",
    "DirectoryFile",
    "SymlinkFile",
    "MultimediaFile",
    "AdministrativeFile",
    "FILE_CLASS_BY_KIND",
    "register_file_type",
]


class BaseFile:
    """Base class of every instantiated file."""

    kind = FileKind.REGULAR

    def __init__(self, fs: "FileSystem", inode: Inode):
        self.fs = fs
        self.inode = inode
        #: number of open handles referring to this file.
        self.open_count = 0
        #: set when the file was synthesised by the simulator because a trace
        #: referenced a file that existed before the trace started.
        self.materialized = False
        #: inode number of the directory this file was created in (when
        #: known); fsync uses it to make the new directory entry durable.
        self.parent_id: Optional[int] = None
        #: directories whose entries for this file changed (rename source
        #: and destination); fsync flushes them too and clears the set, so
        #: a rename is durable once the renamed file is fsynced.
        self.pending_sync_parents: set[int] = set()
        #: the block after the last read: a read starting at block 0, here
        #: or one block before (an unaligned continuation) is sequential,
        #: and only a sequential read's cold fills read ahead.
        self.next_read_block = 0

    # -- identity ---------------------------------------------------------------

    @property
    def file_id(self) -> int:
        return self.inode.number

    @property
    def size(self) -> int:
        return self.inode.size

    @property
    def block_size(self) -> int:
        return self.fs.block_size

    # -- life-cycle hooks ----------------------------------------------------------

    def on_open(self) -> Generator[Any, Any, None]:
        """Called when a client opens the file."""
        self.open_count += 1
        return
        yield  # pragma: no cover - keeps this a generator

    def on_close(self) -> Generator[Any, Any, None]:
        """Called when a client closes the file."""
        if self.open_count > 0:
            self.open_count -= 1
        return
        yield  # pragma: no cover - keeps this a generator

    # -- data path --------------------------------------------------------------------

    def read(self, offset: int, length: int) -> Generator[Any, Any, bytes]:
        """Read up to ``length`` bytes starting at ``offset``.

        Reads never extend past end-of-file; in a simulated system the
        returned bytes are zero filler of the right length.
        """
        if offset < 0 or length < 0:
            raise InvalidArgument("read offset and length must be non-negative")
        self.inode.touch_atime(self.fs.scheduler.now)
        if self.materialized and offset + length > self.inode.size:
            # Trace replay reads from a pre-existing file the simulator has
            # never seen written; grow the synthetic size so the read
            # actually exercises the disk path.
            self.inode.size = offset + length
        length = min(length, max(self.inode.size - offset, 0))
        if length == 0:
            return b""
        parts: list[bytes] = []
        block_size = self.block_size
        lookup, file_id = self.fs.cache.lookup, self.file_id
        copy_out = self.fs.datamover.copy_out
        span = block_span(offset, length, block_size)
        previous, self.next_read_block = self.next_read_block, span.stop
        for block_no in span:
            block_start = block_no * block_size
            start_in_block = max(offset, block_start) - block_start
            end_in_block = min(offset + length, block_start + block_size) - block_start
            extent = end_in_block - start_in_block
            # A plain hit is taken straight from the lookup; anything else
            # (miss, busy, first touch of a read-ahead block, old bytes
            # still owed) from the general path, which starts from that
            # same lookup's answer.
            block = lookup(file_id, block_no)
            if block is None or block.busy or block.read_ahead or block.owed is not None:
                block = yield from self._block_for_read(
                    block_no, block, start_in_block, end_in_block,
                    range(block_no + 1, span.stop),
                    span.start in (0, previous, previous - 1),  # a sequential read
                )
            chunk = yield from copy_out(block, start_in_block, extent)
            parts.append(chunk)
        yield from self._after_read(span)
        return b"".join(parts)

    def write(
        self, offset: int, data: Optional[bytes] = None, length: Optional[int] = None
    ) -> Generator[Any, Any, int]:
        """Write ``data`` (or ``length`` anonymous bytes, simulator) at ``offset``."""
        if offset < 0:
            raise InvalidArgument("write offset must be non-negative")
        if data is not None:
            length = len(data)
        if length is None:
            raise InvalidArgument("write needs data or an explicit length")
        if length == 0:
            return 0
        block_size, end = self.block_size, offset + length
        lookup, file_id = self.fs.cache.lookup, self.file_id
        copy_in, charge = self.fs.datamover.copy_in, self.fs.datamover.charge
        written = 0
        for block_no in block_span(offset, length, block_size):
            block_start = block_no * block_size
            start_in_block = max(offset, block_start) - block_start
            end_in_block = min(end, block_start + block_size) - block_start
            extent = end_in_block - start_in_block
            # No disk read: a miss gets an empty slot, and the old bytes the
            # write leaves standing are owed until something needs them.
            block = lookup(file_id, block_no)
            if block is None or block.busy or block.read_ahead:
                block, fresh = yield from self._block_for(block_no, block)
            else:
                fresh = False
            if fresh or block.owed is not None:
                yield from self._note_write(block_no, block, fresh, start_in_block, end_in_block)
            block.pin_count += 1
            try:
                if data is not None:
                    yield from copy_in(block, start_in_block, data[written : written + extent])
                else:
                    yield from charge(extent)
                    if block.data is not None:
                        block.valid_bytes = max(block.valid_bytes, end_in_block)
                # Straight to the block's own cache (shard).
                yield from block.owner.mark_dirty(block)
            finally:
                block.unpin()
            written += extent
        self.inode.size = max(self.inode.size, offset + length)
        self.inode.touch_mtime(self.fs.scheduler.now)
        self.fs.note_inode_dirty(self.inode)
        return written

    def truncate(self, new_size: int) -> Generator[Any, Any, None]:
        """Shrink (or grow) the file to ``new_size`` bytes."""
        if new_size < 0:
            raise InvalidArgument("cannot truncate to a negative size")
        first_dead_block = (new_size + self.block_size - 1) // self.block_size
        if new_size < self.inode.size:
            cut = min(self.inode.size, first_dead_block * self.block_size) - new_size
            if cut and self.fs.cache.with_data:
                # Zero the cut-off end of the last block, in the cache and
                # on disk: a later write past the new end must not bring
                # those bytes back.
                yield from self.write(new_size, bytes(cut))
            self.fs.cache.invalidate_file(self.file_id, from_block=first_dead_block)
            yield from self.fs.layout.release_blocks(self.inode, first_dead_block)
        self.inode.size = new_size
        self.inode.touch_mtime(self.fs.scheduler.now)
        self.fs.note_inode_dirty(self.inode)

    def flush(self) -> Generator[Any, Any, int]:
        """Write this file's dirty blocks to disk."""
        return (yield from self.fs.cache.flush_file(self.file_id))

    # -- derived-class hooks -----------------------------------------------------------

    def cache_budget(self) -> Optional[int]:
        """Maximum cached blocks this file should occupy (None = unlimited)."""
        return None

    def _after_read(self, blocks_read: range) -> Generator[Any, Any, None]:
        """Hook invoked after a read completes (prefetch, budget enforcement)."""
        return
        yield  # pragma: no cover - keeps this a generator

    # -- cache plumbing ------------------------------------------------------------------

    def _block_for_read(
        self, block_no: int, block: Optional[CacheBlock], start: int, end: int,
        call_blocks: Iterable[int] = (), readahead: bool = True,
    ) -> Generator[Any, Any, CacheBlock]:
        """The cache block holding bytes ``[start, end)`` of ``block_no``;
        ``block`` is what the caller's ``cache.lookup`` of it just returned.
        A miss, or a block owing old bytes outside ``[start, end)``, is read
        from disk together with whichever of ``call_blocks`` (the blocks the
        call goes on to need) are missing too and, with ``readahead``,
        whatever the layout reads ahead."""
        block, fresh = yield from self._block_for(block_no, block)
        owed = block.owed
        if fresh or (owed is not None and not owed[0] <= start < end <= owed[1]):
            yield from self._fill(block_no, block, call_blocks, readahead)
            if owed is not None:
                block.owner.stats.fills_at_read += 1
        return block

    def _note_write(
        self, block_no: int, block: CacheBlock, fresh: bool, start: int, end: int
    ) -> Generator[Any, Any, None]:
        """Bytes ``[start, end)`` of a ``fresh`` or owing ``block`` are about
        to be written.  A fresh block owes the old bytes the write leaves
        standing (``CacheBlock.owed``).  A write overlapping or next to an
        owing block's written bytes widens them, clearing the debt once they
        cover every old byte; a write apart from them pays it first."""
        if fresh:
            old_end = min(self.inode.size - block_no * self.block_size, self.block_size)
            if old_end > 0 and (start > 0 or end < old_end):
                block.owed = (start, end, old_end)
                block.owner.stats.fills_deferred += 1
            return
        lo, hi, old_end = block.owed
        if end < lo or start > hi:
            yield from self._fill(block_no, block, (), False)
            block.owner.stats.fills_at_write += 1
            return
        lo, hi = min(lo, start), max(hi, end)
        block.owed = None if lo == 0 and hi >= old_end else (lo, hi, old_end)

    def _block_for(
        self, block_no: int, block: Optional[CacheBlock]
    ) -> Generator[Any, Any, tuple[CacheBlock, bool]]:
        """The cache block of ``block_no``, and whether it was just
        allocated (empty) for it; ``block`` is what the caller's
        ``cache.lookup`` of ``block_no`` just returned."""
        cache = self.fs.cache
        while True:
            if block is None:
                try:
                    return (yield from cache.allocate(self.file_id, block_no)), True
                except CacheError:
                    pass  # Another thread slipped in and cached the block; retry.
            elif block.busy:
                yield from cache.wait_block_ready(self.file_id, block_no)
            else:
                if block.read_ahead:
                    # An earlier read's run brought it in; the cache counted
                    # this first reference as a miss, the layout counts the
                    # disk read it did not need.
                    block.read_ahead = False
                    self.fs.layout.stats.coalesced_read_hits += 1
                return block, False
            block = cache.lookup(self.file_id, block_no)

    def _fill(
        self, block_no: int, block: CacheBlock, call_blocks: Iterable[int], readahead: bool
    ) -> Generator[Any, Any, None]:
        """One layout read for a missed block (or one owing old bytes) and
        for what can ride along: the other missing blocks of the call, and
        (with ``readahead``) whatever following blocks the layout finds
        worth reading ahead.  Those get a slot only if the cache can spare
        one without flushing; all slots are pinned busy while the read is in
        flight, so a second client missing any of them waits for this read
        instead of issuing its own."""
        cache, file_id = self.fs.cache, self.file_id
        filling: list[tuple[int, CacheBlock]] = []

        def hold(held_no: int, slot: CacheBlock) -> None:
            slot.pin()
            slot.busy = True
            filling.append((held_no, slot))

        def spare_slot(ahead_no: int) -> Optional[CacheBlock]:
            slot = cache.try_allocate(file_id, ahead_no)
            if slot is not None:
                slot.read_ahead = True
                hold(ahead_no, slot)
            return slot

        hold(block_no, block)
        for other_no in call_blocks:
            spare_slot(other_no)
        failed = False
        try:
            yield from self.fs.layout.read_file_blocks(
                self.inode, list(filling), readahead=spare_slot if readahead else None
            )
            block.owed = None
        except Exception:
            failed = True
            raise
        finally:
            for filled_no, slot in filling:
                slot.busy = False
                slot.unpin()
                if failed and not slot.pinned and not slot.busy:
                    # A fill that died (dead volume, no live replica) must
                    # not linger in the cache as valid-looking data.
                    cache.invalidate(slot)
                cache.notify_block_ready(file_id, filled_no)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(#{self.file_id} size={self.size})"


class RegularFile(BaseFile):
    """An ordinary data file."""

    kind = FileKind.REGULAR


class AdministrativeFile(BaseFile):
    """Internal bookkeeping files (the IFILE, quota files, ...)."""

    kind = FileKind.ADMINISTRATIVE


class SymlinkFile(BaseFile):
    """A symbolic link; the target lives in the inode."""

    kind = FileKind.SYMLINK

    @property
    def target(self) -> str:
        return self.inode.symlink_target

    def set_target(self, target: str) -> None:
        self.inode.symlink_target = target
        self.inode.size = len(target.encode("utf-8"))
        self.fs.note_inode_dirty(self.inode)


class DirectoryFile(BaseFile):
    """A directory: a mapping from names to inode numbers.

    The entry map is loaded from the directory's data blocks on first use
    (real systems) or starts empty (simulated systems, where pre-existing
    directory contents are synthesised by the trace replayer as it goes).
    Every mutation rewrites the directory data through the ordinary cached
    write path, so directory updates are delayed writes like any other.
    """

    kind = FileKind.DIRECTORY

    def __init__(self, fs: "FileSystem", inode: Inode):
        super().__init__(fs, inode)
        self._entries: Optional[Dict[str, int]] = None

    # -- entry access -------------------------------------------------------------

    def load_entries(self) -> Generator[Any, Any, Dict[str, int]]:
        if self._entries is not None:
            return self._entries
        if self.inode.size == 0:
            self._entries = {}
            return self._entries
        raw = yield from self.read(0, self.inode.size)
        try:
            self._entries = codec.unpack_directory(raw)
        except Exception:  # simulated data is zero filler; start empty
            self._entries = {}
        return self._entries

    def lookup(self, name: str) -> Generator[Any, Any, Optional[int]]:
        entries = yield from self.load_entries()
        return entries.get(name)

    def find(self, name: str) -> Optional[int]:
        """What :meth:`lookup` returns, if the entries are in core; ``None``
        also when they are not (the caller then goes through ``lookup``)."""
        entries = self._entries
        return entries.get(name) if entries is not None else None

    def list_entries(self) -> Generator[Any, Any, Dict[str, int]]:
        entries = yield from self.load_entries()
        return dict(entries)

    def is_empty(self) -> Generator[Any, Any, bool]:
        entries = yield from self.load_entries()
        return len(entries) == 0

    # -- mutation ------------------------------------------------------------------

    def add_entry(self, name: str, inode_number: int) -> Generator[Any, Any, None]:
        self._validate_name(name)
        entries = yield from self.load_entries()
        entries[name] = inode_number
        yield from self._save_entries()

    def remove_entry(self, name: str) -> Generator[Any, Any, int]:
        entries = yield from self.load_entries()
        if name not in entries:
            raise InvalidArgument(f"directory has no entry named {name!r}")
        inode_number = entries.pop(name)
        yield from self._save_entries()
        return inode_number

    def _save_entries(self) -> Generator[Any, Any, None]:
        assert self._entries is not None
        if not self.fs.cache.with_data:
            # Simulated system: directories have no real contents; write a
            # representative amount of data (entry records are ~24 bytes).
            payload = None
            length = max(16 + 24 * len(self._entries), 16)
            new_size = length
        else:
            data = codec.pack_directory(self._entries)
            payload = data
            length = len(data)
            new_size = length
        if new_size < self.inode.size:
            yield from self.truncate(new_size)
        yield from self.write(0, payload, length)
        self.inode.size = new_size

    @staticmethod
    def _validate_name(name: str) -> None:
        if not name or "/" in name or name in (".", ".."):
            raise InvalidArgument(f"invalid directory entry name {name!r}")


class MultimediaFile(BaseFile):
    """A continuous-media file with its own cache policy.

    "If ordinary cache policies are used on a multi-media file the whole
    cache would fill up with this data.  A multi-media file prevents this
    from happening by implementing other cache policies."  This class caps
    its resident block count, evicting its own least-recent clean blocks,
    and can run an *active* thread that prefetches ahead of a sequential
    reader to meet soft real-time deadlines.
    """

    kind = FileKind.MULTIMEDIA

    #: default maximum number of cached blocks this file may occupy.
    DEFAULT_BUDGET = 32

    def __init__(self, fs: "FileSystem", inode: Inode):
        super().__init__(fs, inode)
        self.budget = self.DEFAULT_BUDGET
        self.prefetch_depth = 4
        self._streaming_thread = None
        self._stop_streaming = False

    def cache_budget(self) -> Optional[int]:
        return self.budget

    def _after_read(self, blocks_read: range) -> Generator[Any, Any, None]:
        yield from self._enforce_budget()

    def _enforce_budget(self) -> Generator[Any, Any, None]:
        cache = self.fs.cache
        resident = cache.cached_blocks_of(self.file_id)
        excess = len(resident) - self.budget
        if excess <= 0:
            return
        evictable = sorted(
            (b for b in resident if b.is_clean and not b.pinned and not b.busy),
            key=lambda b: b.last_access,
        )
        for block in evictable[:excess]:
            cache.invalidate(block)
        return
        yield  # pragma: no cover - keeps this a generator

    # -- active file support ---------------------------------------------------------

    def start_streaming(self, rate_bytes_per_s: float, start_offset: int = 0):
        """Spawn the file's own thread of control ("active file") that
        prefetches sequentially at ``rate_bytes_per_s``."""
        self._stop_streaming = False
        self._streaming_thread = self.fs.scheduler.spawn(
            self._stream, rate_bytes_per_s, start_offset,
            name=f"mm-stream-{self.file_id}", daemon=True,
        )
        return self._streaming_thread

    def stop_streaming(self) -> None:
        self._stop_streaming = True

    def _stream(self, rate: float, offset: int) -> Generator[Any, Any, None]:
        block_interval = self.block_size / max(rate, 1.0)
        block_no = offset // self.block_size
        while not self._stop_streaming and block_no * self.block_size < self.inode.size:
            cached = self.fs.cache.lookup(self.file_id, block_no)
            yield from self._block_for_read(block_no, cached, 0, self.block_size)
            yield from self._enforce_budget()
            block_no += 1
            yield from self.fs.scheduler.sleep(block_interval)


#: registry used by the file table to instantiate the right class for an inode.
FILE_CLASS_BY_KIND: Dict[FileKind, type] = {
    FileKind.REGULAR: RegularFile,
    FileKind.DIRECTORY: DirectoryFile,
    FileKind.SYMLINK: SymlinkFile,
    FileKind.MULTIMEDIA: MultimediaFile,
    FileKind.ADMINISTRATIVE: AdministrativeFile,
}


def register_file_type(kind: FileKind, cls: type) -> None:
    """Register (or replace) the class instantiated for a file kind."""
    if not issubclass(cls, BaseFile):
        raise InvalidArgument(f"{cls!r} is not a BaseFile subclass")
    FILE_CLASS_BY_KIND[kind] = cls
