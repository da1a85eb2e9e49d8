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
        for block_no in span:
            block_start = block_no * block_size
            start_in_block = max(offset, block_start) - block_start
            end_in_block = min(offset + length, block_start + block_size) - block_start
            extent = end_in_block - start_in_block
            # A plain hit is taken straight from the lookup; anything else
            # (miss, busy, first touch of a read-ahead block) from the
            # general path, which starts from that same lookup's answer.
            block = lookup(file_id, block_no)
            if block is None or block.busy or block.read_ahead:
                block = yield from self._block_for(
                    block_no, None, range(block_no + 1, span.stop), block
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
        scheduler = self.fs.scheduler
        written = 0
        span = block_span(offset, length, self.block_size)
        # The only other block of the call that can need its old contents is
        # the last one, when the write ends inside it: it rides the first
        # block's disk read.
        last_no = span[-1]
        tail = (
            (last_no,)
            if (offset + length) % self.block_size and self._has_old_data(last_no)
            else ()
        )
        for block_no in span:
            block_start = block_no * self.block_size
            start_in_block = max(offset, block_start) - block_start
            end_in_block = min(offset + length, block_start + self.block_size) - block_start
            extent = end_in_block - start_in_block
            whole_block = start_in_block == 0 and extent == self.block_size
            block = yield from self._block_for_write(
                block_no, whole_block, tail if block_no < last_no else ()
            )
            block.pin()
            try:
                if data is not None:
                    chunk = data[written : written + extent]
                    yield from self.fs.datamover.copy_in(block, start_in_block, chunk)
                else:
                    yield from self.fs.datamover.charge(extent)
                    if block.data is not None:
                        block.valid_bytes = max(block.valid_bytes, end_in_block)
                yield from self.fs.cache.mark_dirty(block)
            finally:
                block.unpin()
            written += extent
        self.inode.size = max(self.inode.size, offset + length)
        self.inode.touch_mtime(scheduler.now)
        self.fs.note_inode_dirty(self.inode)
        return written

    def truncate(self, new_size: int) -> Generator[Any, Any, None]:
        """Shrink (or grow) the file to ``new_size`` bytes."""
        if new_size < 0:
            raise InvalidArgument("cannot truncate to a negative size")
        first_dead_block = (new_size + self.block_size - 1) // self.block_size
        if new_size < self.inode.size:
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
        self, block_no: int, call_blocks: Iterable[int] = ()
    ) -> Generator[Any, Any, CacheBlock]:
        """The cache block holding ``block_no``, read from disk on a miss —
        in the same disk read as whichever of ``call_blocks`` (the blocks
        the call goes on to need) are missing too."""
        return self._block_for(
            block_no, None, call_blocks, self.fs.cache.lookup(self.file_id, block_no)
        )

    def _block_for_write(
        self, block_no: int, whole_block: bool, call_blocks: Iterable[int] = ()
    ) -> Generator[Any, Any, CacheBlock]:
        """The cache block to write ``block_no`` into; a partial write over
        old data reads the block first (``call_blocks`` as above)."""
        return self._block_for(
            block_no, whole_block, call_blocks, self.fs.cache.lookup(self.file_id, block_no)
        )

    def _has_old_data(self, block_no: int) -> bool:
        return (
            self.inode.get_block_address(block_no) is not None
            or block_no * self.block_size < self.inode.size
        )

    def _block_for(
        self,
        block_no: int,
        whole_block: Optional[bool],
        call_blocks: Iterable[int],
        block: Optional[CacheBlock],
    ) -> Generator[Any, Any, CacheBlock]:
        """``block`` is what the caller's ``cache.lookup`` of ``block_no``
        just returned.  ``whole_block`` is ``None`` for a read; for a write
        it says whether the whole block is replaced — then, or with no old
        data under it, a miss needs no disk read."""
        cache = self.fs.cache
        while True:
            if block is None:
                try:
                    block = yield from cache.allocate(self.file_id, block_no)
                    break
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
                return block
            block = cache.lookup(self.file_id, block_no)
        if whole_block is None or (not whole_block and self._has_old_data(block_no)):
            yield from self._fill(block_no, block, call_blocks)
        return block

    def _fill(
        self, block_no: int, block: CacheBlock, call_blocks: Iterable[int]
    ) -> Generator[Any, Any, None]:
        """One layout read for a missed block and for what can ride along:
        the other missing blocks of the call, and whatever following blocks
        the layout finds worth reading ahead.  Those get a slot only if the
        cache can spare one without flushing; all slots are pinned busy
        while the read is in flight, so a second client missing any of them
        waits for this read instead of issuing its own."""
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
                self.inode, list(filling), readahead=spare_slot
            )
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

    @property
    def entry_count(self) -> int:
        return len(self._entries) if self._entries is not None else 0

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

    def read(self, offset: int, length: int) -> Generator[Any, Any, bytes]:
        # Directories are read through readdir, not the data interface, but
        # the underlying implementation is shared with BaseFile.
        return (yield from super().read(offset, length))


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
            yield from self._block_for_read(block_no)
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
