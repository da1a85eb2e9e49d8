"""The abstract client interface.

"The abstract client interface provides the basic file-system interface.
There are functions to open, close, read, write or delete a file and there
are functions to manipulate an hierarchical name-space."  Front-ends — the
NFS-like interface of PFS and the trace replayers of Patsy — are derived
from (or dispatch into) this component; they never touch the cache, layout
or drivers directly.

When ``auto_materialize`` is enabled (simulator instantiations), references
to files that the system has never seen are satisfied by synthesising the
file on the fly: trace replay constantly touches files that existed before
the trace started, and "when replaying traces, we synthesize those
parameters that are missing as best we can (e.g. the initial location of a
file on disk, file names, initial layout of the file-system)".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, Optional

from repro.core.filesystem import FileSystem
from repro.core.filetypes import BaseFile, DirectoryFile, MultimediaFile, SymlinkFile
from repro.core.inode import FileKind
from repro.core.namespace import normalize_path, split_path
from repro.errors import (
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    FileSystemError,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
    PermissionDenied,
)

__all__ = ["AbstractClientInterface", "ClientStatistics"]


@dataclass
class ClientStatistics:
    """Per-operation counters kept by the client interface."""

    operations: Dict[str, int] = field(default_factory=dict)
    bytes_read: int = 0
    bytes_written: int = 0
    files_materialized: int = 0

    def count(self, op: str) -> None:
        self.operations[op] = self.operations.get(op, 0) + 1

    @property
    def total_operations(self) -> int:
        return sum(self.operations.values())


class AbstractClientInterface:
    """Path- and handle-based file-system operations."""

    def __init__(self, fs: FileSystem, auto_materialize: bool = False):
        self.fs = fs
        self.auto_materialize = auto_materialize
        self.stats = ClientStatistics()

    # ------------------------------------------------------------------ lookup / attributes

    def lookup(self, path: str) -> Generator[Any, Any, BaseFile]:
        """Resolve a path, materialising it when configured to do so."""
        try:
            file = yield from self.fs.namespace.resolve(path)
            return file
        except (FileNotFound, NotADirectory):
            if not self.auto_materialize:
                raise
            return (yield from self._materialize(path, FileKind.REGULAR))

    def stat(self, path: str) -> Generator[Any, Any, dict]:
        self.stats.count("stat")
        file = yield from self.lookup(path)
        return file.inode.stat()

    def exists(self, path: str) -> Generator[Any, Any, bool]:
        return (yield from self.fs.namespace.exists(path))

    # ------------------------------------------------------------------ open / close

    def create(
        self, path: str, kind: FileKind = FileKind.REGULAR, exclusive: bool = True
    ) -> Generator[Any, Any, int]:
        """Create a file and return an open handle to it."""
        self.stats.count("create")
        parent, name = yield from self._parent_for(path)
        existing = yield from parent.lookup(name)
        if existing is not None:
            if exclusive:
                raise FileExists(f"{path!r} already exists")
            file = yield from self.fs.file_table.load(existing)
        else:
            file = yield from self._create_in(parent, name, kind)
        yield from file.on_open()
        return self.fs.file_table.open_handle(file)

    def open(self, path: str, create: bool = False) -> Generator[Any, Any, int]:
        """Open an existing file (optionally creating it) and return a handle."""
        self.stats.count("open")
        try:
            file = yield from self.fs.namespace.resolve(path)
        except (FileNotFound, NotADirectory):
            if create:
                return (yield from self.create(path, exclusive=False))
            if self.auto_materialize:
                file = yield from self._materialize(path, FileKind.REGULAR)
            else:
                raise
        yield from file.on_open()
        return self.fs.file_table.open_handle(file)

    def close(self, handle: int) -> Generator[Any, Any, None]:
        self.stats.count("close")
        file = self.fs.file_table.close_handle(handle)
        yield from file.on_close()
        if file.inode.nlink == 0 and file.open_count == 0:
            yield from self._reap(file)

    # ------------------------------------------------------------------ data operations

    def read(self, handle: int, offset: int, length: int) -> Generator[Any, Any, bytes]:
        self.stats.count("read")
        entry = self.fs.file_table.get_handle(handle)
        if isinstance(entry.file, DirectoryFile):
            raise IsADirectory("cannot read a directory through the data interface")
        data = yield from entry.file.read(offset, length)
        # What came back, not what was asked for: a read stops at end of file.
        self.stats.bytes_read += len(data)
        entry.position = offset + len(data)
        return data

    def write(
        self,
        handle: int,
        offset: int,
        data: Optional[bytes] = None,
        length: Optional[int] = None,
    ) -> Generator[Any, Any, int]:
        self.stats.count("write")
        entry = self.fs.file_table.get_handle(handle)
        if isinstance(entry.file, DirectoryFile):
            raise IsADirectory("cannot write a directory through the data interface")
        written = yield from entry.file.write(offset, data, length)
        self.stats.bytes_written += written
        entry.position = offset + written
        return written

    def truncate(self, handle: int, new_size: int) -> Generator[Any, Any, None]:
        self.stats.count("truncate")
        entry = self.fs.file_table.get_handle(handle)
        yield from entry.file.truncate(new_size)

    def truncate_path(self, path: str, new_size: int) -> Generator[Any, Any, None]:
        self.stats.count("truncate")
        file = yield from self.lookup(path)
        yield from file.truncate(new_size)

    def fsync(self, handle: int) -> Generator[Any, Any, int]:
        self.stats.count("fsync")
        entry = self.fs.file_table.get_handle(handle)
        file = entry.file
        written = yield from file.flush()
        yield from self.fs.sync_inode(file.file_id)
        # Make the file durable as a whole: it is only reachable through
        # its directory entries, so the *full ancestor dirent chain* is
        # flushed up to the root, plus — after a rename — both the source
        # and destination directories (and their chains).  The count
        # returned is still the file's own data blocks.
        # Consume the pending set *before* flushing: a rename racing the
        # flushes below re-records its directories (even ones this fsync
        # already flushed and the rename re-dirtied), so the next fsync
        # still makes that rename durable.
        starts = set(file.pending_sync_parents)
        file.pending_sync_parents.difference_update(starts)
        if file.parent_id is not None:
            starts.add(file.parent_id)
        flushed: set[int] = set()
        for start in sorted(starts):
            yield from self._sync_ancestor_chain(start, flushed)
        return written

    def _sync_ancestor_chain(
        self, directory_id: int, flushed: set[int]
    ) -> Generator[Any, Any, None]:
        """Flush a directory's blocks and inode, then its parent's, up to
        the root (or as far as the in-core parent linkage reaches)."""
        current: Optional[int] = directory_id
        while current is not None and current not in flushed:
            flushed.add(current)
            yield from self.fs.cache.flush_file(current)
            yield from self.fs.sync_inode(current)
            loaded = self.fs.file_table.find(current)
            current = loaded.parent_id if loaded is not None else None

    # Path-based conveniences (used by the NFS front-end, which is stateless).

    def read_file(self, path: str, offset: int, length: int) -> Generator[Any, Any, bytes]:
        self.stats.count("read")
        file = yield from self.lookup(path)
        if isinstance(file, DirectoryFile):
            raise IsADirectory("cannot read a directory through the data interface")
        data = yield from file.read(offset, length)
        self.stats.bytes_read += len(data)
        return data

    def write_file(
        self,
        path: str,
        offset: int,
        data: Optional[bytes] = None,
        length: Optional[int] = None,
    ) -> Generator[Any, Any, int]:
        self.stats.count("write")
        try:
            file = yield from self.fs.namespace.resolve(path)
        except (FileNotFound, NotADirectory):
            parent, name = yield from self._parent_for(path)
            file = yield from self._create_in(parent, name, FileKind.REGULAR)
        if isinstance(file, DirectoryFile):
            raise IsADirectory("cannot write a directory through the data interface")
        written = yield from file.write(offset, data, length)
        self.stats.bytes_written += written
        return written

    # ------------------------------------------------------------------ namespace operations

    def mkdir(self, path: str) -> Generator[Any, Any, dict]:
        self.stats.count("mkdir")
        parent, name = yield from self._parent_for(path)
        existing = yield from parent.lookup(name)
        if existing is not None:
            raise FileExists(f"{path!r} already exists")
        directory = yield from self._create_in(parent, name, FileKind.DIRECTORY)
        return directory.inode.stat()

    def rmdir(self, path: str) -> Generator[Any, Any, None]:
        self.stats.count("rmdir")
        file = yield from self.fs.namespace.resolve(path)
        if not isinstance(file, DirectoryFile):
            raise NotADirectory(f"{path!r} is not a directory")
        if file is self.fs.root_directory():
            raise PermissionDenied("cannot remove the root directory")
        empty = yield from file.is_empty()
        if not empty:
            raise DirectoryNotEmpty(f"{path!r} is not empty")
        parent, name = yield from self.fs.namespace.resolve_parent(path)
        yield from parent.remove_entry(name)
        file.inode.nlink = 0
        yield from self._reap(file)

    def readdir(self, path: str) -> Generator[Any, Any, Dict[str, int]]:
        self.stats.count("readdir")
        file = yield from self.lookup(path)
        if not isinstance(file, DirectoryFile):
            raise NotADirectory(f"{path!r} is not a directory")
        return (yield from file.list_entries())

    def unlink(self, path: str) -> Generator[Any, Any, None]:
        """Remove a file (the paper's ``delete``)."""
        self.stats.count("unlink")
        file = yield from self.fs.namespace.resolve(path, follow_symlinks=False)
        if isinstance(file, DirectoryFile):
            raise IsADirectory(f"{path!r} is a directory; use rmdir")
        parent, name = yield from self.fs.namespace.resolve_parent(path)
        yield from parent.remove_entry(name)
        file.inode.nlink = max(file.inode.nlink - 1, 0)
        if file.inode.nlink == 0 and file.open_count == 0:
            yield from self._reap(file)

    def rename(self, old_path: str, new_path: str) -> Generator[Any, Any, None]:
        self.stats.count("rename")
        file = yield from self.fs.namespace.resolve(old_path, follow_symlinks=False)
        new_parent, new_name = yield from self._parent_for(new_path)
        existing = yield from new_parent.lookup(new_name)
        if existing is not None:
            target = yield from self.fs.file_table.load(existing)
            if isinstance(target, DirectoryFile):
                empty = yield from target.is_empty()
                if not empty:
                    raise DirectoryNotEmpty(f"{new_path!r} is not empty")
            target.inode.nlink = max(target.inode.nlink - 1, 0)
            if target.inode.nlink == 0 and target.open_count == 0:
                yield from self._reap(target)
            else:
                yield from new_parent.remove_entry(new_name)
        old_parent, old_name = yield from self.fs.namespace.resolve_parent(old_path)
        yield from new_parent.add_entry(new_name, file.file_id)
        yield from old_parent.remove_entry(old_name)
        # Rename durability: fsync of the renamed file must flush *both*
        # directories — the new entry and the removed old one.
        file.pending_sync_parents.update({old_parent.file_id, new_parent.file_id})
        file.parent_id = new_parent.file_id

    def symlink(self, target: str, path: str) -> Generator[Any, Any, dict]:
        self.stats.count("symlink")
        parent, name = yield from self._parent_for(path)
        existing = yield from parent.lookup(name)
        if existing is not None:
            raise FileExists(f"{path!r} already exists")
        link = yield from self._create_in(parent, name, FileKind.SYMLINK)
        assert isinstance(link, SymlinkFile)
        link.set_target(target)
        return link.inode.stat()

    def readlink(self, path: str) -> Generator[Any, Any, str]:
        self.stats.count("readlink")
        file = yield from self.fs.namespace.resolve(path, follow_symlinks=False)
        if not isinstance(file, SymlinkFile):
            raise InvalidArgument(f"{path!r} is not a symbolic link")
        return file.target

    # ------------------------------------------------------------------ whole-system operations

    def sync(self) -> Generator[Any, Any, int]:
        self.stats.count("sync")
        return (yield from self.fs.sync())

    # ------------------------------------------------------------------ helpers

    def _parent_for(self, path: str) -> Generator[Any, Any, tuple[DirectoryFile, str]]:
        try:
            return (yield from self.fs.namespace.resolve_parent(path))
        except (FileNotFound, NotADirectory):
            if not self.auto_materialize:
                raise
            # Build the missing intermediate directories.
            components = split_path(path)
            if not components:
                raise InvalidArgument("cannot create the root directory")
            yield from self._materialize_directories(components[:-1])
            return (yield from self.fs.namespace.resolve_parent(path))

    def _create_in(
        self, parent: DirectoryFile, name: str, kind: FileKind
    ) -> Generator[Any, Any, BaseFile]:
        # The parent directory and leaf name route the new file to a volume
        # in multi-volume arrays (hash placement).
        inode = self.fs.layout.allocate_inode(kind, parent_id=parent.file_id, name=name)
        if kind is FileKind.DIRECTORY:
            inode.nlink = 2
            parent.inode.nlink += 1
        file = self.fs.file_table.instantiate(inode)
        file.parent_id = parent.file_id
        yield from parent.add_entry(name, inode.number)
        self.fs.note_inode_dirty(inode)
        self.fs.note_inode_dirty(parent.inode)
        return file

    def _materialize_directories(self, components: list[str]) -> Generator[Any, Any, DirectoryFile]:
        current = self.fs.root_directory()
        for name in components:
            child_number = yield from current.lookup(name)
            if child_number is None:
                child = yield from self._create_in(current, name, FileKind.DIRECTORY)
                self.stats.files_materialized += 1
            else:
                child = yield from self.fs.file_table.load(child_number)
            if not isinstance(child, DirectoryFile):
                raise NotADirectory(f"{name!r} exists and is not a directory")
            current = child
        return current

    def _materialize(self, path: str, kind: FileKind) -> Generator[Any, Any, BaseFile]:
        """Synthesise a file that existed before the simulation started."""
        components = split_path(path)
        if not components:
            return self.fs.root_directory()
        parent = yield from self._materialize_directories(components[:-1])
        existing = yield from parent.lookup(components[-1])
        if existing is not None:
            return (yield from self.fs.file_table.load(existing))
        file = yield from self._create_in(parent, components[-1], kind)
        file.materialized = True
        self.stats.files_materialized += 1
        return file

    def _reap(self, file: BaseFile) -> Generator[Any, Any, None]:
        """Release the cache blocks and on-disk storage of a dead file."""
        self.fs.cache.invalidate_file(file.file_id)
        yield from self.fs.layout.free_inode(file.inode)
        self.fs.file_table.forget(file.file_id)
        self.fs._dirty_inodes.pop(file.file_id, None)

    def open_multimedia(self, path: str) -> Generator[Any, Any, int]:
        """Open (or create) a continuous-media file."""
        self.stats.count("open_multimedia")
        try:
            file = yield from self.fs.namespace.resolve(path)
        except (FileNotFound, NotADirectory):
            parent, name = yield from self._parent_for(path)
            file = yield from self._create_in(parent, name, FileKind.MULTIMEDIA)
        if not isinstance(file, MultimediaFile):
            raise FileSystemError(f"{path!r} is not a multimedia file")
        yield from file.on_open()
        return self.fs.file_table.open_handle(file)
