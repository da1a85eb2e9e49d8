"""The global file table.

"The abstract client interface initiates the loading of a file from disk
when it is first accessed.  It calls into the file system module to read the
file's inode into memory.  Once the file is in memory, the component stores
a reference to it in a global file table."

The file table maps inode numbers to *instantiated files* (see
:mod:`repro.core.filetypes`) and hands out small integer handles to clients.
When a file is requested, "the file-system front-end examines the file type
of the requested file and instantiates an object of that type to manage the
file while it is in core."
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Generator, Optional

from repro.core.filetypes import FILE_CLASS_BY_KIND, BaseFile
from repro.core.inode import Inode
from repro.errors import StaleHandle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.filesystem import FileSystem

__all__ = ["FileTable", "OpenHandle"]


@dataclass
class OpenHandle:
    """A client's open-file handle."""

    handle: int
    file: BaseFile
    #: implicit file position for sequential read/write convenience calls.
    position: int = 0


class FileTable:
    """Tracks instantiated files and open handles."""

    def __init__(self, fs: "FileSystem"):
        self.fs = fs
        self._files: Dict[int, BaseFile] = {}
        self._handles: Dict[int, OpenHandle] = {}
        self._next_handle = itertools.count(3)  # 0..2 reserved, Unix-style
        self.instantiations = 0

    # -- instantiated files ------------------------------------------------------

    def find(self, inode_number: int) -> Optional[BaseFile]:
        """The loaded file for ``inode_number``, if it is in core."""
        return self._files.get(inode_number)

    def instantiate(self, inode: Inode) -> BaseFile:
        """Wrap an in-core inode in the file class matching its type."""
        existing = self._files.get(inode.number)
        if existing is not None:
            return existing
        file_class = FILE_CLASS_BY_KIND[inode.kind]
        file = file_class(self.fs, inode)
        self._files[inode.number] = file
        self.instantiations += 1
        return file

    def load(self, inode_number: int) -> Generator[Any, Any, BaseFile]:
        """Get the instantiated file, reading the inode from disk if needed."""
        existing = self._files.get(inode_number)
        if existing is not None:
            return existing
        inode = yield from self.fs.layout.read_inode(inode_number)
        return self.instantiate(inode)

    def forget(self, inode_number: int) -> None:
        """Drop an instantiated file from the table (after delete)."""
        self._files.pop(inode_number, None)

    @property
    def loaded_files(self) -> tuple[BaseFile, ...]:
        return tuple(self._files.values())

    @property
    def loaded_count(self) -> int:
        return len(self._files)

    # -- handles -------------------------------------------------------------------

    def open_handle(self, file: BaseFile) -> int:
        handle = next(self._next_handle)
        self._handles[handle] = OpenHandle(handle=handle, file=file)
        return handle

    def get_handle(self, handle: int) -> OpenHandle:
        entry = self._handles.get(handle)
        if entry is None:
            raise StaleHandle(f"unknown or closed file handle {handle}")
        return entry

    def close_handle(self, handle: int) -> BaseFile:
        entry = self._handles.pop(handle, None)
        if entry is None:
            raise StaleHandle(f"unknown or closed file handle {handle}")
        return entry.file

    @property
    def open_count(self) -> int:
        return len(self._handles)

    def __repr__(self) -> str:
        return f"FileTable(loaded={len(self._files)}, open={len(self._handles)})"
