"""Hierarchical name space: path resolution over directory files.

Paths are Unix-style (``/a/b/c``).  Resolution walks directory files through
the ordinary cached-read path, so name lookups hit the block cache and the
disk exactly like any other access — which is what makes directory traffic
show up in the simulator's latency distributions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.core.filetypes import BaseFile, DirectoryFile, SymlinkFile
from repro.errors import FileNotFound, InvalidArgument, NotADirectory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.filesystem import FileSystem

__all__ = ["Namespace", "split_path", "normalize_path"]

#: maximum number of symbolic links followed during one resolution.
MAX_SYMLINK_DEPTH = 8


def split_path(path: str) -> list[str]:
    """Split a path into components, ignoring empty ones and single dots."""
    if not isinstance(path, str):
        raise InvalidArgument(f"path must be a string, got {type(path).__name__}")
    return [part for part in path.split("/") if part and part != "."]


def normalize_path(path: str) -> str:
    """Canonical form of a path (always absolute, no duplicate slashes)."""
    return "/" + "/".join(split_path(path))


class Namespace:
    """Resolves paths to instantiated files."""

    def __init__(self, fs: "FileSystem"):
        self.fs = fs
        self.lookups = 0
        self.symlinks_followed = 0

    # -- resolution --------------------------------------------------------------

    def resolve(
        self, path: str, follow_symlinks: bool = True, _depth: int = 0
    ) -> Generator[Any, Any, BaseFile]:
        """Resolve ``path`` to an instantiated file (raises FileNotFound)."""
        if _depth > MAX_SYMLINK_DEPTH:
            raise InvalidArgument(f"too many levels of symbolic links resolving {path!r}")
        self.lookups += 1
        components = split_path(path)
        last = len(components) - 1
        current, start = self._walk_in_core(components, follow_symlinks)
        for index in range(start, len(components)):
            name = components[index]
            if not isinstance(current, DirectoryFile):
                raise NotADirectory(f"{'/'.join(components[:index]) or '/'} is not a directory")
            inode_number = yield from current.lookup(name)
            if inode_number is None:
                raise FileNotFound(f"no such file or directory: {path!r}")
            parent_id = current.file_id
            current = yield from self.fs.file_table.load(inode_number)
            # Record the containing directory: fsync walks this linkage to
            # flush the full ancestor dirent chain.
            if current.parent_id is None:
                current.parent_id = parent_id
            if isinstance(current, SymlinkFile) and (follow_symlinks or index != last):
                self.symlinks_followed += 1
                target = current.target
                if not target.startswith("/"):
                    target = "/".join(["/".join(components[:index])] + [target])
                remainder = "/".join(components[index + 1 :])
                full = target if not remainder else target.rstrip("/") + "/" + remainder
                return (
                    yield from self.resolve(full, follow_symlinks=follow_symlinks, _depth=_depth + 1)
                )
        return current

    def _walk_in_core(
        self, components: list[str], follow_symlinks: bool
    ) -> tuple[BaseFile, int]:
        """As far down ``components`` from the root as memory alone answers:
        the file reached and how many components that consumed.

        A plain call in front of the loop in :meth:`resolve`, which picks up
        at the first component this walk declines — a directory whose
        entries are not loaded, a child not in the file table, a name that is
        not there, a file where a directory should be, a symbolic link to
        follow.  What it does answer it answers as that loop would, down to
        the ``parent_id`` linkage; nothing is remembered between calls.
        """
        current: BaseFile = self.fs.root_directory()
        find_file = self.fs.file_table.find
        last = len(components) - 1
        for index, name in enumerate(components):
            child = find_file(current.find(name)) if isinstance(current, DirectoryFile) else None
            if child is None or (
                isinstance(child, SymlinkFile) and (follow_symlinks or index != last)
            ):
                return current, index
            if child.parent_id is None:
                child.parent_id = current.file_id
            current = child
        return current, len(components)

    def resolve_parent(self, path: str) -> Generator[Any, Any, tuple[DirectoryFile, str]]:
        """Resolve the parent directory of ``path``; returns (dir, leaf name)."""
        components = split_path(path)
        if not components:
            raise InvalidArgument("the root directory has no parent")
        parent_path = "/" + "/".join(components[:-1])
        parent = yield from self.resolve(parent_path)
        if not isinstance(parent, DirectoryFile):
            raise NotADirectory(f"{parent_path} is not a directory")
        return parent, components[-1]

    def exists(self, path: str) -> Generator[Any, Any, bool]:
        try:
            yield from self.resolve(path)
            return True
        except (FileNotFound, NotADirectory):
            return False

    def __repr__(self) -> str:
        return f"Namespace(lookups={self.lookups})"
