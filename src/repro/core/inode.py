"""Inodes and file types.

An inode is the on-disk (and in-core) description of a file: its type, size,
link count, times, and the mapping from logical block numbers to disk block
addresses.  The block map is a sparse dictionary — holes simply have no
entry — which matches the behaviour of the segmented LFS in
:mod:`repro.core.storage`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from repro.errors import InvalidArgument

__all__ = ["FileKind", "Inode", "ROOT_INODE_NUMBER"]

#: Inode number of the root directory in every layout.
ROOT_INODE_NUMBER = 2


class FileKind(enum.Enum):
    """File types supported by the framework (Section 2, "Files")."""

    REGULAR = 1
    DIRECTORY = 2
    SYMLINK = 3
    MULTIMEDIA = 4
    ADMINISTRATIVE = 5


@dataclass
class Inode:
    """In-core inode.

    ``block_map`` maps logical file block numbers to *volume* block
    addresses.  An address of ``None`` never appears: unmapped blocks are
    simply missing keys (holes read as zeros).
    """

    number: int
    kind: FileKind
    size: int = 0
    nlink: int = 1
    uid: int = 0
    gid: int = 0
    mode: int = 0o644
    atime: float = 0.0
    mtime: float = 0.0
    ctime: float = 0.0
    #: generation number: bumped when the inode number is reused, so stale
    #: client handles can be detected.
    generation: int = 1
    block_map: Dict[int, int] = field(default_factory=dict)
    #: symlink target (SYMLINK inodes only).
    symlink_target: str = ""

    # -- block map ------------------------------------------------------------

    def get_block_address(self, block_no: int) -> Optional[int]:
        return self.block_map.get(block_no)

    def set_block_address(self, block_no: int, address: int) -> None:
        if block_no < 0:
            raise InvalidArgument(f"negative logical block number {block_no}")
        self.block_map[block_no] = address

    def drop_blocks_from(self, first_block: int) -> list[int]:
        """Remove mappings for blocks >= ``first_block`` (truncate); returns
        the freed disk addresses."""
        doomed = [bn for bn in self.block_map if bn >= first_block]
        freed = []
        for block_no in doomed:
            freed.append(self.block_map.pop(block_no))
        return freed

    def mapped_blocks(self) -> Iterable[tuple[int, int]]:
        """(logical block, disk address) pairs in logical order."""
        return sorted(self.block_map.items())

    @property
    def block_count(self) -> int:
        return len(self.block_map)

    # -- convenience ------------------------------------------------------------

    @property
    def is_directory(self) -> bool:
        return self.kind is FileKind.DIRECTORY

    @property
    def is_regular(self) -> bool:
        return self.kind is FileKind.REGULAR

    @property
    def is_symlink(self) -> bool:
        return self.kind is FileKind.SYMLINK

    def blocks_for_size(self, block_size: int) -> int:
        return (self.size + block_size - 1) // block_size

    def touch_mtime(self, now: float) -> None:
        self.mtime = now
        self.ctime = now

    def touch_atime(self, now: float) -> None:
        self.atime = now

    def stat(self) -> dict:
        """A plain-dict stat result, as returned through the client interface."""
        return {
            "ino": self.number,
            "kind": self.kind.name.lower(),
            "size": self.size,
            "nlink": self.nlink,
            "uid": self.uid,
            "gid": self.gid,
            "mode": self.mode,
            "atime": self.atime,
            "mtime": self.mtime,
            "ctime": self.ctime,
            "generation": self.generation,
            "blocks": self.block_count,
        }

    def __repr__(self) -> str:
        return f"Inode(#{self.number} {self.kind.name.lower()} size={self.size})"
