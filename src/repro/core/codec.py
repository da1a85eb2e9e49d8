"""On-disk encodings for file-system metadata.

The real (PFS) instantiation stores genuine bytes on its backing store, so
superblocks, checkpoints, inodes, directory contents and segment summaries
need a well-defined binary format.  The simulator never serialises anything
(its helper components "compensate for the lack of real data"), but shares
these routines in the few places where sizes matter.

All structures are little-endian and carry magic numbers and explicit counts
so that corruption is detected loudly rather than silently.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, Mapping

from repro.core.inode import FileKind, Inode
from repro.errors import StorageError

__all__ = [
    "SUPERBLOCK_MAGIC",
    "CHECKPOINT_MAGIC",
    "INODE_MAGIC",
    "SUMMARY_MAGIC",
    "pack_superblock",
    "unpack_superblock",
    "pack_inode",
    "unpack_inode",
    "packed_inode_size",
    "unpack_inode_block",
    "pack_directory",
    "unpack_directory",
    "pack_checkpoint",
    "checkpoint_size",
    "unpack_checkpoint",
    "pack_segment_summary",
    "unpack_segment_summary",
]

SUPERBLOCK_MAGIC = 0x50465331  # "PFS1"
CHECKPOINT_MAGIC = 0x43484B31  # "CHK1"
INODE_MAGIC = 0x494E4F31  # "INO1"
SUMMARY_MAGIC = 0x53554D31  # "SUM1"
#: the logical-block field of a segment-summary entry for an inode block
#: shared by several inodes (its owner field names the first of them).
SHARED_INODE_BLOCK = 0xFFFFFFFF

_SUPERBLOCK = struct.Struct("<IIIIQQ")
_CHECKPOINT_HEADER = struct.Struct("<IQQdII")
_INODE_HEADER = struct.Struct("<IIBIQIHHHdddI")
_BLOCK_ENTRY = struct.Struct("<IQ")
_DIRENT_HEADER = struct.Struct("<IH")
_SUMMARY_HEADER = struct.Struct("<II")
_SUMMARY_ENTRY = struct.Struct("<IIB")
_IMAP_ENTRY = struct.Struct("<IQH")
_SEG_USAGE_ENTRY = struct.Struct("<II")
_INODE_MAGIC_BYTES = struct.pack("<I", INODE_MAGIC)


# --------------------------------------------------------------------------- superblock


def pack_superblock(
    block_size: int,
    segment_size_blocks: int,
    total_blocks: int,
    checkpoint_addr: int,
    checkpoint_blocks: int,
) -> bytes:
    """Superblock: geometry plus the location of the current checkpoint."""
    return _SUPERBLOCK.pack(
        SUPERBLOCK_MAGIC,
        block_size,
        segment_size_blocks,
        checkpoint_blocks,
        total_blocks,
        checkpoint_addr,
    )


def unpack_superblock(data: bytes) -> dict:
    try:
        magic, block_size, segment_size, checkpoint_blocks, total_blocks, checkpoint_addr = (
            _SUPERBLOCK.unpack_from(data)
        )
    except struct.error as exc:
        raise StorageError("superblock too small or corrupt") from exc
    if magic != SUPERBLOCK_MAGIC:
        raise StorageError(f"bad superblock magic 0x{magic:08x}")
    return {
        "block_size": block_size,
        "segment_size_blocks": segment_size,
        "total_blocks": total_blocks,
        "checkpoint_addr": checkpoint_addr,
        "checkpoint_blocks": checkpoint_blocks,
    }


# --------------------------------------------------------------------------- inodes


def pack_inode(inode: Inode) -> bytes:
    """Serialise an inode (header + block-map entries + symlink target)."""
    target = inode.symlink_target.encode("utf-8")
    header = _INODE_HEADER.pack(
        INODE_MAGIC,
        inode.number,
        inode.kind.value,
        inode.generation,
        inode.size,
        inode.nlink,
        inode.uid,
        inode.gid,
        inode.mode,
        inode.atime,
        inode.mtime,
        inode.ctime,
        len(inode.block_map),
    )
    parts = [header, struct.pack("<H", len(target)), target]
    for block_no, address in sorted(inode.block_map.items()):
        parts.append(_BLOCK_ENTRY.pack(block_no, address))
    return b"".join(parts)


def packed_inode_size(inode: Inode) -> int:
    """``len(pack_inode(inode))`` without serialising (the simulator only
    needs to know how many log blocks the inode takes)."""
    return (
        _INODE_HEADER.size
        + 2
        + len(inode.symlink_target.encode("utf-8"))
        + _BLOCK_ENTRY.size * len(inode.block_map)
    )


def unpack_inode_block(data: bytes) -> list[Inode]:
    """Every inode record at the start of ``data``: an inode block holds
    :func:`pack_inode` records back to back, then zero padding."""
    inodes: list[Inode] = []
    offset = 0
    while data[offset : offset + 4] == _INODE_MAGIC_BYTES:
        inodes.append(unpack_inode(data, offset))
        offset += packed_inode_size(inodes[-1])
    return inodes


def unpack_inode(data: bytes, offset: int = 0) -> Inode:
    try:
        fields = _INODE_HEADER.unpack_from(data, offset)
    except struct.error as exc:
        raise StorageError("inode record too small") from exc
    (
        magic,
        number,
        kind_value,
        generation,
        size,
        nlink,
        uid,
        gid,
        mode,
        atime,
        mtime,
        ctime,
        nblocks,
    ) = fields
    if magic != INODE_MAGIC:
        raise StorageError(f"bad inode magic 0x{magic:08x}")
    offset += _INODE_HEADER.size
    (target_len,) = struct.unpack_from("<H", data, offset)
    offset += 2
    target = data[offset : offset + target_len].decode("utf-8")
    offset += target_len
    block_map: Dict[int, int] = {}
    for _ in range(nblocks):
        block_no, address = _BLOCK_ENTRY.unpack_from(data, offset)
        offset += _BLOCK_ENTRY.size
        block_map[block_no] = address
    return Inode(
        number=number,
        kind=FileKind(kind_value),
        size=size,
        nlink=nlink,
        uid=uid,
        gid=gid,
        mode=mode,
        atime=atime,
        mtime=mtime,
        ctime=ctime,
        generation=generation,
        block_map=block_map,
        symlink_target=target,
    )


# --------------------------------------------------------------------------- directories


def pack_directory(entries: Mapping[str, int]) -> bytes:
    """Directory contents: (inode number, name length, name) records."""
    parts = [struct.pack("<I", len(entries))]
    for name in sorted(entries):
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise StorageError(f"directory entry name too long: {name[:32]}...")
        parts.append(_DIRENT_HEADER.pack(entries[name], len(encoded)))
        parts.append(encoded)
    return b"".join(parts)


def unpack_directory(data: bytes) -> Dict[str, int]:
    if len(data) < 4:
        return {}
    (count,) = struct.unpack_from("<I", data, 0)
    offset = 4
    entries: Dict[str, int] = {}
    for _ in range(count):
        try:
            inode_number, name_len = _DIRENT_HEADER.unpack_from(data, offset)
        except struct.error as exc:
            raise StorageError("truncated directory data") from exc
        offset += _DIRENT_HEADER.size
        name = data[offset : offset + name_len].decode("utf-8")
        offset += name_len
        entries[name] = inode_number
    return entries


# --------------------------------------------------------------------------- LFS checkpoint


def pack_checkpoint(
    timestamp: float,
    next_inode_number: int,
    next_segment: int,
    inode_map: Mapping[int, tuple[int, int]],
    segment_usage: Mapping[int, int],
) -> bytes:
    """LFS checkpoint: the inode map (IFILE contents) and segment usage table.

    ``inode_map`` maps inode number -> (disk block address, length in blocks)
    of the most recent copy of that inode; ``segment_usage`` maps segment
    index -> live block count.
    """
    header = _CHECKPOINT_HEADER.pack(
        CHECKPOINT_MAGIC,
        next_inode_number,
        next_segment,
        timestamp,
        len(inode_map),
        len(segment_usage),
    )
    parts = [header]
    for inode_number in sorted(inode_map):
        address, length = inode_map[inode_number]
        parts.append(_IMAP_ENTRY.pack(inode_number, address, length))
    for segment in sorted(segment_usage):
        parts.append(_SEG_USAGE_ENTRY.pack(segment, segment_usage[segment]))
    return b"".join(parts)


def checkpoint_size(inodes: int, segments: int) -> int:
    """Bytes :func:`pack_checkpoint` produces for that many map entries."""
    return (
        _CHECKPOINT_HEADER.size
        + inodes * _IMAP_ENTRY.size
        + segments * _SEG_USAGE_ENTRY.size
    )


def unpack_checkpoint(data: bytes) -> dict:
    try:
        magic, next_inode, next_segment, timestamp, n_imap, n_usage = (
            _CHECKPOINT_HEADER.unpack_from(data)
        )
    except struct.error as exc:
        raise StorageError("checkpoint too small") from exc
    if magic != CHECKPOINT_MAGIC:
        raise StorageError(f"bad checkpoint magic 0x{magic:08x}")
    offset = _CHECKPOINT_HEADER.size
    inode_map: Dict[int, tuple[int, int]] = {}
    for _ in range(n_imap):
        inode_number, address, length = _IMAP_ENTRY.unpack_from(data, offset)
        offset += _IMAP_ENTRY.size
        inode_map[inode_number] = (address, length)
    segment_usage: Dict[int, int] = {}
    for _ in range(n_usage):
        segment, live = _SEG_USAGE_ENTRY.unpack_from(data, offset)
        offset += _SEG_USAGE_ENTRY.size
        segment_usage[segment] = live
    return {
        "timestamp": timestamp,
        "next_inode_number": next_inode,
        "next_segment": next_segment,
        "inode_map": inode_map,
        "segment_usage": segment_usage,
    }


# --------------------------------------------------------------------------- segment summaries


def pack_segment_summary(entries: Iterable[tuple[int, int, bool]]) -> bytes:
    """Segment summary: one (inode number, logical block, is_inode) entry per
    block written in the segment, in block order."""
    entries = list(entries)
    parts = [_SUMMARY_HEADER.pack(SUMMARY_MAGIC, len(entries))]
    for inode_number, logical_block, is_inode in entries:
        parts.append(_SUMMARY_ENTRY.pack(inode_number, logical_block, 1 if is_inode else 0))
    return b"".join(parts)


def unpack_segment_summary(data: bytes) -> list[tuple[int, int, bool]]:
    """Decode a segment summary; bytes past its entries are ignored (images
    written before the summary block lost its index section carry one)."""
    try:
        magic, count = _SUMMARY_HEADER.unpack_from(data)
    except struct.error as exc:
        raise StorageError("segment summary too small") from exc
    if magic != SUMMARY_MAGIC:
        raise StorageError(f"bad segment summary magic 0x{magic:08x}")
    offset = _SUMMARY_HEADER.size
    if len(data) < offset + count * _SUMMARY_ENTRY.size:
        raise StorageError(f"segment summary of {count} entries is truncated")
    entries = []
    for _ in range(count):
        inode_number, logical_block, is_inode = _SUMMARY_ENTRY.unpack_from(data, offset)
        offset += _SUMMARY_ENTRY.size
        entries.append((inode_number, logical_block, bool(is_inode)))
    return entries
