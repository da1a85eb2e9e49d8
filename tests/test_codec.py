"""On-disk encodings: superblock, inodes, directories, checkpoints, summaries."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core import codec
from repro.core.inode import FileKind, Inode
from repro.errors import StorageError


def test_superblock_roundtrip():
    packed = codec.pack_superblock(4096, 64, 100_000, 4242, 3)
    fields = codec.unpack_superblock(packed + bytes(100))
    assert fields["block_size"] == 4096
    assert fields["segment_size_blocks"] == 64
    assert fields["total_blocks"] == 100_000
    assert fields["checkpoint_addr"] == 4242
    assert fields["checkpoint_blocks"] == 3


def test_superblock_bad_magic():
    with pytest.raises(StorageError):
        codec.unpack_superblock(bytes(64))


def test_inode_roundtrip():
    inode = Inode(
        number=17,
        kind=FileKind.REGULAR,
        size=123456,
        nlink=2,
        uid=10,
        gid=20,
        mode=0o640,
        atime=1.5,
        mtime=2.5,
        ctime=3.5,
        generation=4,
        block_map={0: 100, 5: 205, 2: 330},
    )
    unpacked = codec.unpack_inode(codec.pack_inode(inode))
    assert unpacked.number == 17
    assert unpacked.kind is FileKind.REGULAR
    assert unpacked.size == 123456
    assert unpacked.block_map == {0: 100, 2: 330, 5: 205}
    assert unpacked.mtime == 2.5
    assert unpacked.generation == 4


def test_inode_symlink_target_roundtrip():
    inode = Inode(number=3, kind=FileKind.SYMLINK, symlink_target="/target/path")
    unpacked = codec.unpack_inode(codec.pack_inode(inode))
    assert unpacked.symlink_target == "/target/path"
    assert unpacked.kind is FileKind.SYMLINK


@given(
    block_map=st.dictionaries(st.integers(0, 2**32 - 1), st.integers(0, 2**48), max_size=40),
    target=st.text(max_size=20),
)
@example(block_map={}, target="")  # empty map
@example(block_map={0: 7, 9_000: 8, 2**31: 9}, target="")  # sparse map
@example(block_map={i: 100 + i for i in range(400)}, target="ß/x")  # > one 4-KB block of map
def test_inode_packed_size_matches(block_map, target):
    # PATSY sizes an inode's log blocks from this without serialising it.
    inode = Inode(number=1, kind=FileKind.REGULAR, block_map=block_map, symlink_target=target)
    assert codec.packed_inode_size(inode) == len(codec.pack_inode(inode))


def test_inode_block_round_trips_several_inodes():
    inodes = [
        Inode(number=5, kind=FileKind.REGULAR, size=9000, block_map={0: 40, 1: 41, 2: 57}),
        Inode(number=9, kind=FileKind.SYMLINK, symlink_target="/elsewhere/ß"),
        Inode(number=12, kind=FileKind.DIRECTORY, nlink=3, block_map={0: 77}),
    ]
    block = b"".join(codec.pack_inode(inode) for inode in inodes)
    unpacked = codec.unpack_inode_block(block + bytes(4096 - len(block)))
    assert [(i.number, i.kind, i.size, i.nlink, i.block_map, i.symlink_target) for i in unpacked] == [
        (i.number, i.kind, i.size, i.nlink, i.block_map, i.symlink_target) for i in inodes
    ]
    assert codec.unpack_inode_block(bytes(4096)) == []


def test_inode_bad_magic():
    with pytest.raises(StorageError):
        codec.unpack_inode(bytes(200))


def test_directory_roundtrip():
    entries = {"alpha.txt": 5, "beta": 9, "unicode-ß": 12}
    assert codec.unpack_directory(codec.pack_directory(entries)) == entries


def test_empty_directory():
    assert codec.unpack_directory(codec.pack_directory({})) == {}
    assert codec.unpack_directory(b"") == {}


def test_directory_truncated_data_raises():
    packed = codec.pack_directory({"file": 1})
    with pytest.raises(StorageError):
        codec.unpack_directory(packed[:5])


def test_checkpoint_roundtrip():
    packed = codec.pack_checkpoint(
        timestamp=12.75,
        next_inode_number=99,
        next_segment=7,
        inode_map={2: (100, 1), 5: (200, 2)},
        segment_usage={0: 10, 3: 4},
    )
    fields = codec.unpack_checkpoint(packed)
    assert fields["timestamp"] == 12.75
    assert fields["next_inode_number"] == 99
    assert fields["next_segment"] == 7
    assert fields["inode_map"] == {2: (100, 1), 5: (200, 2)}
    assert fields["segment_usage"] == {0: 10, 3: 4}


def test_checkpoint_bad_magic():
    with pytest.raises(StorageError):
        codec.unpack_checkpoint(bytes(64))


def test_segment_summary_roundtrip():
    entries = [(2, 0, False), (2, 1, False), (7, 0, True)]
    assert codec.unpack_segment_summary(codec.pack_segment_summary(entries)) == entries


def test_segment_summary_empty():
    assert codec.unpack_segment_summary(codec.pack_segment_summary([])) == []


def test_segment_summary_bad_magic():
    with pytest.raises(StorageError):
        codec.unpack_segment_summary(bytes(16))
