"""The abstract client interface and file types over a real (memory) backend."""

import pytest

from repro.core.client import AbstractClientInterface
from repro.core.filetypes import DirectoryFile, MultimediaFile
from repro.core.inode import FileKind
from repro.errors import (
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    IsADirectory,
    NotADirectory,
    StaleHandle,
)
from tests.conftest import run


@pytest.fixture
def client(memory_fs):
    return AbstractClientInterface(memory_fs, auto_materialize=False)


def test_create_write_read_roundtrip(scheduler, client):
    def body():
        handle = yield from client.create("/file.txt")
        yield from client.write(handle, 0, b"hello world")
        data = yield from client.read(handle, 0, 11)
        yield from client.close(handle)
        return data

    assert run(scheduler, body) == b"hello world"


def test_read_past_eof_truncated(scheduler, client):
    def body():
        handle = yield from client.create("/f")
        yield from client.write(handle, 0, b"12345")
        return (yield from client.read(handle, 3, 100))

    assert run(scheduler, body) == b"45"


def test_sparse_file_reads_zeros(scheduler, client):
    def body():
        handle = yield from client.create("/sparse")
        yield from client.write(handle, 10000, b"end")
        return (yield from client.read(handle, 0, 8))

    assert run(scheduler, body) == bytes(8)


def test_create_exclusive_conflict(scheduler, client):
    def body():
        handle = yield from client.create("/dup")
        yield from client.close(handle)
        yield from client.create("/dup")

    with pytest.raises(FileExists):
        run(scheduler, body)


def test_open_missing_file_raises(scheduler, client):
    with pytest.raises(FileNotFound):
        run(scheduler, client.open, "/nope")


def test_mkdir_readdir_rmdir(scheduler, client):
    def body():
        yield from client.mkdir("/dir")
        handle = yield from client.create("/dir/a")
        yield from client.close(handle)
        entries = yield from client.readdir("/dir")
        yield from client.unlink("/dir/a")
        yield from client.rmdir("/dir")
        root = yield from client.readdir("/")
        return entries, root

    entries, root = run(scheduler, body)
    assert "a" in entries
    assert "dir" not in root


def test_rmdir_non_empty_rejected(scheduler, client):
    def body():
        yield from client.mkdir("/d")
        handle = yield from client.create("/d/f")
        yield from client.close(handle)
        yield from client.rmdir("/d")

    with pytest.raises(DirectoryNotEmpty):
        run(scheduler, body)


def test_unlink_directory_rejected(scheduler, client):
    def body():
        yield from client.mkdir("/d")
        yield from client.unlink("/d")

    with pytest.raises(IsADirectory):
        run(scheduler, body)


def test_path_component_through_file_rejected(scheduler, client):
    def body():
        handle = yield from client.create("/plain")
        yield from client.close(handle)
        yield from client.stat("/plain/child")

    with pytest.raises(NotADirectory):
        run(scheduler, body)


def test_rename_moves_entry(scheduler, client):
    def body():
        yield from client.mkdir("/a")
        yield from client.mkdir("/b")
        handle = yield from client.create("/a/f")
        yield from client.write(handle, 0, b"data")
        yield from client.close(handle)
        yield from client.rename("/a/f", "/b/g")
        moved = yield from client.read_file("/b/g", 0, 4)
        old_exists = yield from client.exists("/a/f")
        return moved, old_exists

    moved, old_exists = run(scheduler, body)
    assert moved == b"data"
    assert old_exists is False


def test_symlink_and_resolution(scheduler, client):
    def body():
        yield from client.mkdir("/real")
        handle = yield from client.create("/real/target")
        yield from client.write(handle, 0, b"via-link")
        yield from client.close(handle)
        yield from client.symlink("/real/target", "/link")
        target = yield from client.readlink("/link")
        data = yield from client.read_file("/link", 0, 8)
        return target, data

    target, data = run(scheduler, body)
    assert target == "/real/target"
    assert data == b"via-link"


def test_truncate_shrinks_and_discards(scheduler, client, memory_fs):
    def body():
        handle = yield from client.create("/t")
        yield from client.write(handle, 0, b"A" * 10000)
        yield from client.truncate(handle, 100)
        stat = yield from client.stat("/t")
        data = yield from client.read(handle, 0, 200)
        yield from client.close(handle)
        return stat, data

    stat, data = run(scheduler, body)
    assert stat["size"] == 100
    assert data == b"A" * 100


def test_unlink_counts_write_savings(scheduler, client, memory_fs):
    def body():
        handle = yield from client.create("/doomed")
        yield from client.write(handle, 0, b"B" * 8192)
        yield from client.close(handle)
        yield from client.unlink("/doomed")

    run(scheduler, body)
    assert memory_fs.cache.stats.dirty_blocks_discarded >= 2


def test_stale_handle_detected(scheduler, client):
    def body():
        handle = yield from client.create("/h")
        yield from client.close(handle)
        yield from client.read(handle, 0, 1)

    with pytest.raises(StaleHandle):
        run(scheduler, body)


def test_stat_fields(scheduler, client):
    def body():
        yield from client.mkdir("/sd")
        return (yield from client.stat("/sd"))

    stat = run(scheduler, body)
    assert stat["kind"] == "directory"
    assert stat["nlink"] >= 2


def test_fsync_writes_dirty_blocks(scheduler, client, memory_fs):
    def body():
        handle = yield from client.create("/sync-me")
        yield from client.write(handle, 0, b"C" * 4096)
        written = yield from client.fsync(handle)
        yield from client.close(handle)
        return written

    assert run(scheduler, body) == 1
    assert memory_fs.cache.dirty_count == 0


def test_auto_materialize_creates_missing_paths(scheduler, memory_fs):
    client = AbstractClientInterface(memory_fs, auto_materialize=True)

    def body():
        data = yield from client.read_file("/pre/existing/file.dat", 0, 4096)
        stat = yield from client.stat("/pre/existing/file.dat")
        return data, stat

    data, stat = run(scheduler, body)
    assert len(data) == 4096
    assert stat["size"] >= 4096
    assert client.stats.files_materialized >= 1


def test_multimedia_file_budget(scheduler, memory_fs):
    client = AbstractClientInterface(memory_fs, auto_materialize=False)

    def body():
        handle = yield from client.open_multimedia("/movie")
        entry = memory_fs.file_table.get_handle(handle)
        assert isinstance(entry.file, MultimediaFile)
        entry.file.budget = 4
        yield from client.write(handle, 0, b"M" * (20 * 4096))
        yield from client.fsync(handle)
        # Stream sequentially; the file must keep its cache footprint bounded.
        for block in range(20):
            yield from client.read(handle, block * 4096, 4096)
        resident = len(memory_fs.cache.cached_blocks_of(entry.file.file_id))
        yield from client.close(handle)
        return resident

    assert run(scheduler, body) <= 5


def test_client_statistics_counters(scheduler, client):
    def body():
        handle = yield from client.create("/counted")
        yield from client.write(handle, 0, b"xyz")
        yield from client.read(handle, 0, 3)
        yield from client.close(handle)

    run(scheduler, body)
    assert client.stats.operations["create"] == 1
    assert client.stats.bytes_written == 3
    assert client.stats.bytes_read == 3
    assert client.stats.total_operations >= 4


def test_bytes_read_counts_what_a_read_returned(scheduler, client):
    """A read that runs into end of file returns, counts and advances by the
    bytes that were there, by handle and by path."""

    def body():
        handle = yield from client.create("/five")
        yield from client.write(handle, 0, b"abcde")
        before = client.stats.bytes_read
        data = yield from client.read(handle, 2, 10)
        position = client.fs.file_table.get_handle(handle).position
        by_path = yield from client.read_file("/five", 2, 10)
        yield from client.close(handle)
        return data, position, by_path, client.stats.bytes_read - before

    assert run(scheduler, body) == (b"cde", 5, b"cde", 6)


def test_a_read_looks_each_block_up_once(scheduler, client, memory_fs):
    """Hit or miss, a block of a read costs one cache lookup: a resident
    block is taken straight from it, a missing one goes on from its answer
    (no second lookup to find out again that it is missing)."""
    stats = memory_fs.cache.stats

    def body():
        handle = yield from client.create("/three")
        yield from client.write(handle, 0, b"r" * (3 * 4096))
        yield from client.fsync(handle)
        before = (stats.lookups, stats.hits, stats.misses)
        hot = yield from client.read(handle, 0, 3 * 4096)
        warm = (stats.lookups, stats.hits, stats.misses)
        file_id = memory_fs.file_table.get_handle(handle).file.file_id
        memory_fs.cache.invalidate_file(file_id)
        cold = yield from client.read(handle, 0, 3 * 4096)
        after = (stats.lookups, stats.hits, stats.misses)
        yield from client.close(handle)
        return hot == cold == b"r" * (3 * 4096), before, warm, after

    same, before, warm, after = run(scheduler, body)
    assert same
    assert [b - a for a, b in zip(before, warm)] == [3, 3, 0]
    # The first miss reads the other two in with it; their first reference
    # still counts as the miss it would have been.
    assert [b - a for a, b in zip(warm, after)] == [3, 0, 3]


def test_root_directory_is_directory_file(memory_fs):
    assert isinstance(memory_fs.root_directory(), DirectoryFile)
    assert memory_fs.root_directory().inode.kind is FileKind.DIRECTORY
