"""The NFS-style front-end: procedures, status codes, loop-back transport."""

import pytest

from repro.assembly.spec import StackSpec
from repro.pfs.filesystem import PegasusFileSystem
from repro.pfs.nfs import NfsError, NfsLoopbackClient, NfsProcedure, NfsServer, NfsStatus
from repro.config import CacheConfig, LayoutConfig
from repro.units import KB, MB


@pytest.fixture
def nfs():
    pfs = PegasusFileSystem(
        spec=StackSpec(
            cache=CacheConfig(size_bytes=1 * MB),
            layout=LayoutConfig(segment_size=64 * KB),
        ),
        size_bytes=16 * MB,
    )
    pfs.format()
    server = NfsServer(pfs.fs, num_threads=3)
    client = NfsLoopbackClient(server)
    return pfs, server, client


def test_mount_and_getattr_root(nfs):
    _pfs, _server, client = nfs
    attr = client.getattr(client.root)
    assert attr["kind"] == "directory"
    assert attr["ino"] == 2


def test_create_write_read(nfs):
    _pfs, _server, client = nfs
    handle = client.create(client.root, "file.txt")
    assert client.write(handle, 0, b"over the wire") == 13
    assert client.read(handle, 0, 13) == b"over the wire"
    assert client.getattr(handle)["size"] == 13


def test_lookup_and_stale_handles(nfs):
    _pfs, _server, client = nfs
    handle = client.create(client.root, "gone.txt")
    assert client.lookup(client.root, "gone.txt") == handle
    client.remove(client.root, "gone.txt")
    with pytest.raises(NfsError) as excinfo:
        client.getattr(handle)
    assert excinfo.value.status in (NfsStatus.ERR_STALE, NfsStatus.ERR_NOENT, NfsStatus.ERR_IO)


def test_lookup_missing_returns_noent(nfs):
    _pfs, _server, client = nfs
    with pytest.raises(NfsError) as excinfo:
        client.lookup(client.root, "does-not-exist")
    assert excinfo.value.status is NfsStatus.ERR_NOENT


def test_mkdir_readdir_rmdir(nfs):
    _pfs, _server, client = nfs
    directory = client.mkdir(client.root, "subdir")
    client.create(directory, "inner")
    entries = client.readdir(directory)
    assert "inner" in entries
    with pytest.raises(NfsError) as excinfo:
        client.rmdir(client.root, "subdir")
    assert excinfo.value.status is NfsStatus.ERR_NOTEMPTY
    client.remove(directory, "inner")
    client.rmdir(client.root, "subdir")
    assert "subdir" not in client.readdir(client.root)


def test_rename(nfs):
    _pfs, _server, client = nfs
    client.create(client.root, "old-name")
    client.rename(client.root, "old-name", client.root, "new-name")
    entries = client.readdir(client.root)
    assert "new-name" in entries and "old-name" not in entries


def test_symlink_and_readlink(nfs):
    _pfs, _server, client = nfs
    handle = client.symlink(client.root, "link", "/target/elsewhere")
    assert client.readlink(handle) == "/target/elsewhere"


def test_setattr_truncates(nfs):
    _pfs, _server, client = nfs
    handle = client.create(client.root, "to-truncate")
    client.write(handle, 0, b"X" * 10000)
    attr = client.setattr(handle, size=100)
    assert attr["size"] == 100


def test_statfs(nfs):
    _pfs, _server, client = nfs
    result = client.statfs()
    assert result["block_size"] == 4 * KB
    assert 0 < result["free_blocks"] <= result["total_blocks"]


def test_create_duplicate_returns_exist(nfs):
    _pfs, _server, client = nfs
    client.create(client.root, "twice")
    with pytest.raises(NfsError) as excinfo:
        client.create(client.root, "twice")
    assert excinfo.value.status is NfsStatus.ERR_EXIST


def test_null_procedure(nfs):
    _pfs, _server, client = nfs
    reply = client.call(NfsProcedure.NULL)
    assert reply.ok


def test_server_statistics(nfs):
    _pfs, server, client = nfs
    client.create(client.root, "counted")
    client.readdir(client.root)
    assert server.requests_served >= 2
    assert server.per_procedure.get("create") == 1


def test_nfs_data_visible_through_local_interface(nfs):
    pfs, _server, client = nfs
    handle = client.create(client.root, "shared.txt")
    client.write(handle, 0, b"written via NFS")
    assert pfs.read_file("/shared.txt") == b"written via NFS"
