"""The Pegasus File-System facade: an on-line instantiation storing real data."""

import shutil

import pytest

from repro.assembly.spec import StackSpec
from repro.config import ArrayConfig, CacheConfig, FlushConfig, HostConfig, LayoutConfig
from repro.errors import FileNotFound
from repro.pfs.filesystem import PegasusFileSystem
from repro.units import KB, MB


def test_basic_write_read(pfs):
    pfs.mkdir("/home")
    pfs.write_file("/home/hello.txt", b"hello, cut-and-paste world")
    assert pfs.read_file("/home/hello.txt") == b"hello, cut-and-paste world"
    assert pfs.listdir("/home") == ["hello.txt"]
    assert pfs.stat("/home/hello.txt")["size"] == 26


def test_large_file_spans_blocks(pfs):
    payload = bytes(range(256)) * 64 * 5  # 80 KB
    pfs.write_file("/big.bin", payload)
    assert pfs.read_file("/big.bin") == payload


def test_overwrite_and_append(pfs):
    pfs.write_file("/log.txt", b"first line\n")
    pfs.append("/log.txt", b"second line\n")
    assert pfs.read_file("/log.txt") == b"first line\nsecond line\n"
    pfs.write_file("/log.txt", b"XXXXX", offset=0)
    assert pfs.read_file("/log.txt")[:5] == b"XXXXX"


def test_delete_and_exists(pfs):
    pfs.write_file("/temp", b"temp data")
    assert pfs.exists("/temp")
    pfs.delete("/temp")
    assert not pfs.exists("/temp")
    with pytest.raises(FileNotFound):
        pfs.read_file("/temp", 0, 1)


def test_makedirs_and_nested_paths(pfs):
    pfs.makedirs("/a/b/c")
    pfs.write_file("/a/b/c/deep.txt", b"deep")
    assert pfs.read_file("/a/b/c/deep.txt") == b"deep"
    assert pfs.listdir("/a/b") == ["c"]


def test_rename_and_symlink(pfs):
    pfs.write_file("/orig", b"content")
    pfs.rename("/orig", "/renamed")
    assert pfs.read_file("/renamed") == b"content"
    pfs.symlink("/renamed", "/alias")
    assert pfs.readlink("/alias") == "/renamed"
    assert pfs.read_file("/alias") == b"content"


def test_truncate(pfs):
    pfs.write_file("/t", b"Z" * 9000)
    pfs.truncate("/t", 1000)
    assert pfs.stat("/t")["size"] == 1000
    assert pfs.read_file("/t") == b"Z" * 1000


def test_handle_interface(pfs):
    handle = pfs.open("/via-handle", create=True)
    pfs.write(handle, 0, b"handle data")
    assert pfs.read(handle, 0, 11) == b"handle data"
    assert pfs.fsync(handle) >= 1
    pfs.close(handle)


def test_sync_flushes_dirty_data(pfs):
    pfs.write_file("/dirty", b"D" * 8192)
    assert pfs.cache.dirty_count > 0
    pfs.sync()
    assert pfs.cache.dirty_count == 0


def test_statistics_report(pfs):
    pfs.write_file("/s", b"stats" * 100)
    pfs.read_file("/s")
    stats = pfs.statistics()
    assert stats["cache"]["blocks_dirtied"] >= 1
    assert stats["layout"]["free_blocks"] > 0
    assert "driver" in stats


def test_persistence_across_remount_memoryless(tmp_path):
    """Unmount writes a checkpoint; a new PFS over the same backing file
    sees the same namespace and data — and the backing file is all there
    is: the idle metadata tier every stack carries leaves no ``.meta.*``."""
    path = tmp_path / "disk.pfsimg"
    spec = StackSpec(
        cache=CacheConfig(size_bytes=1 * MB),
        layout=LayoutConfig(segment_size=64 * KB),
    )
    first = PegasusFileSystem(spec, backing=path, size_bytes=16 * MB)
    first.format()
    first.mkdir("/persist")
    first.write_file("/persist/a.txt", b"A" * 5000)
    first.write_file("/persist/b.txt", b"B" * 3000)
    first.delete("/persist/b.txt")
    first.unmount()
    first.close_backing()
    assert list(tmp_path.iterdir()) == [path]

    second = PegasusFileSystem(spec, backing=path, size_bytes=16 * MB)
    second.mount()
    assert second.listdir("/persist") == ["a.txt"]
    assert second.read_file("/persist/a.txt") == b"A" * 5000
    second.unmount()
    second.close_backing()
    assert list(tmp_path.iterdir()) == [path]


def test_ups_flush_policy_variant():
    pfs = PegasusFileSystem(
        spec=StackSpec(
            cache=CacheConfig(size_bytes=1 * MB),
            flush=FlushConfig(policy="ups"),
            layout=LayoutConfig(segment_size=64 * KB),
        ),
        size_bytes=16 * MB,
    )
    pfs.format()
    pfs.write_file("/ups-file", b"U" * 4096)
    # No periodic flushing: the data stays dirty until a sync.
    assert pfs.cache.dirty_count >= 1
    pfs.sync()
    assert pfs.cache.dirty_count == 0


def test_multimedia_file_creation(pfs):
    handle = pfs.create_multimedia("/video.mm")
    pfs.write(handle, 0, b"V" * 4096)
    assert pfs.read(handle, 0, 4096) == b"V" * 4096
    pfs.close(handle)
    assert pfs.stat("/video.mm")["kind"] == "multimedia"


# --------------------------------------------------------------------------- durability


def _memory_pfs():
    # "ups": nothing flushes behind the test's back.
    return PegasusFileSystem(
        spec=StackSpec(
            cache=CacheConfig(size_bytes=1 * MB),
            flush=FlushConfig(policy="ups"),
            layout=LayoutConfig(segment_size=256 * KB),
        ),
        size_bytes=16 * MB,
    )


def _remount_copy(pfs):
    """A fresh PFS over a copy of ``pfs``'s (memory-backed) disk images."""
    fresh = _memory_pfs()
    for source, target in zip(pfs.drivers, fresh.drivers):
        target.restore(source.snapshot())
    fresh.mount()
    return fresh


def test_overlapping_writebacks_keep_the_newer_inode_across_remount():
    """One 64-KB write extends a file and reaches the log as two writebacks
    whose disk writes overlap, the older finishing last.  The inode is
    packed under the log lock and the inode map follows log order, so the
    copy that maps *all* the new blocks survives unmount + a fresh mount
    (it used to be the older one: the file's tail read back as zeros)."""
    pfs = _memory_pfs()
    pfs.format()
    head = bytes(range(256)) * 16 * 7  # 7 blocks
    pfs.write_file("/f", head)
    pfs.sync()
    tail = bytes((7 * j) % 253 for j in range(64 * KB))
    offset = 5 * 4 * KB  # rewrites blocks 5-6, adds 7-20
    pfs.write_file("/f", tail, offset=offset)
    expected = head[:offset] + tail
    file_id = pfs.stat("/f")["ino"]
    dirty = sorted(pfs.cache.dirty_blocks_of(file_id), key=lambda b: b.block_id.block_no)
    assert len(dirty) == 16
    older, newer = dirty[:12], dirty[12:]

    scheduler, volume, shard = pfs.scheduler, pfs.volume[0], pfs.cache.shards[0]
    original = volume.write_run
    stalled = []

    def stall_older_append(block_addr, nblocks, data):
        # The older writeback's disk write (12 blocks and its inode) is
        # issued, then stalls until the newer writeback is entirely on disk.
        if not stalled:
            stalled.append(nblocks)
            newer_thread = scheduler.spawn(
                shard._writeback_blocks, newer, name="newer"
            )
            yield from newer_thread.join()
        return (yield from original(block_addr, nblocks, data))

    volume.write_run = stall_older_append
    older_thread = scheduler.spawn(shard._writeback_blocks, older, name="older")
    scheduler.run_until_complete(older_thread)
    del volume.write_run
    assert stalled == [len(older) + 1]
    assert pfs.cache.dirty_blocks_of(file_id) == []

    assert pfs.read_file("/f") == expected
    pfs.unmount()
    fresh = _remount_copy(pfs)
    assert fresh.stat("/f")["size"] == len(expected)
    assert fresh.read_file("/f") == expected


def test_sync_reaches_the_backing_files(tmp_path):
    """What ``sync()`` promised is in the backing files when it returns: a
    copy taken right then — what a killed process would leave behind —
    mounts and holds every synced file, while later writes are still only
    in memory.  (The driver used to sit on a user-space buffer until
    ``close_backing()``: the copy mounted an older checkpoint.)"""
    def file_pfs(path):
        return PegasusFileSystem(
            spec=StackSpec(
                cache=CacheConfig(size_bytes=1 * MB),
                flush=FlushConfig(policy="ups"),
                layout=LayoutConfig(segment_size=64 * KB),
            ),
            backing=path,
            size_bytes=16 * MB,
        )

    live = file_pfs(tmp_path / "live.img")
    copy = None
    try:
        live.format()
        live.mkdir("/d")
        files = {
            f"/d/f{i}": bytes((i * 31 + j) % 251 for j in range(3000 + 4096 * i))
            for i in range(12)
        }
        for path, content in list(files.items())[:6]:
            live.write_file(path, content)
        live.sync()
        for path, content in list(files.items())[6:]:
            live.write_file(path, content)
        live.write_file("/d/f0", b"overwritten", offset=100)
        files["/d/f0"] = files["/d/f0"][:100] + b"overwritten" + files["/d/f0"][111:]
        live.sync()
        live.write_file("/d/late", b"not synced yet")
        shutil.copy(tmp_path / "live.img", tmp_path / "copy.img")

        copy = file_pfs(tmp_path / "copy.img")
        copy.mount()
        assert sorted(copy.listdir("/d")) == sorted(p[3:] for p in files)
        for path, content in files.items():
            assert copy.read_file(path) == content, path
    finally:
        live.close_backing()
        if copy is not None:
            copy.close_backing()


def test_checkpoint_in_a_fresh_segment_survives_the_next_mount():
    """The checkpoint that ``unmount`` writes opens a fresh segment.  Its
    usage table must count that segment (its own blocks are the only live
    ones there): the next mount used to take it for free, log new data over
    the checkpoint the superblock still points at, and a crash before the
    following checkpoint lost the whole file system."""
    def small_pfs():
        return PegasusFileSystem(
            spec=StackSpec(
                cache=CacheConfig(size_bytes=1 * MB),
                flush=FlushConfig(policy="ups"),
                layout=LayoutConfig(segment_size=64 * KB),
            ),
            size_bytes=16 * MB,
        )

    def remount(source):
        fresh = small_pfs()
        for old, new in zip(source.drivers, fresh.drivers):
            new.restore(old.snapshot())
        fresh.mount()
        return fresh

    first = small_pfs()
    first.format()
    files = {f"/f{i}": bytes((i * 17 + j) % 251 for j in range(5000 + 1000 * i)) for i in range(6)}
    for path, content in files.items():
        first.write_file(path, content)
    first.sync()
    (layout,) = first.layout.sublayouts
    root = first.fs.root_directory().inode
    while layout._active_offset < layout.segment_blocks:  # fill the segment exactly
        first.run(layout.write_inode, root)
    full = layout._active_segment
    first.unmount()
    address, _nblocks = layout._checkpoint_location
    assert layout.segment_of(address) != full  # the checkpoint opened a fresh segment

    second = remount(first)
    assert second.layout.sublayouts[0]._active_segment != layout.segment_of(address)
    # A segment's worth of new data reaches the log; no checkpoint follows.
    second.write_file("/new", bytes(range(256)) * 16 * layout.segment_blocks)
    second.run(second.cache.flush_all)

    third = remount(second)  # the superblock still names the first checkpoint
    for path, content in files.items():
        assert third.read_file(path) == content, path


def test_one_64kb_read_of_a_fragmented_file_costs_one_disk_read_per_fragment():
    """A file written by three writebacks lies in three stretches of the
    log: each writeback's inode, a neighbour's blocks and inode and a
    checkpoint sit between one stretch and the next — too far apart to read
    through.  One 64-KB call plans them as three runs, one disk read each,
    and returns the model's bytes."""
    pfs = _memory_pfs()
    pfs.format()
    model = bytearray()
    for part, blocks in enumerate((6, 5, 5)):
        data = bytes((part * 83 + j) % 251 for j in range(blocks * 4 * KB))
        pfs.write_file("/f", data, offset=len(model))
        model += data
        pfs.sync()
        pfs.write_file(f"/neighbour{part}", bytes([part + 1]) * (2 * 4 * KB))
        pfs.sync()
    assert len(model) == 64 * KB
    inode = pfs.fs.file_table.find(pfs.stat("/f")["ino"]).inode
    addresses = [inode.get_block_address(i) for i in range(16)]
    breaks = [i for i in range(1, 16) if addresses[i] != addresses[i - 1] + 1]
    assert breaks == [6, 11]
    assert all(addresses[i] - addresses[i - 1] > 2 for i in breaks)  # not one-block gaps
    pfs.cache.invalidate_file(inode.number)

    reads = []
    (volume,) = pfs.volume
    original = volume.read_run

    def read_run(block_addr, nblocks=1):
        reads.append((block_addr, nblocks))
        return original(block_addr, nblocks)

    volume.read_run = read_run
    try:
        assert pfs.read_file("/f", 0, 64 * KB) == bytes(model)
    finally:
        del volume.read_run
    assert reads == [(addresses[0], 6), (addresses[6], 5), (addresses[11], 5)]


def test_the_writeback_writes_the_blocks_the_cache_hands_it_and_looks_nothing_up():
    """A flush hands ``FileSystem._writeback`` the shard's own dirty
    ``CacheBlock`` objects, and those very objects reach the layout: with
    every ``peek`` and ``lookup`` of the cache raising, a sync still writes
    the file, and its bytes read back."""
    pfs = PegasusFileSystem(
        spec=StackSpec(
            cache=CacheConfig(size_bytes=1 * MB),
            flush=FlushConfig(policy="periodic", update_interval=1e6, scan_interval=1e5),
        ),
        size_bytes=16 * MB,
    )
    pfs.format()
    data = bytes((5 * j) % 253 for j in range(16 * KB + 100))
    pfs.write_file("/a", data)
    shard = pfs.cache.shards[0]
    assert len(shard.dirty_blocks_of(pfs.stat("/a")["ino"])) == 5
    dirty = [block for file_id in shard.dirty_files() for block in shard.dirty_blocks_of(file_id)]
    handed = []
    write_files = pfs.layout.write_files

    def recording(files):
        handed.extend(block for _inode, pairs, _with_inode in files for _no, block in pairs)
        return write_files(files)

    def no_lookup(*_args):
        raise AssertionError("the writeback looked a block up")

    pfs.layout.write_files = recording
    for cache in (pfs.cache, shard):
        cache.peek = cache.lookup = no_lookup
    assert pfs.sync() == len(dirty)
    assert sorted(map(id, handed)) == sorted(map(id, dirty))
    for cache in (pfs.cache, shard):
        del cache.peek, cache.lookup
    assert pfs.read_file("/a") == data


def test_a_file_pushed_out_under_pressure_is_a_few_appends_not_one_per_block():
    """16 sequentially written blocks go through an 8-block cache whose
    update daemon never fires, so every writeback is a pressure flush.  Each
    is an extent -- one log append with one inode for a run of dirty
    file-mates (it used to be one append and one inode per block, 16) -- and
    the bytes survive unmount + a fresh mount."""

    def tiny_cache_pfs():
        return PegasusFileSystem(
            spec=StackSpec(
                cache=CacheConfig(size_bytes=8 * 4 * KB),
                flush=FlushConfig(policy="periodic", update_interval=1e6, scan_interval=1e5),
                layout=LayoutConfig(segment_size=256 * KB),
            ),
            size_bytes=16 * MB,
        )

    pfs = tiny_cache_pfs()
    pfs.format()
    pfs.write_file("/a", b"")
    file_id = pfs.stat("/a")["ino"]
    calls = []
    writeback = pfs.cache.writeback

    def logged(batch):
        calls.extend((file_no, [no for no, _block in pairs]) for file_no, pairs in batch)
        return writeback(batch)

    pfs.cache.writeback = logged
    inodes_before = pfs.layout.stats.inodes_written
    data = bytes((7 * j) % 251 for j in range(64 * KB))
    pfs.write_file("/a", data)
    pfs.write_file("/b", data[: 32 * KB])  # pushes the rest of /a out
    of_a = [block_nos for file_no, block_nos in calls if file_no == file_id]
    assert sorted(no for block_nos in of_a for no in block_nos) == list(range(16))
    assert len(of_a) <= 4
    assert pfs.layout.stats.inodes_written - inodes_before <= 4
    assert all(block_nos == list(range(block_nos[0], block_nos[-1] + 1)) for block_nos in of_a)

    assert pfs.read_file("/a") == data
    pfs.unmount()
    fresh = tiny_cache_pfs()
    for source, target in zip(pfs.drivers, fresh.drivers):
        target.restore(source.snapshot())
    fresh.mount()
    assert fresh.read_file("/a") == data
    assert fresh.read_file("/b") == data[: 32 * KB]


def test_sync_writes_a_batch_of_dirty_files_as_one_append_per_volume():
    """Twelve small files dirtied on a two-volume array, then ``sync()``:
    the flush is one writeback batch, so each volume takes exactly one data
    write -- every file's blocks with the inodes packed behind them --
    before the checkpoint; the bytes survive unmount + a fresh mount."""

    def two_volume_pfs():
        return PegasusFileSystem(
            spec=StackSpec(
                cache=CacheConfig(size_bytes=1 * MB),
                flush=FlushConfig(policy="ups"),
                layout=LayoutConfig(segment_size=256 * KB),
                host=HostConfig(num_disks=2),
                array=ArrayConfig(volumes=2),
            ),
            size_bytes=16 * MB,
        )

    pfs = two_volume_pfs()
    pfs.format()
    pfs.sync()
    contents = {f"/f{i}": bytes((i * 31 + j) % 251 for j in range(3 * KB + i)) for i in range(12)}
    for path, data in contents.items():
        pfs.write_file(path, data)
    homes = {pfs.layout.home_of(pfs.stat(path)["ino"]) for path in contents}
    assert homes == {0, 1}
    writes = []
    checkpointing = []
    for v, volume in enumerate(pfs.volume):
        original = volume.write_run

        def logged(block_addr, nblocks, data=None, _v=v, _original=original):
            if not checkpointing:
                writes.append((_v, nblocks))
            return _original(block_addr, nblocks, data)

        volume.write_run = logged
    checkpoint = pfs.layout.checkpoint

    def marked():
        checkpointing.append(True)
        return checkpoint()

    pfs.layout.checkpoint = marked
    inodes_before = pfs.layout.combined_stats()["inodes_written"]
    pfs.sync()
    assert sorted(v for v, _nblocks in writes) == [0, 1]
    # 13 data blocks (12 files and the root directory), then per volume
    # one inode block shared by every inode that volume took.
    inodes = pfs.layout.combined_stats()["inodes_written"] - inodes_before
    assert inodes == len(contents) + 1
    assert sum(nblocks for _v, nblocks in writes) == len(contents) + 1 + 2
    del pfs.layout.checkpoint
    for volume in pfs.volume:
        del volume.write_run
    pfs.unmount()
    fresh = two_volume_pfs()
    for source, target in zip(pfs.drivers, fresh.drivers):
        target.restore(source.snapshot())
    fresh.mount()
    for path, data in contents.items():
        assert fresh.read_file(path) == data


def test_a_small_nvram_drained_many_times_over_keeps_every_byte():
    """The NVRAM drain daemon in the on-line world: files written, partly
    overwritten and appended to through an 8-block NVRAM, more than ten
    times its size in all, read back equal before and after a remount."""

    def nvram_pfs():
        return PegasusFileSystem(
            spec=StackSpec(
                cache=CacheConfig(size_bytes=1 * MB),
                flush=FlushConfig(policy="nvram", nvram_bytes=8 * 4 * KB),
                layout=LayoutConfig(segment_size=256 * KB),
            ),
            size_bytes=16 * MB,
        )

    pfs = nvram_pfs()
    pfs.format()
    contents = {}
    written = 0
    for i in range(10):
        path = f"/f{i}"
        contents[path] = bytes((i * 37 + j) % 251 for j in range(24 * KB + 1500 * i))
        pfs.write_file(path, contents[path])
        written += len(contents[path])
    for i in range(0, 10, 3):
        path = f"/f{i}"
        patch = bytes([200 + i]) * (6 * KB)
        handle = pfs.open(path)
        pfs.write(handle, 5 * KB, patch)
        pfs.write(handle, len(contents[path]), patch)
        pfs.close(handle)
        data = bytearray(contents[path])
        data[5 * KB : 11 * KB] = patch
        contents[path] = bytes(data) + patch
        written += 2 * len(patch)
    assert written >= 10 * 8 * 4 * KB
    stats = pfs.cache.stats
    assert stats.nvram_stalls > 0 and stats.peak_dirty_bytes <= 8 * 4 * KB
    for path, data in contents.items():
        assert pfs.read_file(path) == data
    pfs.unmount()
    fresh = nvram_pfs()
    for source, target in zip(pfs.drivers, fresh.drivers):
        target.restore(source.snapshot())
    fresh.mount()
    for path, data in contents.items():
        assert fresh.read_file(path) == data
