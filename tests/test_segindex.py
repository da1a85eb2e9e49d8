"""The LSM-style LFS segment indexes: blooms, sparse offsets, utilisation
buckets, lazy mounts and coalesced reads.

The property test at the bottom drives a real (byte-moving) layout
through random write/overwrite/release/clean/checkpoint-remount sequences
and checks the invariants that make the index safe to consult:

* a segment's bloom never produces a false negative for an entry its
  summary holds (a negative must be authoritative);
* every sparse-index sample points at the exact summary offset;
* the index's live counter equals the segment's usage counter;
* the utilisation buckets track exactly the sealed non-free segments, each
  in the bucket its usage dictates;
* the incremental free-block/free-heap accounting matches a from-scratch
  recount.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import (
    CacheConfig,
    ClusterConfig,
    FlushConfig,
    LayoutConfig,
)
from repro.assembly.bindings import OnlineBinding
from repro.assembly.builder import build_stack
from repro.assembly.spec import StackSpec
from repro.core import codec
from repro.core.blocks import CacheBlock
from repro.core.clock import VirtualClock
from repro.core.inode import FileKind
from repro.core.scheduler import Scheduler
from repro.core.storage.lfs import LogStructuredLayout
from repro.core.storage.segindex import (
    BloomFilter,
    SegmentIndex,
    SegmentIndexConfig,
    UtilisationBuckets,
    _mix,
    entry_key,
    owner_key,
)
from repro.core.storage.volume import LocalVolume
from repro.core.client import AbstractClientInterface
from repro.errors import ConfigurationError, StorageError
from repro.pfs.diskfile import MemoryBackedDiskDriver
from repro.units import KB, MB
from tests.conftest import make_memory_filesystem, run

INDEX = SegmentIndexConfig()


def make_layout(
    scheduler,
    simulated=False,
    disk_mb=8,
    segment_blocks=8,
    disks=1,
    index_config=INDEX,
):
    drivers = [
        MemoryBackedDiskDriver(scheduler, size_bytes=disk_mb * MB, name=f"d{i}")
        for i in range(disks)
    ]
    volume = LocalVolume(drivers, block_size=4 * KB)
    layout = LogStructuredLayout(
        scheduler,
        volume,
        block_size=4 * KB,
        segment_blocks=segment_blocks,
        simulated=simulated,
        index_config=index_config,
    )
    run(scheduler, layout.format)
    run(scheduler, layout.mount)
    return layout


def data_block(payload=b""):
    block = CacheBlock(0, 4 * KB, with_data=True)
    if payload:
        block.data[: len(payload)] = payload
    return block


# --------------------------------------------------------------------------- units


def test_bloom_has_no_false_negatives():
    bloom = BloomFilter(256)
    keys = [entry_key(i, i * 3, bool(i & 1)) for i in range(40)]
    for key in keys:
        bloom.add(key)
    assert all(bloom.may_contain(key) for key in keys)


def test_bloom_rejects_most_absent_keys():
    bloom = BloomFilter(8 * 64)
    for i in range(32):
        bloom.add(owner_key(i))
    misses = sum(not bloom.may_contain(owner_key(i)) for i in range(1000, 2000))
    assert misses > 900  # ~8 bits/key, 4 hashes: fp-rate ~2-3%


def test_bloom_bytes_round_trip():
    bloom = BloomFilter(200, num_hashes=3)
    for i in range(25):
        bloom.add(entry_key(i, i, False))
    clone = BloomFilter.from_bytes(bloom.to_bytes(), bloom.num_bits, bloom.num_hashes)
    assert clone.bits == bloom.bits
    assert all(clone.may_contain(entry_key(i, i, False)) for i in range(25))


def test_bloom_serialises_like_the_big_int_construction():
    """The on-disk bytes are those of the original one-integer filter
    (``bits |= 1 << pos``, little-endian): bit ``i`` in byte ``i >> 3``."""
    bloom = BloomFilter(203, num_hashes=4)
    reference = 0
    for i in range(60):
        key = entry_key(i % 7, i * 5, bool(i & 1)) if i % 3 else owner_key(i % 7)
        bloom.add(key)
        h2 = _mix(key) | 1
        for probe in range(4):
            reference |= 1 << ((key + probe * h2) % 203)
    assert bloom.bits == reference
    assert bloom.to_bytes() == reference.to_bytes((203 + 7) // 8, "little")
    assert BloomFilter.from_bytes(bloom.to_bytes(), 203, 4).to_bytes() == bloom.to_bytes()
    # A section of the wrong length is taken as far as it goes, never indexed past.
    assert BloomFilter.from_bytes(b"\xff" * 99, 203, 4).to_bytes()[-1] == 0xFF
    assert BloomFilter.from_bytes(b"\xff", 203, 4).may_contain(owner_key(1)) is False


def test_segment_index_adds_the_owner_key_once_per_run_of_one_owner():
    index = SegmentIndex(SegmentIndexConfig(), capacity=15)
    reference = BloomFilter(index.bloom.num_bits)
    for offset, owner in enumerate([4, 4, 4, 9, 4], start=1):
        index.add(owner, offset, False, offset)
        reference.add(entry_key(owner, offset, False))
        reference.add(owner_key(owner))
    assert index.bloom.to_bytes() == reference.to_bytes()


def test_segment_index_counters_and_sparse_samples():
    index = SegmentIndex(SegmentIndexConfig(sparse_every=2), capacity=15)
    for offset in range(1, 11):
        index.add(owner=7, logical_block=offset - 1, is_inode=False, offset=offset)
    assert index.entries == 10 and index.live == 10 and index.dead == 0
    # Entries 0, 2, 4, ... were sampled; each points at its exact offset.
    assert index.find(7, 0) == 1
    assert index.find(7, 2) == 3
    assert index.find(7, 1) is None  # unsampled, not absent
    assert index.may_contain(7, 1)
    assert index.may_contain_owner(7)
    for _ in range(4):
        index.kill()
    assert index.live == 6 and index.dead == 4
    assert index.utilisation == 6 / 15


def test_segment_index_rebuild_matches_incremental():
    entries = [(3, i, False) for i in range(6)] + [(4, 0, True)]
    incremental = SegmentIndex(INDEX, capacity=15)
    for offset, (owner, logical, is_inode) in enumerate(entries, start=1):
        incremental.add(owner, logical, is_inode, offset)
    rebuilt = SegmentIndex.rebuild(INDEX, 15, entries, live=5)
    assert rebuilt.bloom.bits == incremental.bloom.bits
    assert rebuilt.sparse == incremental.sparse
    assert rebuilt.entries == 7 and rebuilt.live == 5 and rebuilt.dead == 2


def test_utilisation_buckets_track_and_order():
    buckets = UtilisationBuckets(num_buckets=4)
    buckets.insert(0, live=0, capacity=8)   # bucket 0
    buckets.insert(1, live=7, capacity=8)   # bucket 3
    buckets.insert(2, live=3, capacity=8)   # bucket 1
    assert list(buckets.candidates(limit=2)) == [0, 2]
    assert list(buckets.candidates(limit=0)) == [0, 2, 1]
    buckets.update(1, live=1, capacity=8)   # 3 -> 0
    assert list(buckets.candidates(limit=3)) == [0, 1, 2]
    buckets.update(99, live=0, capacity=8)  # untracked: no-op
    buckets.remove(0)
    assert 0 not in buckets and len(buckets) == 2


def test_index_config_validation():
    with pytest.raises(ConfigurationError):
        SegmentIndexConfig(sparse_every=0)
    with pytest.raises(ConfigurationError):
        SegmentIndexConfig(bloom_bits=0)
    assert LayoutConfig(cleaner_candidates=9).index_config().cleaner_candidates == 9


# --------------------------------------------------------------------------- codec


def test_codec_segment_index_round_trip():
    index = SegmentIndex(INDEX, capacity=15)
    for offset in range(1, 9):
        index.add(5, offset - 1, False, offset)
    index.kill()
    packed = codec.pack_segment_index(
        index.entries, index.live, index.dead,
        index.bloom.num_bits, index.bloom.num_hashes, index.bloom.to_bytes(),
        INDEX.sparse_every, index.sparse,
    )
    decoded = codec.unpack_segment_index(packed)
    assert decoded is not None
    assert decoded["entries"] == 8 and decoded["live"] == 7 and decoded["dead"] == 1
    assert decoded["sparse_every"] == INDEX.sparse_every
    assert dict(decoded["sparse"]) == index.sparse
    clone = BloomFilter.from_bytes(
        decoded["bloom_bytes"], decoded["bloom_bits"], decoded["bloom_hashes"]
    )
    assert clone.bits == index.bloom.bits


def test_codec_index_absent_or_torn_returns_none():
    entries = [(1, 0, False), (1, 1, False)]
    summary = codec.pack_segment_summary(entries)
    # A legacy summary block carries no index section.
    assert codec.unpack_segment_index(summary, len(summary)) is None
    assert codec.unpack_segment_index(summary + bytes(64), len(summary)) is None
    index = SegmentIndex(INDEX, capacity=7)
    index.add(1, 0, False, 1)
    packed = codec.pack_segment_index(
        1, 1, 0, index.bloom.num_bits, index.bloom.num_hashes,
        index.bloom.to_bytes(), INDEX.sparse_every, index.sparse,
    )
    # Truncated mid-section: treated as absent, never an exception.
    assert codec.unpack_segment_index(packed[: len(packed) - 3]) is None
    # The summary decoder ignores a trailing index section.
    assert codec.unpack_segment_summary(summary + packed) == entries


# --------------------------------------------------------------------------- layout integration


def _write_file(scheduler, layout, blocks, payload_base=0):
    inode = layout.allocate_inode(FileKind.REGULAR)
    pairs = [
        (i, data_block(bytes([(payload_base + i) % 251]) * 32)) for i in range(blocks)
    ]
    run(scheduler, layout.write_file_blocks, inode, pairs)
    inode.size = blocks * 4 * KB
    return inode


class Slots:
    """Stand-in for the block cache under a layout-level read: the slots a
    file would hold, by block number.  Called with a block number it is the
    read-ahead offer — a fresh slot, or ``None`` for a block already held."""

    def __init__(self):
        self.blocks = {}

    def __call__(self, block_no):
        if block_no in self.blocks:
            return None
        self.blocks[block_no] = data_block()
        return self.blocks[block_no]

    def read(self, scheduler, layout, inode, *block_nos):
        """One client read of ``block_nos`` (read-ahead on offer)."""
        wanted = [(n, self.blocks.setdefault(n, data_block())) for n in block_nos]
        return run(scheduler, layout.read_file_blocks, inode, wanted, readahead=self)


def planned(layout, inode, *block_nos, readahead=True):
    """The planner's runs for one client read of ``block_nos``, and every
    block they fetch (requested + read-ahead)."""
    slots = {n: data_block() for n in block_nos}
    runs = layout._plan_read_runs(inode, slots, Slots() if readahead else None)
    return runs, sorted(slots)


def test_lazy_mount_defers_summary_reads(scheduler):
    layout = make_layout(scheduler, segment_blocks=8)
    for i in range(6):
        _write_file(scheduler, layout, blocks=5, payload_base=i)
    run(scheduler, layout.checkpoint)
    non_free = layout.num_segments - layout.free_segment_count

    remounted = LogStructuredLayout(
        scheduler, layout.volume, block_size=4 * KB, segment_blocks=8,
        index_config=INDEX,
    )
    run(scheduler, remounted.mount)
    # Mount reads the superblock and the checkpoint run — not one summary
    # block per non-free segment.
    assert non_free > 2
    assert remounted.stats.disk_reads == 2
    assert remounted.stats.lazy_summary_loads == 0
    assert len(remounted._unloaded) >= non_free - 1  # minus the new active

    # The first cleaner touch loads exactly that segment's summary (and its
    # persisted index, so nothing is rebuilt from entries).
    victim = remounted.cleaner_candidates()[0].index
    run(scheduler, remounted.clean_segment, victim)
    assert remounted.stats.lazy_summary_loads >= 1
    assert remounted.stats.index_reads >= 1


def test_cleaner_candidates_bounded_and_contain_greedy_choice(scheduler):
    layout = make_layout(
        scheduler,
        segment_blocks=8,
        index_config=SegmentIndexConfig(cleaner_candidates=4),
    )
    inodes = [_write_file(scheduler, layout, blocks=6, payload_base=i) for i in range(5)]
    # Kill most blocks of the first files to spread utilisation.
    for inode in inodes[:3]:
        run(scheduler, layout.release_blocks, inode, 1)
    candidates = layout.cleaner_candidates()
    full = layout.segment_infos()
    assert 0 < len(candidates) <= 4
    best = min(full, key=lambda info: (info.utilisation, info.index))
    assert best.index in {info.index for info in candidates}
    assert layout.stats.cleaner_candidate_scans == 1
    assert layout.stats.cleaner_candidates_considered == len(candidates)


def test_clean_segment_coalesces_reads_and_preserves_bytes(scheduler):
    layout = make_layout(scheduler, segment_blocks=8)
    inode = _write_file(scheduler, layout, blocks=12, payload_base=3)
    victim = layout.segment_of(inode.get_block_address(0))
    live_before = layout.segment_usage[victim]
    reads_before = layout.stats.disk_reads
    runs_before = layout.stats.cleaner_read_runs
    copied, _ = run(scheduler, layout.clean_segment, victim)
    assert copied > 1
    # Contiguous live blocks were fetched in runs, not one read per block.
    runs = layout.stats.cleaner_read_runs - runs_before
    assert 0 < runs < live_before
    assert layout.stats.disk_reads - reads_before < live_before + 4
    # The copied-forward bytes still read back intact.
    for i in range(12):
        block = data_block()
        assert run(scheduler, layout.read_file_blocks, inode, [(i, block)]) == 1
        assert bytes(block.data[:32]) == bytes([(3 + i) % 251]) * 32


def test_cold_reads_coalesce_into_runs(scheduler):
    layout = make_layout(scheduler, segment_blocks=8)
    inode = _write_file(scheduler, layout, blocks=10, payload_base=1)
    reads_before = layout.stats.disk_reads
    slots = Slots()
    for i in range(10):  # a sequential reader, one block per call
        if i not in slots.blocks:
            assert slots.read(scheduler, layout, inode, i) > 1
        assert bytes(slots.blocks[i].data[:32]) == bytes([(1 + i) % 251]) * 32
    assert layout.stats.cold_read_runs > 0
    assert layout.stats.cold_read_blocks_coalesced > 0
    # Strictly fewer disk reads than blocks: every block is read exactly once.
    assert layout.stats.blocks_read == 10
    assert (
        layout.stats.disk_reads - reads_before
        == 10 - layout.stats.cold_read_blocks_coalesced
    )


def test_overwritten_block_is_never_served_stale_from_staging(scheduler):
    """Read-ahead lands in cache slots keyed by (file, block): a block
    overwritten after it was read ahead is overwritten *in* its slot, and
    once evicted it is read from its new address."""
    fs, client, file = _cold_file(scheduler, blocks=4)
    cache = fs.cache

    def body():
        handle = yield from client.open("/f")
        # Reading block 0 brings blocks 1..3 of the run into the cache.
        yield from client.read(handle, 0, 4 * KB)
        cached = sorted(b.block_id.block_no for b in cache.cached_blocks_of(file.file_id))
        assert cached == [0, 1, 2, 3]
        # Overwrite block 1: its address moves to the log head.
        yield from client.write(handle, 4 * KB, b"fresh!")
        first = yield from client.read(handle, 4 * KB, 6)
        yield from client.fsync(handle)
        cache.invalidate_file(file.file_id)
        second = yield from client.read(handle, 4 * KB, 6)
        return first, second

    assert run(scheduler, body) == (b"fresh!", b"fresh!")


def _cold_file(scheduler, blocks, cache_blocks=64):
    """A memory file system holding ``/f`` — ``blocks`` blocks, block ``i``
    filled with byte ``i + 1`` — on disk and nowhere in the cache."""
    fs = make_memory_filesystem(
        scheduler, cache_blocks=cache_blocks, segment_blocks=32, index_config=INDEX
    )
    run(scheduler, fs.mount, True)
    client = AbstractClientInterface(fs, auto_materialize=False)

    def body():
        handle = yield from client.create("/f")
        yield from client.write(
            handle, 0, b"".join(bytes([i + 1]) * (4 * KB) for i in range(blocks))
        )
        yield from client.fsync(handle)
        yield from client.close(handle)
        return (yield from client.lookup("/f"))

    file = run(scheduler, body)
    fs.cache.invalidate_file(file.file_id)
    return fs, client, file


def test_a_block_read_ahead_is_the_cache_miss_it_was(scheduler):
    """Eight cold blocks (one run's worth) read in 8-KB calls: one disk
    read, and the cache still reports eight misses — a block that arrived
    with another block's read is counted when it is first referenced, as a
    miss for the cache and as a coalesced hit for the layout."""
    assert INDEX.read_coalesce_blocks == 8
    fs, client, file = _cold_file(scheduler, blocks=8)
    cache, layout = fs.cache, fs.layout
    hits, misses = cache.stats.hits, cache.stats.misses
    reads = layout.stats.disk_reads

    def body():
        handle = yield from client.open("/f")
        data = b""
        for offset in range(0, 8 * 4 * KB, 8 * KB):
            data += yield from client.read(handle, offset, 8 * KB)
        again = yield from client.read(handle, 0, 8 * KB)
        return data, again

    data, again = run(scheduler, body)
    assert data == b"".join(bytes([i + 1]) * (4 * KB) for i in range(8))
    assert again == data[: 8 * KB]
    assert layout.stats.disk_reads - reads == 1
    assert layout.stats.cold_read_blocks_coalesced == 7
    assert layout.stats.coalesced_read_hits == 7
    assert cache.stats.misses - misses == 8
    assert cache.stats.hits - hits == 2  # only the re-read hit the cache
    assert not any(block.read_ahead for block in cache.blocks())


def test_two_clients_missing_the_same_run_cost_one_disk_read(scheduler):
    fs, client, file = _cold_file(scheduler, blocks=8)
    reads = fs.layout.stats.disk_reads

    def reader(offset):
        handle = yield from client.open("/f")
        return (yield from client.read(handle, offset, 8 * KB))

    first = scheduler.spawn(reader, 0)
    second = scheduler.spawn(reader, 8 * KB)  # blocks 2-3: inside the first's run
    assert scheduler.run_until_complete(first) == b"\x01" * (4 * KB) + b"\x02" * (4 * KB)
    assert scheduler.run_until_complete(second) == b"\x03" * (4 * KB) + b"\x04" * (4 * KB)
    assert fs.layout.stats.disk_reads - reads == 1


def test_a_fill_that_fails_invalidates_every_placeholder_of_its_run(scheduler):
    """Today's single-block rule, for the whole group: nothing a failed
    read was filling stays behind as valid-looking data, and a client that
    waited on one of the placeholders retries (and here fails too)."""
    fs, client, file = _cold_file(scheduler, blocks=8)
    cache, volume = fs.cache, fs.layout.volume
    original = volume.read_run
    outcomes = []

    def failing_read_run(block_addr, nblocks=1):
        yield from scheduler.sleep(0.01)  # long enough for the waiter to queue
        raise StorageError("medium error")

    def reader(offset):
        handle = yield from client.open("/f")
        try:
            yield from client.read(handle, offset, 8 * KB)
        except StorageError as exc:
            outcomes.append(str(exc))

    volume.read_run = failing_read_run
    threads = [scheduler.spawn(reader, 0), scheduler.spawn(reader, 16 * KB)]
    for thread in threads:
        scheduler.run_until_complete(thread)
    del volume.read_run
    assert outcomes == ["medium error", "medium error"]
    assert cache.cached_blocks_of(file.file_id) == []

    def reread():
        handle = yield from client.open("/f")
        return (yield from client.read(handle, 0, 8 * 4 * KB))

    assert run(scheduler, reread) == b"".join(bytes([i + 1]) * (4 * KB) for i in range(8))


def test_cold_read_runs_through_the_inode_between_two_writebacks(scheduler):
    """A file written in two writebacks lies ``d0-3 i d4-7 i``: one disk
    read fetches all eight blocks, the interleaved inode fetched and
    discarded."""
    layout = make_layout(scheduler, segment_blocks=32)
    inode = layout.allocate_inode(FileKind.REGULAR)
    for first in (0, 4):
        pairs = [(first + i, data_block(bytes([first + i + 1]) * 32)) for i in range(4)]
        run(scheduler, layout.write_file_blocks, inode, pairs)
    inode.size = 8 * 4 * KB
    start = inode.get_block_address(0)
    offsets = [0, 1, 2, 3, 5, 6, 7, 8]
    assert [inode.get_block_address(i) - start for i in range(8)] == offsets
    whole_file = [(start, list(zip(offsets, range(8))))]
    assert planned(layout, inode, 0) == (whole_file, list(range(8)))
    # The same run whether the blocks are asked for or read ahead ...
    assert planned(layout, inode, *range(8), readahead=False)[0] == whole_file
    # ... and without an offer of slots nothing is read ahead.
    assert planned(layout, inode, 0, readahead=False) == ([(start, [(0, 0)])], [0])

    reads_before = layout.stats.disk_reads
    slots = Slots()
    assert slots.read(scheduler, layout, inode, 0) == 8
    assert layout.stats.disk_reads - reads_before == 1
    assert layout.stats.cold_read_blocks_coalesced == 7
    # The inode block in the gap was not handed to anybody as file data.
    assert sorted(slots.blocks) == list(range(8))
    for i in range(8):
        assert bytes(slots.blocks[i].data[:4]) == bytes([i + 1]) * 4

    # Overwrite block 5 (past the gap): it has left the run.
    run(scheduler, layout.write_file_blocks, inode, [(5, data_block(b"fresh!"))])
    assert planned(layout, inode, 0)[1] == [0, 1, 2, 3, 4]
    block = data_block()
    assert run(scheduler, layout.read_file_blocks, inode, [(5, block)]) == 1
    assert bytes(block.data[:6]) == b"fresh!"

    # A two-block gap is not read through, and the knob still bounds a run.
    other = layout.allocate_inode(FileKind.REGULAR)
    run(scheduler, layout.write_file_blocks, other, [(0, data_block(b"a"))])
    run(scheduler, layout.write_inode, other)
    run(scheduler, layout.write_file_blocks, other, [(1, data_block(b"b"))])
    other.size = 2 * 4 * KB
    first = other.get_block_address(0)
    assert other.get_block_address(1) == first + 3
    assert planned(layout, other, 0) == ([(first, [(0, 0)])], [0])
    assert planned(layout, other, 0, 1)[0] == [(first, [(0, 0)]), (first + 3, [(0, 1)])]
    layout.index_config = replace(INDEX, read_coalesce_blocks=3)
    assert planned(layout, inode, 0)[1] == [0, 1, 2]
    # Asked-for blocks past the bound start the next run, which reads ahead.
    runs, fetched = planned(layout, inode, 0, 1, 2, 3)
    assert [[n for _offset, n in members] for _start, members in runs] == [[0, 1, 2], [3, 4]]
    assert fetched == [0, 1, 2, 3, 4]


def test_cold_read_run_stops_short_of_blocks_whose_write_is_in_flight(scheduler):
    """A writeback's addresses are in the inode as soon as they are
    reserved; until its disk write lands read-ahead must not fetch what is
    at those addresses."""
    layout = make_layout(scheduler, segment_blocks=32)
    inode = layout.allocate_inode(FileKind.REGULAR)
    first = [(i, data_block(bytes([i + 1]) * 32)) for i in range(4)]
    run(scheduler, layout.write_file_blocks, inode, first)
    inode.size = 8 * 4 * KB
    start = inode.get_block_address(0)

    original = layout.volume.write_run
    seen = {}

    def stalled_write_run(block_addr, nblocks, data):
        # The second writeback is reserved — block 4 sits one past the first
        # writeback's inode — but its bytes are not on disk yet: read block 0.
        assert inode.get_block_address(4) == start + 5
        seen["planned"] = planned(layout, inode, 0)[1]
        slots = Slots()
        yield from layout.read_file_blocks(
            inode, [(0, slots.blocks.setdefault(0, data_block()))], readahead=slots
        )
        seen["fetched"] = sorted(slots.blocks)
        return (yield from original(block_addr, nblocks, data))

    layout.volume.write_run = stalled_write_run
    second = [(4 + i, data_block(bytes([5 + i]) * 32)) for i in range(4)]
    run(scheduler, layout.write_file_blocks, inode, second)
    del layout.volume.write_run
    assert seen == {"planned": [0, 1, 2, 3], "fetched": [0, 1, 2, 3]}
    assert not layout._unwritten

    # Once the write has landed the run reads through to it, correctly.
    assert planned(layout, inode, 0)[1] == list(range(8))
    slots = Slots()
    assert slots.read(scheduler, layout, inode, 0) == 8
    for i in range(8):
        assert bytes(slots.blocks[i].data[:4]) == bytes([i + 1]) * 4


@st.composite
def block_maps(draw):
    """A file's block map as the log leaves it — stretches of adjacent
    addresses, one-block gaps (an inode in between), longer gaps and jumps,
    also backwards — plus what one client read asks for and what it finds:
    reserved-but-unwritten addresses, blocks already cached, the bound."""
    steps = draw(
        st.lists(st.sampled_from([1, 1, 1, 1, 1, 1, 2, 2, 3, 9, -7, 40]), min_size=6, max_size=30)
    )
    address, addresses = draw(st.integers(1, 60)), []
    for step in steps:
        address = max(1, address + step)
        addresses.append(address)
    count = len(addresses)
    holes = draw(st.sets(st.integers(0, count - 1), max_size=2))
    block_map = {n: a for n, a in enumerate(addresses) if n not in holes}
    # One call's blocks: a short stretch of the file, sometimes one more.
    first = draw(st.integers(0, count - 1))
    wanted = set(range(first, min(first + draw(st.integers(1, 5)), count)))
    wanted |= draw(st.sets(st.integers(0, count - 1), max_size=1))
    others = st.sets(st.integers(0, count - 1).filter(lambda n: n not in wanted), max_size=3)
    unwritten = {block_map[n] for n in draw(others) if n in block_map}
    cached = draw(others)
    limit = draw(st.sampled_from([0, 1, 2, 3, 8, 8, 16]))
    size_blocks = draw(st.sampled_from([count, count, count, draw(st.integers(0, count))]))
    return block_map, wanted, unwritten, cached, limit, size_blocks


@settings(max_examples=300, deadline=None)
@given(case=block_maps())
def test_planned_runs_cover_the_read_once_and_respect_every_bound(case):
    block_map, wanted, unwritten, cached, limit, size_blocks = case
    scheduler = Scheduler(clock=VirtualClock(), seed=7)
    layout = make_layout(
        scheduler,
        segment_blocks=16,
        disk_mb=1,
        index_config=replace(INDEX, read_coalesce_blocks=limit),
    )
    inode = layout.allocate_inode(FileKind.REGULAR)
    inode.block_map = dict(block_map)
    inode.size = size_blocks * 4 * KB
    layout._unwritten = set(unwritten)
    slots = {n: data_block() for n in wanted}
    offered = []

    def offer(block_no):
        offered.append(block_no)
        return None if block_no in cached else data_block()

    runs = layout._plan_read_runs(inode, slots, offer)
    fetched = [n for _start, members in runs for _offset, n in members]
    ahead = sorted(set(slots) - wanted)
    # Exactly the requested blocks that have an address, plus the read-ahead
    # — each once, in file order.
    assert fetched == sorted(fetched) and len(set(fetched)) == len(fetched)
    assert set(fetched) == {n for n in wanted if n in block_map} | set(ahead)
    for start, members in runs:
        offsets = [offset for offset, _n in members]
        assert offsets[0] == 0
        assert all(0 < b - a <= 2 for a, b in zip(offsets, offsets[1:]))  # gaps of <= 1 block
        assert all(block_map[n] == start + offset for offset, n in members)
        assert len(members) <= max(limit, 1)
        segment = layout.segment_of(start)
        if segment < 0:
            assert len(members) == 1
        else:
            assert layout.segment_of(start + offsets[-1]) == segment
    # Read-ahead: the blocks right behind the last one asked for, inside the
    # file, on disk already, into slots the cache could spare — and only
    # blocks that were going to be fetched were asked a slot for.
    if ahead:
        last = max(n for n in wanted if n in block_map)
        assert ahead == list(range(last + 1, last + 1 + len(ahead)))
        assert ahead[-1] < size_blocks
        assert not {block_map[n] for n in ahead} & unwritten
        assert not set(ahead) & cached
        assert [n for _offset, n in runs[-1][1]][-len(ahead):] == ahead  # the last run, extended
    assert [n for n in offered if n not in cached] == ahead


def test_may_contain_inode_probe(scheduler):
    layout = make_layout(scheduler, segment_blocks=8)
    inode = _write_file(scheduler, layout, blocks=2)
    assert layout.may_contain_inode(inode.number)
    absent = sum(not layout.may_contain_inode(n) for n in range(50_000, 50_200))
    assert absent > 150  # blooms: almost all unknown inodes are rejected
    assert layout.stats.bloom_skips == absent


def test_pick_free_segment_matches_reference_scan(scheduler):
    layout = make_layout(scheduler, segment_blocks=8, disks=3, disk_mb=2)

    def reference(last_disk):
        free = layout.free_segments
        disks = layout._segment_disk
        best = min(free)
        other = [s for s in free if disks[s] != last_disk]
        return min(other) if other else best

    rng_segments = sorted(layout.free_segments)[:12]
    for segment in rng_segments:
        expected = reference(layout._last_disk)
        assert layout._pick_free_segment() == expected
        layout._activate_segment(expected)
    # Freeing pushes back into the heaps.
    freed = rng_segments[0]
    layout.free_segments.add(freed)
    layout._free_push(freed)
    assert layout._pick_free_segment() == reference(layout._last_disk)


def test_free_blocks_matches_recount(scheduler):
    layout = make_layout(scheduler, segment_blocks=8)
    inodes = [_write_file(scheduler, layout, blocks=4, payload_base=i) for i in range(4)]
    run(scheduler, layout.release_blocks, inodes[0], 0)
    per_segment = layout.segment_blocks - 1
    live = sum(layout.segment_usage[s] for s in range(layout.num_segments))
    recount = layout.free_segment_count * per_segment + max(
        0, (layout.num_segments - layout.free_segment_count) * per_segment - live
    )
    assert layout.free_blocks == recount
    assert layout._live_total == live


# --------------------------------------------------------------------------- whole stack


def _stack_spec(nodes=None):
    return StackSpec(
        cache=CacheConfig(size_bytes=64 * 4 * KB),
        flush=FlushConfig(policy="periodic"),
        layout=LayoutConfig(segment_size=16 * 4 * KB),
        cluster=ClusterConfig(nodes=nodes, rebalance=False) if nodes else None,
        seed=11,
    )


@pytest.mark.parametrize("nodes", [1, 4])
def test_stack_reads_back_written_bytes(nodes):
    spec = _stack_spec(nodes=nodes)
    stack = build_stack(spec, OnlineBinding(size_bytes=16 * MB * max(nodes, 1)))
    scheduler, client = stack.scheduler, stack.client
    run(scheduler, stack.fs.mount, True)
    payloads = {}

    def body():
        for i in range(8):
            path = f"/file{i}"
            data = bytes((i * 41 + j) % 256 for j in range(10 * KB))
            handle = yield from client.create(path)
            yield from client.write(handle, 0, data)
            yield from client.fsync(handle)
            yield from client.close(handle)
            payloads[path] = data
        # Overwrite half of an early file, then read everything back cold.
        handle = yield from client.open("/file0")
        rewrite = bytes(255 - b for b in payloads["/file0"][: 5 * KB])
        yield from client.write(handle, 0, rewrite)
        yield from client.fsync(handle)
        yield from client.close(handle)
        payloads["/file0"] = rewrite + payloads["/file0"][5 * KB :]
        yield from stack.fs.sync()

    run(scheduler, body)
    for path in payloads:
        file = run(scheduler, client.lookup, path)
        stack.cache.invalidate_file(file.file_id)
    contents = {
        path: run(scheduler, client.read_file, path, 0, len(payloads[path]))
        for path in payloads
    }
    assert contents == payloads


# --------------------------------------------------------------------------- the property test


@st.composite
def workload_steps(draw):
    return draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("write"), st.integers(0, 5), st.integers(1, 6)),
                st.tuples(st.just("release"), st.integers(0, 5), st.integers(0, 2)),
                st.tuples(st.just("clean"), st.integers(0, 63), st.just(0)),
                st.tuples(st.just("checkpoint"), st.just(0), st.just(0)),
                st.tuples(st.just("remount"), st.just(0), st.just(0)),
            ),
            min_size=4,
            max_size=24,
        )
    )


def _check_invariants(layout):
    capacity = layout.segment_blocks - 1
    for segment, entries in layout.segment_summaries.items():
        index = layout._indexes.get(segment)
        if index is None:
            continue
        for offset, (owner, logical, is_inode) in enumerate(entries, start=1):
            # Blooms: never a false negative.
            assert index.may_contain(owner, logical, is_inode)
            assert index.may_contain_owner(owner)
            found = index.find(owner, logical, is_inode)
            if found is not None and (owner, logical, is_inode) not in entries[offset:]:
                # A sparse sample points at the entry's last occurrence.
                assert entries[found - 1] == (owner, logical, is_inode)
        assert index.entries == len(entries)
        if segment != layout._active_segment:
            assert index.live == layout.segment_usage[segment]
    # Buckets: exactly the sealed, loaded-or-not, non-free segments.
    tracked = set(layout._buckets._where)
    expected = {
        s
        for s in range(layout.num_segments)
        if s not in layout.free_segments and s != layout._active_segment
    }
    assert tracked == expected
    for segment in tracked:
        assert layout._buckets._where[segment] == layout._buckets.bucket_of(
            layout.segment_usage[segment], capacity
        )
    # Incremental free accounting matches a recount.
    assert layout._live_total == sum(layout.segment_usage.values())
    heap_members = {s for heap in layout._free_heaps for s in heap}
    assert layout.free_segments <= heap_members  # heaps may hold stale extras


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(steps=workload_steps())
def test_index_invariants_hold_over_random_histories(steps):
    scheduler = Scheduler(clock=VirtualClock(), seed=7)
    layout = make_layout(scheduler, segment_blocks=8, disk_mb=4)
    inodes = {}
    for op, a, b in steps:
        if op == "write":
            if a not in inodes:
                inodes[a] = layout.allocate_inode(FileKind.REGULAR)
            inode = inodes[a]
            pairs = [(b + i, data_block(bytes([a + 1]) * 16)) for i in range(b)]
            if pairs:
                run(scheduler, layout.write_file_blocks, inode, pairs)
        elif op == "release" and a in inodes:
            run(scheduler, layout.release_blocks, inodes[a], b)
            run(scheduler, layout.write_inode, inodes[a])
        elif op == "clean":
            candidates = layout.cleaner_candidates()
            if candidates:
                victim = candidates[a % len(candidates)]
                run(scheduler, layout.clean_segment, victim.index)
        elif op == "checkpoint":
            run(scheduler, layout.checkpoint)
        elif op == "remount":
            run(scheduler, layout.checkpoint)
            layout = LogStructuredLayout(
                scheduler,
                layout.volume,
                block_size=4 * KB,
                segment_blocks=8,
                index_config=INDEX,
            )
            run(scheduler, layout.mount)
            inodes = {}  # in-core handles died with the old incarnation
        _check_invariants(layout)
