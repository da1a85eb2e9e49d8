"""The multi-volume storage array: placement, sharded cache, routed layout.

Covers the three layers added for the Sun 4/280 reproduction — placement
policies, the ShardedCache façade and the RoutedLayout — plus the contract
that a multi-volume array actually spreads traffic over its volumes.  (What a
one-volume array measures is pinned by ``tests/golden/single_volume_replay.json``.)
"""

from dataclasses import replace

import pytest

from repro.assembly.registry import registry
from repro.assembly.spec import StackSpec
from repro.config import (
    ArrayConfig,
    CacheConfig,
    FlushConfig,
    HostConfig,
    small_test_config,
    sun4_280_config,
)
from repro.core.cache import BlockCache
from repro.core.flush import ShardedFlushPolicy
from repro.core.inode import FileKind, ROOT_INODE_NUMBER
from repro.core.scheduler import Delay
from repro.core.storage.array import (
    HashPlacement,
    RoutedLayout,
    ShardedCache,
    StripedPlacement,
    VolumeSet,
)
from repro.core.storage.lfs import LogStructuredLayout
from repro.core.storage.volume import LocalVolume
from repro.errors import ConfigurationError
from repro.patsy.diskspec import HP97560
from repro.patsy.simulator import PatsySimulator
from repro.patsy.workload import WorkloadProfile, generate_workload
from repro.pfs.diskfile import MemoryBackedDiskDriver
from repro.units import KB, MB
from tests.conftest import record_write_runs, run, track_share_writes


# --------------------------------------------------------------------------- config


def test_array_config_validation():
    with pytest.raises(ConfigurationError):
        ArrayConfig(volumes=0)
    with pytest.raises(ConfigurationError):  # 2 disks, 4 volumes
        StackSpec(host=HostConfig(num_disks=2), array=ArrayConfig(volumes=4))
    with pytest.raises(ConfigurationError):
        ArrayConfig(placement="raid-z")
    with pytest.raises(ConfigurationError):
        HostConfig(num_buses=4, num_disks=2)  # more buses than disks


def test_array_config_disk_partition():
    spec = StackSpec(host=HostConfig(num_disks=10, num_buses=3), array=ArrayConfig(volumes=5))
    assert spec.num_disks == 10
    ranges = [spec.disks_of_volume(v) for v in range(5)]
    assert [len(r) for r in ranges] == [2, 2, 2, 2, 2]
    covered = [i for r in ranges for i in r]
    assert covered == list(range(10))
    # Uneven split: the first volumes absorb the spare disks.
    uneven = StackSpec(host=HostConfig(num_disks=10), array=ArrayConfig(volumes=3))
    assert [len(uneven.disks_of_volume(v)) for v in range(3)] == [4, 3, 3]
    # Buses are assigned round-robin by global disk index.
    assert [spec.bus_for_disk(i) for i in range(6)] == [0, 1, 2, 0, 1, 2]


def test_sun4_280_preset_matches_the_paper():
    config = sun4_280_config(scale=0.01)
    assert config.host.num_disks == 10
    assert config.host.num_buses == 3
    assert config.array.volumes == 5
    assert config.layout.kind == "lfs"
    disks = PatsySimulator(config).stack.disks
    assert len(disks) == 10 and all(disk.spec is HP97560 for disk in disks)


# --------------------------------------------------------------------------- placement


def test_hash_placement_is_deterministic_and_spreads():
    policy = HashPlacement(5)
    homes = {policy.home_for_new_file(2, f"file{i}", i) for i in range(64)}
    assert homes == set(range(5))  # 64 names cover all five volumes
    assert policy.home_for_new_file(2, "a", 0) == policy.home_for_new_file(2, "a", 99)
    # Block placement follows the home encoded in the inode number.
    assert policy.volume_for_block(ROOT_INODE_NUMBER + 3, 1000) == 3


def test_striped_placement_rotates_blocks():
    policy = StripedPlacement(4, stripe_unit=2)
    file_id = ROOT_INODE_NUMBER + 1  # home volume 1
    volumes = [policy.volume_for_block(file_id, block) for block in range(8)]
    assert volumes == [1, 1, 2, 2, 3, 3, 0, 0]
    assert policy.home_for_new_file(None, None, 7) == 3


def test_placement_policy_factory():
    assert isinstance(registry.create("placement", "hash", 3), HashPlacement)
    assert isinstance(registry.create("placement", "stripe", 3, stripe_unit=8), StripedPlacement)
    with pytest.raises(ConfigurationError):
        registry.create("placement", "nearest", 3)


# --------------------------------------------------------------------------- volume set


def test_volume_set_aggregates(scheduler):
    volumes = [
        LocalVolume([MemoryBackedDiskDriver(scheduler, size_bytes=2 * MB)], block_size=4 * KB)
        for _ in range(3)
    ]
    vset = VolumeSet(volumes)
    assert len(vset) == 3
    assert vset.total_blocks == sum(v.total_blocks for v in volumes)
    assert vset.num_disks == 3
    assert vset.block_size == 4 * KB
    run(scheduler, vset.flush)  # all queues idle: returns immediately


# --------------------------------------------------------------------------- sharded cache


def make_sharded(scheduler, shards=2, blocks_per_shard=8):
    config = CacheConfig(size_bytes=blocks_per_shard * 4 * KB)
    caches = [BlockCache(scheduler, config, with_data=False) for _ in range(shards)]
    cache = ShardedCache(caches, router=lambda file_id, block_no: file_id % shards)
    written = []

    def writeback(batch):
        for file_id, block_nos in batch:
            written.append((file_id, tuple(block_nos)))
        yield Delay(0.001)

    cache.writeback = writeback
    return cache, caches, written


def test_sharded_cache_routes_by_file(scheduler):
    cache, shards, _ = make_sharded(scheduler, shards=2)

    def body():
        block_even = yield from cache.allocate(4, 0)
        block_odd = yield from cache.allocate(5, 0)
        yield from cache.mark_dirty(block_odd)
        return block_even, block_odd

    run(scheduler, body)
    assert shards[0].contains(4, 0) and not shards[1].contains(4, 0)
    assert shards[1].contains(5, 0) and not shards[0].contains(5, 0)
    assert cache.contains(4, 0) and cache.contains(5, 0)
    assert cache.dirty_count == 1 and shards[1].dirty_count == 1
    assert cache.cached_count == 2
    assert cache.num_blocks == 16 and cache.free_count == 14


def test_sharded_cache_aggregate_statistics(scheduler):
    cache, shards, _ = make_sharded(scheduler, shards=2)

    def body():
        yield from cache.allocate(4, 0)
        yield from cache.allocate(5, 0)

    run(scheduler, body)
    cache.lookup(4, 0)  # hit on shard 0
    cache.lookup(5, 0)  # hit on shard 1
    cache.lookup(6, 9)  # miss on shard 0
    snapshot = cache.stats.snapshot()
    assert snapshot["lookups"] == 3
    assert snapshot["hits"] == 2
    assert snapshot["hit_rate"] == pytest.approx(2 / 3)
    assert cache.stats.allocations == 2


def test_sharded_cache_whole_file_operations_fan_out(scheduler):
    cache, shards, written = make_sharded(scheduler, shards=2)

    def body():
        # file 4 routes to shard 0, file 5 to shard 1; dirty both.
        for file_id in (4, 5):
            for block_no in range(2):
                block = yield from cache.allocate(file_id, block_no)
                yield from cache.mark_dirty(block)
        flushed = yield from cache.flush_all()
        return flushed

    flushed = run(scheduler, body)
    assert flushed == 4
    assert cache.dirty_count == 0
    assert {file_id for file_id, _ in written} == {4, 5}


def test_sharded_cache_invalidate_file_spans_shards(scheduler):
    # A block-striped router: blocks of one file alternate between shards.
    config = CacheConfig(size_bytes=8 * 4 * KB)
    shards = [BlockCache(scheduler, config, with_data=False) for _ in range(2)]
    cache = ShardedCache(shards, router=lambda file_id, block_no: block_no % 2)

    def body():
        for block_no in range(4):
            block = yield from cache.allocate(7, block_no)
            if block_no < 2:
                yield from cache.mark_dirty(block)

    run(scheduler, body)
    assert shards[0].cached_count == 2 and shards[1].cached_count == 2
    clean, dirty = cache.invalidate_file(7)
    assert (clean, dirty) == (2, 2)
    assert cache.cached_count == 0


def test_an_allocation_that_waited_goes_where_its_file_moved(scheduler):
    """A migration can flip a file's home while an allocation of its block
    waits for space: the slot ends up in the shard the file routes to now,
    not the one it waited in.  An allocation that never waited routes once."""
    homes, routed = {}, []

    def router(file_id, block_no):
        routed.append(file_id)
        return homes.get(file_id, 0)

    config = CacheConfig(size_bytes=8 * 4 * KB)
    shards = [BlockCache(scheduler, config, with_data=False) for _ in range(2)]
    cache = ShardedCache(shards, router=router)

    def writeback(batch):
        yield Delay(0.001)

    cache.writeback = writeback

    def fill():  # shard 0 full of dirty blocks: the next allocation there waits
        for block_no in range(8):
            block = yield from cache.allocate(4, block_no)
            yield from cache.mark_dirty(block)

    run(scheduler, fill)
    assert routed == [4] * 8 and shards[0].stats.allocation_stalls == 0

    def migrate():
        yield Delay(0.0005)  # while the allocation below waits for its flush
        homes[6] = 1

    scheduler.spawn(migrate)
    block = run(scheduler, cache.allocate, 6, 0)
    assert shards[0].stats.allocation_stalls == 1
    assert block.owner is shards[1] and shards[1].contains(6, 0)
    assert not shards[0].contains(6, 0)


def test_sharded_cache_single_shard_is_a_passthrough(scheduler):
    cache, shards, _ = make_sharded(scheduler, shards=1)

    def body():
        block = yield from cache.allocate(7, 3)
        yield from cache.mark_dirty(block)

    run(scheduler, body)
    assert cache.shard_for(7, 3) is shards[0] and shards[0].contains(7, 3)
    assert cache.stats == shards[0].stats and cache.stats is not shards[0].stats


# --------------------------------------------------------------------------- routed layout


def make_routed(scheduler, volumes=2, placement=None, disk_mb=2, segment_blocks=8):
    vols = [
        LocalVolume([MemoryBackedDiskDriver(scheduler, size_bytes=disk_mb * MB)], block_size=4 * KB)
        for _ in range(volumes)
    ]
    subs = [
        LogStructuredLayout(
            scheduler,
            vol,
            block_size=4 * KB,
            segment_blocks=segment_blocks,
            simulated=False,
        )
        for vol in vols
    ]
    policy = placement if placement is not None else HashPlacement(volumes)
    layout = RoutedLayout(
        scheduler, VolumeSet(vols), subs, policy, block_size=4 * KB
    )
    run(scheduler, layout.format)
    run(scheduler, layout.mount)
    return layout


def data_block(scheduler, payload=b"x"):
    from repro.core.blocks import CacheBlock

    block = CacheBlock(0, 4 * KB, with_data=True)
    block.data[: len(payload)] = payload
    return block


def test_routed_layout_encodes_home_in_inode_number(scheduler):
    layout = make_routed(scheduler, volumes=3)
    root = layout.allocate_inode(FileKind.DIRECTORY)
    assert root.number == ROOT_INODE_NUMBER
    assert layout.home_of(root.number) == 0
    inodes = [
        layout.allocate_inode(FileKind.REGULAR, parent_id=root.number, name=f"f{i}")
        for i in range(12)
    ]
    numbers = {inode.number for inode in inodes}
    assert len(numbers) == 12  # globally unique despite three sub-layouts
    for inode in inodes:
        home = layout.home_of(inode.number)
        assert inode.number % 3 == (ROOT_INODE_NUMBER + home) % 3
        assert inode.number in layout.sublayouts[home].known_inode_numbers()
    assert sorted(numbers | {root.number}) == layout.known_inode_numbers()


def test_routed_layout_write_read_roundtrip(scheduler):
    layout = make_routed(scheduler, volumes=2)
    layout.allocate_inode(FileKind.DIRECTORY)  # the root
    inode = layout.allocate_inode(FileKind.REGULAR, parent_id=2, name="data")
    run(
        scheduler,
        layout.write_file_blocks,
        inode,
        [(i, data_block(scheduler, b"%d" % i)) for i in range(4)],
    )
    again = run(scheduler, layout.read_inode, inode.number)
    assert again.number == inode.number
    block = data_block(scheduler, b"")
    assert run(scheduler, layout.read_file_blocks, inode, [(2, block)]) == 1
    assert bytes(block.data[:1]) == b"2"


def record_runs(layout):
    """Log every ``write_run`` of a routed layout: volume -> [(addr, n)]."""
    return {v: record_write_runs(sub.volume) for v, sub in enumerate(layout.sublayouts)}


def test_routed_writeback_is_one_append_on_the_home_volume(scheduler):
    layout = make_routed(scheduler, volumes=2, segment_blocks=16)
    layout.allocate_inode(FileKind.DIRECTORY)  # the root
    inode = layout.allocate_inode(FileKind.REGULAR, parent_id=2, name="whole")
    home = layout.home_of(inode.number)
    runs = record_runs(layout)
    run(
        scheduler,
        layout.write_file_blocks,
        inode,
        [(i, data_block(scheduler, b"%d" % i)) for i in range(5)],
    )
    start = inode.get_block_address(0)
    assert runs[home] == [(start, 6)]  # five blocks + the inode at data_end
    assert runs[1 - home] == []
    assert layout.sublayouts[home].inode_map[inode.number] == (start + 5, 1)


def test_routed_striped_writeback_keeps_the_inode_on_the_home_volume(scheduler):
    """Non-home stripes are data-only appends; the home volume goes last so
    the inode riding its append maps every block just placed."""
    placement = StripedPlacement(2, stripe_unit=1)
    layout = make_routed(scheduler, volumes=2, placement=placement, segment_blocks=16)
    layout.allocate_inode(FileKind.DIRECTORY)  # the root
    inode = layout.allocate_inode(FileKind.REGULAR, parent_id=2, name="striped")
    home = layout.home_of(inode.number)
    other = 1 - home
    order = []
    for v, sub in enumerate(layout.sublayouts):
        original = sub.write_files

        def write_files(files, _v=v, _original=original):
            order.append((_v, [with_inode for _inode, _blocks, with_inode in files]))
            return _original(files)

        sub.write_files = write_files
    runs = record_runs(layout)
    run(
        scheduler,
        layout.write_file_blocks,
        inode,
        [(i, data_block(scheduler, b"%d" % i)) for i in range(6)],
    )
    assert order == [(other, [False]), (home, [True])]
    assert [n for _addr, n in runs[other]] == [3]
    assert [n for _addr, n in runs[home]] == [4]  # three stripes + the inode
    assert inode.number not in layout.sublayouts[other].inode_map
    # The persisted inode maps the blocks of *both* volumes.
    layout.sublayouts[home]._inode_objects.clear()
    assert run(scheduler, layout.read_inode, inode.number).block_map == inode.block_map

    # Blocks on the other volume only: the home still gets its inode.
    for log in runs.values():
        log.clear()
    stripe = [b for b in range(6) if placement.volume_for_block(inode.number, b) == other]
    run(
        scheduler,
        layout.write_file_blocks,
        inode,
        [(b, data_block(scheduler, b"v2")) for b in stripe],
    )
    assert [n for _addr, n in runs[other]] == [3]
    assert [n for _addr, n in runs[home]] == [1]


def test_routed_writeback_keeps_fault_drops_and_slow_disk_delays(scheduler):
    layout = make_routed(scheduler, volumes=2, segment_blocks=16)
    faults = layout.faults  # a hand-assembled router carries its own inert board
    assert not faults.active
    layout.allocate_inode(FileKind.DIRECTORY)  # the root
    inode = layout.allocate_inode(FileKind.REGULAR, parent_id=2, name="f")
    home = layout.home_of(inode.number)
    blocks = [(i, data_block(scheduler)) for i in range(3)]
    runs = record_runs(layout)

    faults.slow_volume(home, 0.25)
    before = scheduler.now
    run(scheduler, layout.write_file_blocks, inode, blocks)
    assert scheduler.now - before >= 0.25  # charged once, on the block path
    assert [n for _addr, n in runs[home]] == [4]

    faults.heal_volume_speed(home)
    faults.kill_volume(home)
    runs[home].clear()
    run(scheduler, layout.write_file_blocks, inode, blocks)
    assert runs[home] == []  # blocks and inode dropped together
    assert faults.dropped_writes_by_node == {0: 3}


def test_routed_layout_striped_release_frees_every_volume(scheduler):
    placement = StripedPlacement(2, stripe_unit=1)
    layout = make_routed(scheduler, volumes=2, placement=placement)
    layout.allocate_inode(FileKind.DIRECTORY)  # the root
    inode = layout.allocate_inode(FileKind.REGULAR, parent_id=2, name="striped")
    run(
        scheduler,
        layout.write_file_blocks,
        inode,
        [(i, data_block(scheduler)) for i in range(6)],
    )
    # Blocks alternate volumes: both sub-layouts hold live data.
    live_before = [
        sum(sub.segment_usage) for sub in layout.sublayouts
    ]
    assert all(live > 0 for live in live_before)
    run(scheduler, layout.release_blocks, inode, 0)
    assert inode.block_map == {}
    live_after = [sum(sub.segment_usage) for sub in layout.sublayouts]
    # Releasing through the router freed the data on *both* volumes.
    assert all(after < before for after, before in zip(live_after, live_before))


def test_routed_layout_free_inode_routes_home(scheduler):
    layout = make_routed(scheduler, volumes=2)
    layout.allocate_inode(FileKind.DIRECTORY)
    inode = layout.allocate_inode(FileKind.REGULAR, parent_id=2, name="doomed")
    run(scheduler, layout.write_file_blocks, inode, [(0, data_block(scheduler))])
    home = layout.home_of(inode.number)
    assert inode.number in layout.sublayouts[home].inode_map
    run(scheduler, layout.free_inode, inode)
    assert inode.number not in layout.sublayouts[home].inode_map


def test_routed_layout_free_blocks_sums_volumes(scheduler):
    layout = make_routed(scheduler, volumes=2)
    assert layout.free_blocks == sum(sub.free_blocks for sub in layout.sublayouts)
    assert 0.0 < layout.free_segment_fraction <= 1.0


# --------------------------------------------------------------------------- sharded flush


def test_sharded_flush_policy_splits_nvram_budget(scheduler):
    config = CacheConfig(size_bytes=8 * 4 * KB)
    shards = [BlockCache(scheduler, config, with_data=False) for _ in range(2)]
    cache = ShardedCache(shards, router=lambda f, b: f % 2)
    policy = ShardedFlushPolicy(FlushConfig(policy="nvram", nvram_bytes=8 * 4 * KB))
    policy.attach(cache, scheduler)
    # One policy per node shard, its daemons on that node; the 8-block
    # NVRAM is split 4 + 4 over the two nodes' memories.
    assert [child.cache for child in policy.children] == shards
    assert [child.node for child in policy.children] == [0, 1]
    assert shards[0].dirty_limit_bytes == 4 * 4 * KB
    assert shards[1].dirty_limit_bytes == 4 * 4 * KB


# --------------------------------------------------------------------------- end to end


def array_trace(seed=3, duration=120.0):
    profile = WorkloadProfile(
        name="array-e2e",
        duration=duration,
        num_clients=4,
        initial_files=30,
        directory_count=10,
    )
    return generate_workload(profile, seed=seed)


@pytest.mark.parametrize("placement", ["hash", "stripe"])
def test_multi_volume_array_replays_and_spreads(placement):
    base = small_test_config()
    config = replace(
        base,
        cache=replace(base.cache, size_bytes=192 * 4 * KB),
        host=replace(base.host, num_disks=4, num_buses=2),
        array=ArrayConfig(volumes=3, placement=placement),
    )
    simulator = PatsySimulator(config)
    if placement == "stripe":
        simulator.stack.placement.inner.stripe_unit = 4
    result = simulator.replay(array_trace(seed=5), trace_name=placement)
    assert result.errors == 0
    per_volume = result.volume_stats["per_volume"]
    assert set(per_volume) == {"vol0", "vol1", "vol2"}
    # Volumes report their disks and logs; the one cache and its flush
    # policy report in the rollup.
    assert all(set(entry) == {"disks", "layout"} for entry in per_volume.values())
    assert "policy_flushes" in result.volume_stats["rollup"]["flush"]
    writes = [per_volume[f"vol{v}"]["layout"]["blocks_written"] for v in range(3)]
    busy = sum(1 for w in writes if w > 0)
    assert busy >= 2, f"placement {placement} left the array lopsided: {writes}"
    rollup = result.volume_stats["rollup"]
    assert rollup["placement"] == placement
    assert rollup["disk_operations"] > 0


def test_sun4_280_preset_runs_with_per_volume_stats():
    config = sun4_280_config(scale=0.002, seed=1)
    result = PatsySimulator(config).replay(array_trace(seed=1), trace_name="sun4")
    assert result.errors == 0
    assert len(result.volume_stats["per_volume"]) == 5
    from repro.analysis.report import format_volume_table

    table = format_volume_table(result.volume_stats)
    assert "vol0" in table and "vol4" in table
    assert "placement=stripe" in table


def test_a_disk_of_a_single_machine_can_fail():
    """Every stack carries a fault board, so the plain five-volume array can
    lose a disk: reads homed there fail (nothing keeps a copy) and are
    counted as errors, every other file reads clean."""
    from repro.core.faults import FaultEvent
    from repro.errors import DataUnavailable
    from repro.patsy.traces import TraceRecord

    dead = 3
    simulator = PatsySimulator(sun4_280_config(scale=0.02))
    simulator.inject_faults([FaultEvent(time=1.0, kind="disk_fail", target=dead)])
    # Cold reads of files that existed before the trace, after the failure.
    paths = [f"/cold{i}" for i in range(30)]
    records = [
        TraceRecord(2.0 + 0.1 * i, i % 4, "read", path, 0, 8192)
        for i, path in enumerate(paths)
    ]
    result = simulator.replay(records, trace_name="disk-fail")
    scheduler = simulator.scheduler
    homes = {
        path: simulator.layout.home_of(run(scheduler, simulator.client.lookup, path).file_id)
        for path in paths
    }
    lost = [path for path in paths if homes[path] == dead]
    assert 0 < len(lost) < len(paths)
    assert result.errors == len(lost) and result.operations == len(paths)
    assert simulator.cluster.faults.dead_volumes == {dead}
    assert not result.cluster_stats  # still one machine: nothing per node to report
    for path in paths:
        if path in lost:
            with pytest.raises(DataUnavailable, match="keeps no replicas"):
                run(scheduler, simulator.client.read_file, path, 0, 4096)
        else:
            run(scheduler, simulator.client.read_file, path, 0, 4096)


def test_a_read_spanning_two_volumes_has_both_reads_outstanding_at_once(scheduler):
    """One client read of a striped file is one layout call: the router
    groups the blocks by volume and every group's disk read is in flight
    together — and a sub-layout never reads ahead into another volume's
    blocks, whose addresses in the shared inode are not its own."""
    layout = make_routed(
        scheduler,
        volumes=2,
        placement=StripedPlacement(2, stripe_unit=2),
        segment_blocks=16,
    )
    layout.allocate_inode(FileKind.DIRECTORY)  # the root
    inode = layout.allocate_inode(FileKind.REGULAR, parent_id=2, name="striped")
    pairs = [(i, data_block(scheduler, bytes([i + 1]) * 8)) for i in range(8)]
    run(scheduler, layout.write_file_blocks, inode, pairs)
    inode.size = 8 * 4 * KB
    assert {layout.placement.volume_for_block(inode.number, i) for i in (1, 2)} == {0, 1}

    in_flight = []
    peak = []
    for index, sub in enumerate(layout.sublayouts):
        def read_run(block_addr, nblocks=1, index=index, original=sub.volume.read_run):
            in_flight.append(index)
            peak.append(sorted(in_flight))
            try:
                return (yield from original(block_addr, nblocks))
            finally:
                in_flight.remove(index)

        sub.volume.read_run = read_run

    slots = {i: data_block(scheduler, b"") for i in (1, 2)}
    offered = []

    def offer(block_no):
        offered.append(block_no)
        return slots.setdefault(block_no, data_block(scheduler, b""))

    count = run(scheduler, layout.read_file_blocks, inode, list(slots.items()), readahead=offer)
    assert [0, 1] in peak  # both volumes' reads were outstanding together
    assert len(peak) == 2  # one disk read per volume
    # Block 1 ends its stripe unit: nothing to run on into on that volume.
    # Block 2 starts one: block 3 is next to it on the same volume.
    assert offered == [3] and count == 3
    for i in (1, 2, 3):
        assert bytes(slots[i].data[:8]) == bytes([i + 1]) * 8


# --------------------------------------------------------------------------- every volume at once


def test_a_sync_of_five_volumes_takes_the_slowest_volume_not_the_sum():
    """One dirty file per volume of the Sun 4/280 array: every shard
    flushes at once, so the sync lasts about as long as its slowest volume's
    append, not as long as the five appends one after another.  The premise
    is one whole file per volume, so the array places whole files."""

    def sync_time(dirty_volumes):
        simulator = PatsySimulator(sun4_280_config(scale=0.02, placement="hash"))
        simulator.mount()
        client, fs = simulator.client, simulator.fs

        def body():
            handles, created = {}, 0
            while len(handles) < 5:  # the first file homed on each volume
                handle = yield from client.create(f"/f{created}")
                created += 1
                file_id = fs.file_table.get_handle(handle).file.file_id
                handles.setdefault(simulator.layout.home_of(file_id), handle)
            yield from fs.sync()  # the files exist: the next sync writes data
            for volume in dirty_volumes:
                yield from client.write(handles[volume], 0, length=256 * KB)
            start = simulator.scheduler.now
            yield from fs.sync()
            return simulator.scheduler.now - start

        return run(simulator.scheduler, body)

    alone = [sync_time([volume]) for volume in range(5)]
    together = sync_time(range(5))
    assert together <= 1.25 * max(alone)
    assert together < 0.5 * sum(alone)


def test_a_striped_writeback_issues_its_data_shares_together_then_the_inode(scheduler):
    """The data-only shares of a striped file are in flight together, and
    the home volume's append, which carries the inode, starts only once
    both have completed."""
    placement = StripedPlacement(3, stripe_unit=1)
    layout = make_routed(scheduler, volumes=3, placement=placement, segment_blocks=16)
    layout.allocate_inode(FileKind.DIRECTORY)  # the root
    inode = layout.allocate_inode(FileKind.REGULAR, parent_id=2, name="striped")
    home = layout.home_of(inode.number)
    first, second = sorted({0, 1, 2} - {home})
    events = track_share_writes(layout)
    run(scheduler, layout.write_file_blocks, inode, [(i, data_block(scheduler)) for i in range(6)])
    assert events[:2] == [("start", first), ("start", second)]
    assert sorted(events[2:4]) == [("end", first), ("end", second)]
    assert events[4:] == [("start", home), ("end", home)]
