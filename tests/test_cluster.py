"""The cluster tier: Volume protocol, network volumes, skew rebalancing.

The contracts pinned here:

* a one-node cluster is byte-identical to the bare array stack,
* block I/O to a remote node's volume pays for the network (NIC queueing,
  bandwidth, latency) with charged time,
* migration moves a file's home volume online and reads stay
  byte-identical afterwards (real-bytes world),
* the skew monitor's migration schedule is a pure function of seed and
  workload: same seed + same skew ⇒ the identical schedule.
"""

from dataclasses import replace

import pytest

from repro.assembly.bindings import OnlineBinding, SimulatedBinding
from repro.assembly.builder import build_stack
from repro.assembly.registry import registry
from repro.assembly.spec import StackSpec
from repro.config import (
    ArrayConfig,
    HostConfig,
    CacheConfig,
    ClusterConfig,
    FlushConfig,
    LayoutConfig,
    cluster_config,
    small_test_config,
)
from repro.core.cluster import ClusterPlacement, Nic, RemoteVolume
from repro.core.cluster.rebalance import ClusterRebalancer
from repro.core.inode import ROOT_INODE_NUMBER
from repro.core.storage.array import HashPlacement, StripedPlacement
from repro.core.storage.volume import LocalVolume, Volume
from repro.errors import ConfigurationError, StorageError
from repro.patsy.simulator import PatsySimulator
from repro.patsy.workload import WorkloadProfile, generate_workload
from repro.pfs.diskfile import MemoryBackedDiskDriver
from repro.units import KB, MB
from tests.conftest import run, track_share_writes


# --------------------------------------------------------------------------- config & spec


def test_cluster_config_validation():
    with pytest.raises(ConfigurationError):
        ClusterConfig(nodes=0)
    with pytest.raises(ConfigurationError):
        ClusterConfig(imbalance_threshold=0.5)
    with pytest.raises(ConfigurationError):
        ClusterConfig(rebalance_interval=0)
    with pytest.raises(ConfigurationError):
        ClusterConfig(wal_commit_records=0)
    with pytest.raises(ConfigurationError):
        ClusterConfig(wal_commit_bytes=0)
    with pytest.raises(ConfigurationError):
        ClusterConfig(metadata_latency=-0.1)
    with pytest.raises(ConfigurationError):
        ClusterConfig(metadata_bandwidth=-1)


def test_spec_cluster_topology_helpers():
    spec = StackSpec(
        host=HostConfig(num_disks=4, num_buses=2),
        array=ArrayConfig(volumes=2),
        cluster=ClusterConfig(nodes=3),
    )
    assert spec.num_nodes == 3
    assert spec.volumes_per_node == 2 and spec.num_volumes == 6
    assert spec.disks_per_node == 4 and spec.num_disks == 12
    assert spec.host.num_buses == 2 and spec.num_buses == 6
    # Volume 3 is node 1's second volume: its disks live in node 1's slice.
    assert spec.node_of_volume(3) == 1
    assert list(spec.disks_of_volume(3)) == [6, 7]
    # Buses never span nodes: disk 5 (node 1, local disk 1) sits on bus 3.
    assert spec.node_of_disk(5) == 1
    assert spec.bus_for_disk(5) == 3
    # Round-trips through the manifest form with the cluster section.
    assert StackSpec.from_dict(spec.to_dict()) == spec


# --------------------------------------------------------------------------- network model


def test_nic_charges_serialisation_and_latency(scheduler):
    nic = Nic(scheduler, bandwidth=1 * MB, latency=0.001, overhead=0.0005)

    def send():
        started = scheduler.now
        yield from nic.send(1 * MB)
        return scheduler.now - started

    elapsed = run(scheduler, send)
    assert elapsed == pytest.approx(0.0005 + 1.0 + 0.001)
    assert nic.messages == 1 and nic.bytes_sent == 1 * MB
    assert nic.busy_time == pytest.approx(1.0005)


def test_nic_rejects_impossible_link_parameters(scheduler):
    with pytest.raises(ConfigurationError):
        Nic(scheduler, bandwidth=0)
    with pytest.raises(ConfigurationError):
        Nic(scheduler, latency=-0.1)


def test_nic_queues_concurrent_senders(scheduler):
    nic = Nic(scheduler, bandwidth=1 * MB, latency=0.0, overhead=0.0)
    finish_times = []

    def send():
        yield from nic.send(1 * MB)
        finish_times.append(scheduler.now)

    threads = [scheduler.spawn(send) for _ in range(3)]
    for thread in threads:
        scheduler.run_until_complete(thread)
    # The NIC is a capacity-1 resource: three 1-second messages serialise.
    assert sorted(finish_times) == pytest.approx([1.0, 2.0, 3.0])
    assert nic.utilisation(scheduler.now) == pytest.approx(1.0)


def test_remote_volume_charges_the_network_and_moves_bytes(scheduler):
    driver = MemoryBackedDiskDriver(scheduler, size_bytes=2 * MB)
    local = LocalVolume([driver], block_size=4 * KB)
    front = Nic(scheduler, name="front", bandwidth=10 * MB, latency=0.001, overhead=0.0)
    server = Nic(scheduler, name="server", bandwidth=10 * MB, latency=0.001, overhead=0.0)
    remote = RemoteVolume(local, scheduler, node=1, nics=[front, server])
    assert isinstance(remote, Volume)
    assert remote.total_blocks == local.total_blocks
    payload = bytes(range(256)) * 16  # one 4 KB block

    def body():
        yield from remote.write_block(5, payload)
        started = scheduler.now
        data = yield from remote.read_block(5)
        return data, scheduler.now - started

    data, elapsed = run(scheduler, body)
    assert data == payload
    # A read pays two propagation latencies plus the 4 KB response transfer.
    assert elapsed >= 0.002
    assert remote.remote_reads == 1 and remote.remote_writes == 1
    assert front.messages == 2 and server.messages == 2
    assert remote.bytes_over_wire > 8 * KB  # both payloads crossed the wire


# --------------------------------------------------------------------------- placement tier


def test_cluster_placement_routes_and_flips():
    placement = ClusterPlacement(HashPlacement(6), nodes=3, volumes_per_node=2)
    file_id = ROOT_INODE_NUMBER + 4  # native home: volume 4 (node 2)
    assert placement.volume_of_file(file_id) == 4
    assert placement.node_of_file(file_id) == 2
    assert list(placement.volumes_of_node(1)) == [2, 3]
    placement.flip(file_id, 1)
    assert placement.volume_of_file(file_id) == 1
    assert placement.volume_for_block(file_id, 123) == 1
    assert placement.displaced_files == 1
    # Flipping back to the native home drops the routing entry.
    placement.flip(file_id, 4)
    assert placement.displaced_files == 0
    placement.flip(file_id, 0)
    placement.forget(file_id)
    assert placement.volume_of_file(file_id) == 4
    with pytest.raises(ConfigurationError):
        placement.flip(file_id, 6)


def test_cluster_placement_striped_files_keep_entry_on_native_home():
    placement = ClusterPlacement(StripedPlacement(4, stripe_unit=1), 2, 2)
    file_id = ROOT_INODE_NUMBER + 1
    # Native striping rotates this file over all volumes.
    assert len({placement.volume_for_block(file_id, b) for b in range(4)}) == 4
    placement.flip(file_id, 1)
    # A migrated file is whole-file resident even under a striping policy.
    assert {placement.volume_for_block(file_id, b) for b in range(4)} == {1}
    assert placement.displaced_files == 1


def test_cluster_placement_rejects_mismatched_inner():
    with pytest.raises(ConfigurationError):
        ClusterPlacement(HashPlacement(5), nodes=2, volumes_per_node=2)


# --------------------------------------------------------------------------- build shapes


def cluster_spec(nodes=2, volumes_per_node=1, rebalance=False, **cluster_kwargs):
    base = small_test_config()
    return StackSpec(
        cache=replace(base.cache, size_bytes=128 * 4 * KB),
        flush=base.flush,
        layout=base.layout,
        host=replace(base.host, num_disks=volumes_per_node),
        array=ArrayConfig(volumes=volumes_per_node),
        cluster=ClusterConfig(nodes=nodes, rebalance=rebalance, **cluster_kwargs),
    )


def test_one_node_cluster_builds_no_network_or_rebalancer():
    stack = build_stack(cluster_spec(nodes=1), SimulatedBinding())
    assert stack.cluster is not None
    assert stack.cluster.nics == []
    assert stack.cluster.rebalancer is None
    assert stack.cluster.nodes[0].nic is None
    assert not stack.cluster.remote_volumes
    assert isinstance(stack.placement, ClusterPlacement)


def test_multi_node_cluster_wraps_remote_volumes():
    stack = build_stack(cluster_spec(nodes=3, rebalance=True), SimulatedBinding())
    topology = stack.cluster
    assert topology is not None and topology.num_nodes == 3
    assert len(topology.nics) == 3
    assert topology.rebalancer is not None
    # Node 0 is local; every other node's volume crossed into a RemoteVolume.
    assert set(topology.remote_volumes) == {1, 2}
    assert isinstance(stack.volume[0], LocalVolume)
    assert isinstance(stack.volume[1], RemoteVolume)
    # Each node owns its own disks and cache shard.
    for node in topology.nodes:
        assert len(node.drivers) == 1 and len(node.cache_shards) == 1


def test_volume_set_rejects_raw_block_io(scheduler):
    from repro.core.storage.array import VolumeSet

    vset = VolumeSet(
        [LocalVolume([MemoryBackedDiskDriver(scheduler, size_bytes=2 * MB)], block_size=4 * KB)]
    )
    with pytest.raises(StorageError):
        run(scheduler, vset.read_run, 0, 1)


# --------------------------------------------------------------------------- equivalence


def skewed_trace(seed=3, duration=120.0, directories=1, num_clients=4, mean_think_time=2.0):
    """All traffic lands in ``directories`` directories."""
    profile = WorkloadProfile(
        name="cluster-skew",
        duration=duration,
        num_clients=num_clients,
        mean_think_time=mean_think_time,
        initial_files=40,
        directory_count=directories,
        read_fraction=0.7,
        stat_fraction=1.0,
        stat_burst=1,
        hot_read_fraction=0.6,
        hot_set_size=10,
    )
    return generate_workload(profile, seed=seed)


def test_multi_node_replay_spreads_traffic_and_reports():
    config = cluster_config(
        nodes=2, scale=0.002, volumes_per_node=1, disks_per_node=1, placement="hash",
        rebalance=False,
    )
    result = PatsySimulator(config).replay(skewed_trace(directories=8), trace_name="c")
    assert result.errors == 0
    stats = result.cluster_stats
    assert stats["nodes"] == 2
    node1 = stats["per_node"]["node1"]
    assert node1["remote_io"]["remote_reads"] + node1["remote_io"]["remote_writes"] > 0
    assert node1["nic"]["messages"] > 0
    assert node1["disk_operations"] > 0  # the remote spindle really served I/O
    from repro.analysis.report import format_cluster_table

    table = format_cluster_table(stats)
    assert "node0" in table and "node1" in table
    assert "placement=hash" in table


# --------------------------------------------------------------------------- migration


def build_online_cluster(nodes=2):
    spec = StackSpec(
        cache=CacheConfig(size_bytes=256 * 4 * KB),
        flush=FlushConfig(policy="periodic"),
        layout=LayoutConfig(segment_size=16 * 4 * KB),
        cluster=ClusterConfig(nodes=nodes, rebalance=False),
    )
    stack = build_stack(spec, OnlineBinding(size_bytes=16 * MB * nodes))
    thread = stack.scheduler.spawn(stack.fs.mount, True)
    stack.scheduler.run_until_complete(thread)
    return stack


def test_migration_keeps_reads_byte_identical_with_real_bytes():
    stack = build_online_cluster(nodes=2)
    scheduler = stack.scheduler
    client = stack.client
    payload = bytes(range(256)) * 96  # 24 KB, six blocks

    def setup():
        handle = yield from client.create("/data.bin")
        yield from client.write(handle, 0, payload)
        yield from client.fsync(handle)
        yield from client.close(handle)
        file = yield from client.lookup("/data.bin")
        return file.file_id

    file_id = run(scheduler, setup)
    placement = stack.cluster.placement
    old_home = placement.volume_of_file(file_id)
    new_home = 1 - old_home
    rebalancer = ClusterRebalancer(stack.fs, placement, stack.spec.cluster, metadata=stack.metadata)
    moved = run(scheduler, rebalancer.migrate_file, file_id, new_home)
    assert moved and placement.volume_of_file(file_id) == new_home
    assert rebalancer.blocks_copied >= 6

    def read_all():
        return (yield from client.read_file("/data.bin", 0, len(payload)))

    # Served from the copy-forwarded cache blocks.
    assert run(scheduler, read_all) == payload
    # And from the new volume's disk after dropping the cache.
    run(scheduler, stack.fs.sync)
    stack.cache.invalidate_file(file_id)
    assert run(scheduler, read_all) == payload
    # The old home no longer knows the inode; the new one does.
    assert file_id not in stack.layout.sublayouts[old_home].inode_map
    assert file_id in stack.layout.sublayouts[new_home].inode_map


def _online_file(stack, payload, path="/data.bin"):
    client = stack.client

    def setup():
        handle = yield from client.create(path)
        yield from client.write(handle, 0, payload)
        yield from client.fsync(handle)
        yield from client.close(handle)
        file = yield from client.lookup(path)
        return file.file_id

    return run(stack.scheduler, setup)


def test_migration_lands_uncached_blocks_straight_in_the_new_homes_shard():
    """A block the cache does not hold is read from the old volume into its
    landing slot in the *new* home's shard: the shard being relieved gives
    up no slot to the migration (real bytes, so the copy is checked)."""
    stack = build_online_cluster(nodes=2)
    scheduler, client = stack.scheduler, stack.client
    payload = bytes(range(256)) * 96  # 24 KB, six blocks
    file_id = _online_file(stack, payload)
    placement = stack.cluster.placement
    old_home = placement.volume_of_file(file_id)
    new_home = 1 - old_home
    run(scheduler, stack.fs.sync)
    stack.cache.invalidate_file(file_id)
    # Two of the six blocks are cached again (one of them rewritten and
    # still dirty); the other four exist only on the old volume.
    patch = b"\xee" * (4 * KB)
    expected = payload[: 2 * 4 * KB] + patch + payload[3 * 4 * KB :]

    def touch():
        handle = yield from client.open("/data.bin")
        yield from client.read(handle, 0, 4 * KB)
        yield from client.write(handle, 2 * 4 * KB, patch)
        yield from client.close(handle)

    run(scheduler, touch)
    old_shard = stack.cache.shards[old_home]
    allocations_before = old_shard.stats.allocations
    rebalancer = ClusterRebalancer(stack.fs, placement, stack.spec.cluster, metadata=stack.metadata)
    assert run(scheduler, rebalancer.migrate_file, file_id, new_home)
    assert old_shard.stats.allocations == allocations_before
    assert old_shard.cached_blocks_of(file_id) == []
    assert rebalancer.blocks_copied == 6
    assert rebalancer.schedule[-1].blocks == 6

    def read_all():
        return (yield from client.read_file("/data.bin", 0, len(payload)))

    assert run(scheduler, read_all) == expected
    run(scheduler, stack.fs.sync)
    stack.cache.invalidate_file(file_id)
    assert run(scheduler, read_all) == expected


def test_migration_inside_a_node_keeps_its_blocks_and_across_nodes_lands_there():
    """A node's volumes share its cache shard: a move between two of them
    re-homes the very same cached blocks (no landing copies), a move to
    another node copies them into that node's shard.  Real bytes both ways."""
    stack = build_stack(cluster_spec(nodes=2, volumes_per_node=2), OnlineBinding(size_bytes=32 * MB))
    scheduler, client = stack.scheduler, stack.client
    run(scheduler, stack.fs.mount, True)
    payload = bytes(range(256)) * 96  # 24 KB, six blocks
    file_id = _online_file(stack, payload)
    placement = stack.cluster.placement
    home = placement.volume_of_file(file_id)
    node = placement.node_of_volume(home)
    shard = stack.cache.shards[node]
    blocks = {b.block_id.block_no: b for b in shard.cached_blocks_of(file_id)}
    assert sorted(blocks) == list(range(6))
    allocations = shard.stats.allocations
    rebalancer = ClusterRebalancer(stack.fs, placement, stack.spec.cluster, metadata=stack.metadata)

    def read_all():
        return (yield from client.read_file("/data.bin", 0, len(payload)))

    neighbour = home ^ 1  # the other volume of the same node
    assert placement.node_of_volume(neighbour) == node
    assert run(scheduler, rebalancer.migrate_file, file_id, neighbour)
    assert placement.volume_of_file(file_id) == neighbour
    moved = shard.cached_blocks_of(file_id)
    assert len(moved) == 6 and all(b is blocks[b.block_id.block_no] for b in moved)
    assert shard.stats.allocations == allocations
    assert run(scheduler, read_all) == payload

    other = 1 - node
    far = placement.volumes_of_node(other)[0]
    assert run(scheduler, rebalancer.migrate_file, file_id, far)
    assert shard.cached_blocks_of(file_id) == []
    assert len(stack.cache.shards[other].cached_blocks_of(file_id)) == 6
    assert run(scheduler, read_all) == payload
    run(scheduler, stack.fs.sync)
    stack.cache.invalidate_file(file_id)
    assert run(scheduler, read_all) == payload


def test_a_node_crash_drops_only_that_nodes_cache_shard():
    from tests.test_replication import build_online, kill, populate, replica_spec

    stack = build_online(replica_spec(nodes=2, volumes_per_node=2, replicas=0))
    populate(stack)
    survivor, crashed = stack.cache.shards
    kept = list(survivor.blocks())
    assert kept and list(crashed.blocks())
    kill(stack, "node_crash", 1)
    assert list(survivor.blocks()) == kept
    assert [b for b in crashed.blocks() if b.block_id is not None] == []


def test_migration_pays_the_old_bytes_a_partial_write_owes_before_the_flip():
    """A block a write changed in part owes old bytes that sit at the old
    home's addresses, which the flip drops: they are read in first (real
    bytes, so a hole would read back as zeros)."""
    stack = build_online_cluster(nodes=2)
    scheduler, client = stack.scheduler, stack.client
    payload = bytes(range(256)) * 96  # 24 KB, six blocks
    file_id = _online_file(stack, payload)
    placement = stack.cluster.placement
    new_home = 1 - placement.volume_of_file(file_id)
    run(scheduler, stack.fs.sync)
    stack.cache.invalidate_file(file_id)
    offset, patch = 2 * 4 * KB + 100, b"\xee" * 200
    run(scheduler, client.write_file, "/data.bin", offset, patch)
    assert stack.cache.peek(file_id, 2).owed == (100, 300, 4 * KB)
    rebalancer = ClusterRebalancer(stack.fs, placement, stack.spec.cluster, metadata=stack.metadata)
    assert run(scheduler, rebalancer.migrate_file, file_id, new_home)
    expected = payload[:offset] + patch + payload[offset + len(patch) :]

    def read_all():
        return (yield from client.read_file("/data.bin", 0, len(payload)))

    assert run(scheduler, read_all) == expected
    run(scheduler, stack.fs.sync)
    stack.cache.invalidate_file(file_id)
    assert run(scheduler, read_all) == expected


def test_migration_rereads_a_block_rewritten_while_it_was_being_pulled():
    """The straight-from-disk copy is good only while the inode still maps
    the block to the address it was read from."""
    stack = build_online_cluster(nodes=2)
    scheduler, client = stack.scheduler, stack.client
    payload = bytes(range(256)) * 32  # 8 KB, two blocks
    file_id = _online_file(stack, payload)
    placement = stack.cluster.placement
    new_home = 1 - placement.volume_of_file(file_id)
    run(scheduler, stack.fs.sync)
    stack.cache.invalidate_file(file_id)
    patch = b"\x5a" * (4 * KB)

    def rewrite_and_drop():
        # Block 0 gets new bytes, reaches the old volume at a new address
        # and leaves the cache again.
        handle = yield from client.open("/data.bin")
        yield from client.write(handle, 0, patch)
        yield from client.fsync(handle)
        yield from client.close(handle)
        stack.cache.invalidate_file(file_id)

    layout = stack.layout
    original_read = layout.read_file_blocks
    reads = []

    def read_then_rewrite(inode, blocks, **kwargs):
        result = yield from original_read(inode, blocks, **kwargs)
        reads.append([block_no for block_no, _block in blocks])
        if len(reads) == 1:  # right behind the rebalancer's first disk read
            yield from rewrite_and_drop()
        return result

    layout.read_file_blocks = read_then_rewrite
    rebalancer = ClusterRebalancer(stack.fs, placement, stack.spec.cluster, metadata=stack.metadata)
    try:
        assert run(scheduler, rebalancer.migrate_file, file_id, new_home)
    finally:
        del layout.read_file_blocks
    # One read pulls the whole file; block 0 is read again from its new address.
    assert reads == [[0, 1], [0]]

    def read_all():
        return (yield from client.read_file("/data.bin", 0, len(payload)))

    assert run(scheduler, read_all) == patch + payload[4 * KB :]
    run(scheduler, stack.fs.sync)
    stack.cache.invalidate_file(file_id)
    assert run(scheduler, read_all) == patch + payload[4 * KB :]


def test_migration_skips_directories_and_root():
    stack = build_online_cluster(nodes=2)
    scheduler = stack.scheduler
    client = stack.client

    def setup():
        yield from client.mkdir("/dir")
        directory = yield from client.lookup("/dir")
        return directory.file_id

    directory_id = run(scheduler, setup)
    rebalancer = ClusterRebalancer(
        stack.fs, stack.cluster.placement, stack.spec.cluster, metadata=stack.metadata
    )
    other = 1 - stack.cluster.placement.volume_of_file(directory_id)
    assert run(scheduler, rebalancer.migrate_file, directory_id, other) is False
    assert run(scheduler, rebalancer.migrate_file, ROOT_INODE_NUMBER, 1) is False
    assert rebalancer.migrations == 0


class OneVolumePlacement(HashPlacement):
    """Every new file on the last volume: the skew the rebalancer is for."""

    name = "one-volume"

    def home_for_new_file(self, parent_id, name, counter):
        return self.num_volumes - 1


@pytest.fixture
def one_volume_placement():
    registry.register("placement", OneVolumePlacement.name, OneVolumePlacement)
    yield OneVolumePlacement.name
    registry.unregister("placement", OneVolumePlacement.name)


def rebalancing_config(seed=0, rebalance=True):
    return cluster_config(
        nodes=2,
        scale=0.002,
        seed=seed,
        volumes_per_node=1,
        disks_per_node=1,
        placement=OneVolumePlacement.name,
        rebalance=rebalance,
    )


#: the same skew at a load that keeps its home disk busy most of the time;
#: the default 4-client trace leaves that disk at most about 0.4 busy.
SATURATING = dict(num_clients=8, mean_think_time=0.02)


def _rebalancing_run(seed=0, rebalance=True, **trace):
    config = replace(
        rebalancing_config(seed=seed, rebalance=rebalance),
        cluster=replace(
            rebalancing_config(seed=seed).cluster,
            rebalance=rebalance,
            rebalance_interval=2.0,
            imbalance_threshold=1.5,
            max_migrations_per_round=4,
        ),
    )
    simulator = PatsySimulator(config)
    result = simulator.replay(skewed_trace(seed=5, directories=1, **trace), trace_name="skew")
    return result


def test_rebalancer_migrates_under_directory_skew(one_volume_placement):
    result = _rebalancing_run(**SATURATING)
    assert result.errors == 0
    rebalancer = result.cluster_stats["rebalancer"]
    assert rebalancer["migrations"] > 0
    assert rebalancer["blocks_copied"] > 0
    assert result.cluster_stats["migration_schedule"]
    # Migrated files really moved: the idle node served disk traffic.
    node1 = result.cluster_stats["per_node"]["node1"]
    node0 = result.cluster_stats["per_node"]["node0"]
    assert node1["disk_operations"] > 0 or node0["disk_operations"] > 0


def test_rebalancing_schedule_is_deterministic(one_volume_placement):
    """Same seed + same skew ⇒ the identical migration schedule, down to
    the timestamps, and identical end-to-end measurements."""
    first = _rebalancing_run(seed=1, **SATURATING)
    second = _rebalancing_run(seed=1, **SATURATING)
    assert first.cluster_stats["migration_schedule"]
    assert first.cluster_stats["migration_schedule"] == second.cluster_stats[
        "migration_schedule"
    ]
    assert repr(first.summary()) == repr(second.summary())


def test_rebalancing_changes_with_the_seed_but_replays_cleanly(one_volume_placement):
    result = _rebalancing_run(seed=2, **SATURATING)
    assert result.errors == 0


def test_light_skew_does_not_migrate(one_volume_placement):
    """Skewed but light: the home disk is never busy half an interval, so
    there is no queue for a migration to relieve and none runs."""
    result = _rebalancing_run()
    assert result.errors == 0
    assert result.cluster_stats["rebalancer"]["rounds"] > 0
    assert result.cluster_stats["rebalancer"]["migrations"] == 0


@pytest.mark.parametrize(
    "load, busy, migrates",
    [
        # Volume 0 is busiest; the crashed node's volume 1 reads no load.
        ([40, 0, 5, 5], [0.9, 0.0, 0.1, 0.1], True),
        # The dead volume holds the highest load of the interval.
        ([30, 100, 0, 5], [0.9, 1.0, 0.0, 0.1], True),
        # Skewed, but the busiest live volume's disk idles most of the time.
        ([40, 0, 5, 5], [0.4, 0.0, 0.1, 0.1], False),
    ],
)
def test_rebalancer_moves_files_only_between_live_volumes(load, busy, migrates):
    """A crashed node's volume is never a migration source or target:
    writes flushed there would be dropped, and reads off it fail."""
    from tests.test_replication import build_online, kill, populate, replica_spec

    stack = build_online(replica_spec(nodes=4, replicas=0))
    populate(stack, num_files=16)
    kill(stack, "node_crash", 1)
    dead = stack.cluster.faults.dead_volumes
    assert dead == {1}
    rebalancer = ClusterRebalancer(
        stack.fs, stack.cluster.placement, stack.spec.cluster, metadata=stack.metadata
    )
    moved = run(stack.scheduler, rebalancer.rebalance_once, load, busy)
    assert (moved > 0) is migrates
    for migration in rebalancer.schedule:
        assert migration.source == 0
        assert migration.target not in dead


def test_a_dead_home_volume_serves_the_whole_group_from_the_replica():
    """One client read of a file whose home volume is dead: the router
    hands the call's blocks to fail-over as one group, a live replica's
    sub-layout serves them in one call, and every block counts as one
    fail-over read."""
    from tests.test_replication import (
        FILE_BYTES, PARKED, build_online, kill, payload, populate, replica_spec,
    )

    stack = build_online(replica_spec(nodes=3), repair_interval=PARKED)
    files = populate(stack)
    kill(stack, "node_crash", 1, scrub=True)
    placement, manager = stack.cluster.placement, stack.cluster.replication
    dead = set(stack.cluster.faults.dead_volumes)
    path, file_id = next((p, f) for p, f in files if placement.volume_of_file(f) in dead)
    stack.cache.invalidate_file(file_id)

    calls = []
    for volume, sub in enumerate(stack.layout.sublayouts):
        def read_file_blocks(inode, blocks, volume=volume, original=sub.read_file_blocks, **kw):
            calls.append((volume, [block_no for block_no, _block in blocks]))
            return original(inode, blocks, **kw)

        sub.read_file_blocks = read_file_blocks

    failovers = manager.failover_reads
    failed_reads = dict(stack.cluster.faults.failed_reads_by_node)
    data = run(stack.scheduler, stack.client.read_file, path, 0, FILE_BYTES)
    assert data == payload(int(path[2:]))
    (volume, block_nos), = calls
    assert block_nos == [0, 1, 2]
    assert volume in placement.replica_set(file_id) and volume not in dead
    assert manager.failover_reads - failovers == 3
    assert stack.cluster.faults.failed_reads_by_node[1] - failed_reads.get(1, 0) == 3


def test_replica_copies_are_in_flight_with_the_primary_append():
    """A replicated writeback issues the primary's append and every replica
    copy together: at one moment all of the file's volumes are writing."""
    from tests.test_replication import build_online, payload, replica_spec

    stack = build_online(replica_spec(nodes=3))
    client, placement = stack.client, stack.cluster.placement

    def create():
        yield from stack.fs.mount(True)
        handle = yield from client.create("/r0")
        yield from client.write(handle, 0, payload(0))
        return handle

    handle = run(stack.scheduler, create)
    file_id = stack.fs.file_table.get_handle(handle).file.file_id
    events = track_share_writes(stack.layout)
    run(stack.scheduler, client.fsync, handle)
    (replica,) = placement.replica_set(file_id)
    primary = placement.volume_of_file(file_id)
    # The file's own writeback comes first: both appends start before either ends.
    assert sorted(events[:2]) == sorted([("start", primary), ("start", replica)])
