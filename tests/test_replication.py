"""Replication tier: n-way replicas, scripted faults, fail-over, repair.

The contract under test, end to end:

* ``replicas=0`` (the default) is **inert** — no replication objects, no
  journal records, no extra manifest keys, no spawned daemons: the stack
  is byte-identical to the pre-replication one.
* With ``replicas>=1`` every write is mirrored onto ``k`` extra volumes
  on other failure domains; after a scripted volume/node kill every read
  returns byte-identical data through fail-over — proved with *scrubbed*
  kills, where the dead volumes' memory-backed disk images are zeroed so
  a read that touched dead hardware could only return garbage.
* The repair daemon notices the fault-board epoch move and restores full
  replication (promote + re-replicate), journalling the replica-set
  repoints through the metadata WAL.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.assembly.bindings import OnlineBinding, SimulatedBinding
from repro.assembly.builder import build_stack
from repro.assembly.spec import StackSpec
from repro.config import (
    ArrayConfig,
    HostConfig,
    CacheConfig,
    ClusterConfig,
    FlushConfig,
    LayoutConfig,
)
from repro.core.blocks import CacheBlock
from repro.core.cluster.placement import ClusterPlacement
from repro.core.faults import FaultEvent, FaultInjector
from repro.core.metadata import DurableStore, decode_wal
from repro.core.metadata.manifest import Manifest
from repro.core.metadata.wal import REC_RSET
from repro.core.storage.array import HashPlacement
from repro.errors import ConfigurationError, DataUnavailable
from repro.units import KB, MB
from tests.conftest import record_write_runs, run

NUM_FILES = 8
FILE_BYTES = 12 * KB  # three 4 KB blocks per file


def payload(index: int) -> bytes:
    return bytes((index * 41 + j) % 251 for j in range(FILE_BYTES))


def replica_spec(
    nodes=3,
    volumes_per_node=1,
    replicas=1,
    repair=True,
    repair_interval=0.5,
):
    return StackSpec(
        cache=CacheConfig(size_bytes=256 * 4 * KB),
        flush=FlushConfig(policy="periodic"),
        layout=LayoutConfig(segment_size=16 * 4 * KB),
        host=HostConfig(num_disks=volumes_per_node),
        array=ArrayConfig(volumes=volumes_per_node, placement="hash"),
        cluster=ClusterConfig(
            nodes=nodes,
            rebalance=False,
            replicas=replicas,
            repair=repair,
            repair_interval=repair_interval,
        ),
    )


def build_online(spec, store=None):
    binding = OnlineBinding(
        size_bytes=16 * MB * spec.cluster.nodes,
        metadata_store=store if store is not None else DurableStore(),
    )
    return build_stack(spec, binding)


def populate(stack, num_files=NUM_FILES):
    """Mount fresh, create ``num_files`` synced files, checkpoint."""
    client = stack.client
    fs = stack.fs

    def body():
        yield from fs.mount(True)
        files = []
        for i in range(num_files):
            path = f"/r{i}"
            handle = yield from client.create(path)
            yield from client.write(handle, 0, payload(i))
            yield from client.fsync(handle)
            yield from client.close(handle)
            file = yield from client.lookup(path)
            files.append((path, file.file_id))
        yield from fs.sync()
        return files

    return run(stack.scheduler, body)


def check_reads(stack, files, context):
    for path, _fid in files:
        index = int(path[2:])
        data = run(stack.scheduler, stack.client.read_file, path, 0, FILE_BYTES)
        assert data == payload(index), f"{path} corrupted ({context})"


def kill(stack, kind, target, at=None, scrub=False):
    """Inject one scripted fault and run the loop past its fire time."""
    scheduler = stack.scheduler
    when = scheduler.now + 0.1 if at is None else at
    injector = FaultInjector(
        scheduler,
        stack.cluster,
        [FaultEvent(time=when, kind=kind, target=target)],
        scrub=scrub,
    )
    injector.start()
    scheduler.run(until=when + 0.05, inclusive=True)
    assert injector.applied == 1
    return injector


# --------------------------------------------------------------------------- replicas=0 pin


def test_replicas_zero_is_inert():
    """The default configuration must not grow any replication machinery:
    the byte-identity pin against the pre-replication stack."""
    stack = build_online(replica_spec(replicas=0))
    files = populate(stack)
    assert stack.layout.replication is None
    assert stack.cluster.replication is None
    assert stack.cluster.repairer is None
    assert stack.cluster.faults is not None and not stack.cluster.faults.active
    assert all(not t.name.startswith("replication") for t in stack.scheduler.threads)
    check_reads(stack, files, "replicas=0")
    # No RSET ever journalled, and the manifest wire format is unchanged:
    # an empty replica table encodes to exactly the pre-replication JSON.
    manifest = Manifest(
        epoch=1,
        nodes=3,
        volumes_per_node=1,
        placement="hash",
        checkpoint_lsn=0,
        overrides={},
    )
    assert b"replicas" not in manifest.encode()


def test_replication_requires_foreign_inode_hosting():
    """FFS sub-layouts (fixed inode slots) cannot hold another volume's
    shadow inodes; the builder must reject the combination outright."""
    spec = replica_spec(replicas=1)
    spec = StackSpec(
        cache=spec.cache,
        flush=spec.flush,
        layout=LayoutConfig(kind="ffs"),
        array=spec.array,
        cluster=spec.cluster,
    )
    with pytest.raises(ConfigurationError, match="foreign inode"):
        build_stack(spec, SimulatedBinding(metadata_store=DurableStore()))


# --------------------------------------------------------------------------- placement property


@settings(max_examples=200, deadline=None)
@given(
    nodes=st.integers(min_value=1, max_value=5),
    volumes_per_node=st.integers(min_value=1, max_value=4),
    replicas=st.integers(min_value=1, max_value=4),
    file_id=st.integers(min_value=2, max_value=5000),
)
def test_replica_sets_never_colocate(nodes, volumes_per_node, replicas, file_id):
    """Property: a file's primary and its replicas all live on distinct
    failure domains — distinct nodes on a multi-node cluster, distinct
    volumes on a single node — for every file id and cluster shape."""
    num_volumes = nodes * volumes_per_node
    domains = nodes if nodes > 1 else num_volumes
    if replicas >= domains:
        with pytest.raises(ConfigurationError):
            ClusterPlacement(
                HashPlacement(num_volumes),
                nodes=nodes,
                volumes_per_node=volumes_per_node,
                replicas=replicas,
            )
        return
    placement = ClusterPlacement(
        HashPlacement(num_volumes),
        nodes=nodes,
        volumes_per_node=volumes_per_node,
        replicas=replicas,
    )
    primary = placement.volume_of_file(file_id)
    rset = placement.replica_set(file_id)
    assert len(rset) == replicas
    homes = (primary,) + rset
    assert len(set(homes)) == len(homes), "replica volume collision"
    if nodes > 1:
        home_nodes = [placement.node_of_volume(v) for v in homes]
        assert len(set(home_nodes)) == len(home_nodes), "replica node collision"


# --------------------------------------------------------------------------- fail-over reads


def test_failover_reads_survive_scrubbed_node_kill():
    """Kill a whole node *and zero its disk images*: every file must still
    read back byte-identical, via the surviving replicas only."""
    stack = build_online(replica_spec(nodes=3, repair=False))
    files = populate(stack)
    manager = stack.cluster.replication
    assert manager is not None
    assert manager.under_replicated_files() == 0
    kill(stack, "node_crash", 1, scrub=True)
    check_reads(stack, files, "node 1 dead")
    placement = stack.cluster.placement
    dead = set(stack.cluster.faults.dead_volumes)
    assert dead == set(placement.volumes_of_node(1))
    # Files homed on the dead node really were served by fail-over.
    homed_on_dead = [f for f, fid in files if placement.volume_of_file(fid) in dead]
    assert homed_on_dead, "workload never placed a file on the killed node"
    assert manager.failover_reads > 0
    assert manager.under_replicated_files() > 0  # repair was off


def test_reads_fail_without_replication():
    """The control: the same scrubbed kill with replication off must lose
    the files homed on the dead node."""
    stack = build_online(replica_spec(nodes=3, replicas=0))
    files = populate(stack)
    kill(stack, "node_crash", 1, scrub=True)
    placement = stack.cluster.placement
    dead = set(placement.volumes_of_node(1))
    lost = [p for p, fid in files if placement.volume_of_file(fid) in dead]
    assert lost, "workload never placed a file on the killed node"
    with pytest.raises(DataUnavailable):
        run(stack.scheduler, stack.client.read_file, lost[0], 0, FILE_BYTES)


# --------------------------------------------------------------------------- repair


def test_repairer_restores_full_replication():
    """After a volume dies the repair daemon must promote/re-replicate
    every damaged file; a second scrubbed kill of the *original* copies
    then proves the new copies are real."""
    store = DurableStore()
    stack = build_online(replica_spec(nodes=3), store=store)
    files = populate(stack)
    manager = stack.cluster.replication
    repairer = stack.cluster.repairer
    assert repairer is not None
    kill(stack, "disk_fail", 0, scrub=True)
    # Let the repair daemon observe the epoch and work the backlog.
    deadline = stack.scheduler.now + 60.0
    while manager.under_replicated_files() and stack.scheduler.now < deadline:
        stack.scheduler.run(until=stack.scheduler.now + 1.0, inclusive=True)
    assert manager.under_replicated_files() == 0
    assert repairer.promoted_files + repairer.repaired_copies > 0
    assert repairer.lost_files == 0
    check_reads(stack, files, "post-repair")
    # The repoints were journalled: force the WAL out and look for RSETs.
    run(stack.scheduler, stack.metadata.wal.sync)
    records, _ = decode_wal(bytes(store.wal))
    assert any(r.rtype == REC_RSET for r in records)
    # The new copies must live outside the dead volume.
    placement = stack.cluster.placement
    for _path, fid in files:
        assert placement.volume_of_file(fid) != 0
        assert 0 not in placement.replica_set(fid)


def test_repair_survives_killing_the_promoted_survivors():
    """The acid test: kill volume 0, let repair finish, then kill the
    volume that served the fail-overs.  Reads must *still* be intact —
    only possible if repair created genuinely new durable copies."""
    stack = build_online(replica_spec(nodes=3, volumes_per_node=1))
    files = populate(stack)
    manager = stack.cluster.replication
    kill(stack, "disk_fail", 0, scrub=True)
    deadline = stack.scheduler.now + 60.0
    while manager.under_replicated_files() and stack.scheduler.now < deadline:
        stack.scheduler.run(until=stack.scheduler.now + 1.0, inclusive=True)
    assert manager.under_replicated_files() == 0
    kill(stack, "disk_fail", 1, scrub=True)
    deadline = stack.scheduler.now + 60.0
    while manager.under_replicated_files() and stack.scheduler.now < deadline:
        stack.scheduler.run(until=stack.scheduler.now + 1.0, inclusive=True)
    check_reads(stack, files, "two sequential kills with repair between")


# --------------------------------------------------------------------------- one append per copy


def count_write_runs(stack):
    """Log every ``write_run`` the sub-layouts issue: volume -> [(addr, n)]."""
    return {
        v: record_write_runs(sub.volume) for v, sub in enumerate(stack.layout.sublayouts)
    }


def sizes(runs):
    return [nblocks for _address, nblocks in runs]


def carriers(count, fill):
    blocks = []
    for block_no in range(count):
        block = CacheBlock(0, 4 * KB, with_data=True)
        block.data[:] = bytes([fill + block_no]) * (4 * KB)
        blocks.append((block_no, block))
    return blocks


def test_replicated_writeback_is_one_append_per_live_replica_and_none_on_a_dead_one():
    stack = build_online(replica_spec(nodes=3, repair=False))
    files = populate(stack, num_files=1)
    _path, file_id = files[0]
    scheduler, layout = stack.scheduler, stack.layout
    placement, manager = stack.cluster.placement, stack.cluster.replication
    primary = placement.volume_of_file(file_id)
    (replica,) = placement.replica_set(file_id)
    bystander = ({0, 1, 2} - {primary, replica}).pop()
    inode = run(scheduler, layout.read_inode, file_id)
    inode_writes = manager.replicated_inode_writes

    runs = count_write_runs(stack)
    run(scheduler, layout.write_file_blocks, inode, carriers(3, fill=7))
    # Three blocks + the inode behind them: one disk write on the primary,
    # one on the replica, nothing anywhere else — and no second shadow
    # inode (the old replicate_inode pass is gone).
    assert sizes(runs[primary]) == [4]
    assert sizes(runs[replica]) == [4]
    assert runs[bystander] == []
    assert manager.replicated_inode_writes == inode_writes + 1
    shadow = manager._shadows[(file_id, replica)]
    replica_sub = layout.sublayouts[replica]
    assert replica_sub.inode_map[file_id][0] == shadow.get_block_address(2) + 1

    kill(stack, "disk_fail", replica)
    for log in runs.values():
        log.clear()
    dropped = manager.dropped_replica_writes
    run(scheduler, layout.write_file_blocks, inode, carriers(3, fill=9))
    assert sizes(runs[primary]) == [4]
    assert runs[replica] == []  # a dead volume is never written
    assert manager.is_stale(file_id, replica)
    assert manager.dropped_replica_writes == dropped + 3


def test_clone_copies_a_file_in_segment_sized_appends():
    """Re-replication writes ⌈(k+1)/usable-segment⌉ log appends for a
    k-block file — the shadow inode riding the last — not k + 1."""
    spec = replica_spec(nodes=3, repair=True, repair_interval=1e9)  # daemon parked
    stack = build_online(spec)
    populate(stack, num_files=1)
    scheduler, client, layout = stack.scheduler, stack.client, stack.layout
    blocks = 20
    content = bytes(j % 249 for j in range(blocks * 4 * KB))

    def big_file():
        handle = yield from client.create("/big")
        yield from client.write(handle, 0, content)
        yield from client.fsync(handle)
        yield from client.close(handle)
        file = yield from client.lookup("/big")
        yield from stack.fs.sync()
        return file.file_id

    file_id = run(scheduler, big_file)
    placement, manager = stack.cluster.placement, stack.cluster.replication
    repairer = stack.cluster.repairer
    primary = placement.volume_of_file(file_id)
    (replica,) = placement.replica_set(file_id)
    target = ({0, 1, 2} - {primary, replica}).pop()
    kill(stack, "disk_fail", replica, scrub=True)

    target_sub = layout.sublayouts[target]
    usable = target_sub.segment_blocks - 1
    appends = []
    for name in ("write_file_blocks", "write_inode"):
        original = getattr(target_sub, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            appends.append(_name)
            return _original(*args, **kwargs)

        setattr(target_sub, name, counted)
    runs = count_write_runs(stack)
    run(scheduler, repairer.repair_file, file_id)
    assert placement.replica_set(file_id) == (target,)
    assert repairer.blocks_copied == blocks
    expected = -(-(blocks + 1) // usable)
    assert appends == ["write_file_blocks"] * expected
    assert expected == 2 < blocks + 1
    # Every data block and one inode reached the target in a handful of
    # writes (an append that straddles a segment end splits in two; sealing
    # a segment and the checkpoint add their own blocks).
    assert sum(sizes(runs[target])) >= blocks + 1
    assert len(runs[target]) <= 2 * expected + 6
    # The new copy is real: lose the primary too and read it back.
    kill(stack, "disk_fail", primary, scrub=True)
    assert run(scheduler, client.read_file, "/big", 0, len(content)) == content


# --------------------------------------------------------------------------- simulator counters


def test_simulator_counts_faults_failovers_and_repairs():
    """The PATSY replay surface: ``inject_faults`` arms a schedule and the
    per-node cluster statistics pick up fault, fail-over and repair
    counters the availability benchmark reports on."""
    from repro.config import cluster_config
    from repro.patsy.simulator import PatsySimulator
    from repro.patsy.workload import WorkloadProfile, generate_workload

    profile = WorkloadProfile(
        name="availability-smoke",
        duration=30.0,
        num_clients=4,
        read_fraction=0.7,
        initial_files=40,
        mean_file_size=8 * KB,
        mean_think_time=0.2,
        delete_fraction=0.0,
    )
    trace = generate_workload(profile, seed=3)
    config = cluster_config(
        nodes=3,
        scale=0.001,
        seed=3,
        volumes_per_node=1,
        disks_per_node=1,
        placement="hash",
        rebalance=False,
        replicas=1,
    )
    sim = PatsySimulator(config)
    sim.inject_faults([FaultEvent(time=10.0, kind="node_crash", target=1)])
    result = sim.replay(trace, trace_name="faulted")
    assert result.errors == 0
    stats = result.cluster_stats
    assert stats["replication"]["replicated_files"] > 0
    assert stats["faults"]["events_applied"] == 1
    assert stats["faults"]["dead_nodes"] == [1]
    assert stats["repairer"]["scans"] >= 1
    node1 = stats["per_node"]["node1"]["faults"]
    assert node1["events"] >= 1
    total_failovers = sum(
        entry["faults"].get("failovers", 0) for entry in stats["per_node"].values()
    )
    assert total_failovers == stats["replication"]["failover_reads"]
