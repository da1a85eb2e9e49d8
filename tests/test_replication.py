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

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

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
)
from repro.core.blocks import CacheBlock
from repro.core.cluster.placement import ClusterPlacement
from repro.core.faults import FaultEvent, FaultInjector
from repro.core.metadata import DurableStore, decode_wal
from repro.core.metadata.manifest import Manifest
from repro.core.metadata.wal import REC_RSET
from repro.errors import ConfigurationError, DataUnavailable
from repro.units import KB, MB
from tests.conftest import record_write_runs, run

NUM_FILES = 8
FILE_BYTES = 12 * KB  # three 4 KB blocks per file


def payload(index: int) -> bytes:
    return bytes((index * 41 + j) % 251 for j in range(FILE_BYTES))


#: a repair interval no test reaches: the repairer never scans on its own.
PARKED = 1e9


def replica_spec(nodes=3, volumes_per_node=1, replicas=1):
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
        ),
    )


def build_online(spec, store=None, repair_interval=0.5):
    """The on-line stack of ``spec``; a replicated one's repairer polls
    every ``repair_interval`` simulated seconds (``PARKED``: never)."""
    binding = OnlineBinding(
        size_bytes=16 * MB * spec.cluster.nodes,
        metadata_store=store if store is not None else DurableStore(),
    )
    stack = build_stack(spec, binding)
    if stack.cluster.repairer is not None:
        stack.cluster.repairer.interval = repair_interval
    return stack


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


# --------------------------------------------------------------------------- placement property


@settings(max_examples=200, deadline=None)
@given(
    placement=st.sampled_from(registry.names("placement")),
    nodes=st.integers(min_value=1, max_value=5),
    volumes_per_node=st.integers(min_value=1, max_value=4),
    replicas=st.integers(min_value=1, max_value=4),
    file_id=st.integers(min_value=2, max_value=5000),
)
def test_replica_sets_never_colocate(placement, nodes, volumes_per_node, replicas, file_id):
    """Property: every block of a file and each of its replicas live on
    distinct failure domains — distinct nodes on a multi-node cluster,
    distinct volumes on a single node — for every registered placement,
    file id and cluster shape.  A placement that spreads one file over
    several volumes cannot promise that, so it is refused with replicas."""
    num_volumes = nodes * volumes_per_node
    domains = nodes if nodes > 1 else num_volumes
    inner = registry.create("placement", placement, num_volumes)
    blocks = range(64)
    spread = len({inner.volume_for_block(file_id, block_no) for block_no in blocks}) > 1
    if replicas >= domains or spread:
        with pytest.raises(ConfigurationError):
            ClusterPlacement(
                inner, nodes=nodes, volumes_per_node=volumes_per_node, replicas=replicas
            )
        return
    cluster = ClusterPlacement(
        inner, nodes=nodes, volumes_per_node=volumes_per_node, replicas=replicas
    )
    rset = cluster.replica_set(file_id)
    assert len(rset) == replicas
    for block_no in blocks:
        homes = (cluster.volume_for_block(file_id, block_no),) + rset
        assert len(set(homes)) == len(homes), f"block {block_no}: replica volume collision"
        if nodes > 1:
            home_nodes = [cluster.node_of_volume(v) for v in homes]
            assert len(set(home_nodes)) == len(home_nodes), "replica node collision"


def test_striped_placement_with_replicas_is_refused():
    """A striped file's later units would share a volume with a replica
    derived from its home, so one crash there would lose them: the stack
    refuses to build (3 nodes x 1 volume, one replica)."""
    spec = cluster_config(
        nodes=3, volumes_per_node=1, disks_per_node=1, placement="stripe", replicas=1
    )
    with pytest.raises(ConfigurationError, match="stripe"):
        build_stack(spec, SimulatedBinding())
    build_stack(replace(spec, array=replace(spec.array, placement="hash")), SimulatedBinding())


# --------------------------------------------------------------------------- fail-over reads


def test_failover_reads_survive_scrubbed_node_kill():
    """Kill a whole node *and zero its disk images*: every file must still
    read back byte-identical, via the surviving replicas only."""
    stack = build_online(replica_spec(nodes=3), repair_interval=PARKED)
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
    stack = build_online(replica_spec(nodes=3), repair_interval=PARKED)
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
    stack = build_online(replica_spec(nodes=3), repair_interval=PARKED)
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


# --------------------------------------------------------------------------- the kept damage set


@pytest.mark.parametrize("seed", range(8))
def test_kept_short_set_equals_its_definition_over_random_histories(seed):
    """Random create / write / delete / sync / crash / disk-failure /
    partition-and-heal / repair / migration steps on a four-node cluster:
    after every step the manager's kept set of under-replicated files is
    exactly the files ``short`` holds for."""
    rng = random.Random(seed)
    spec = replica_spec(nodes=4, volumes_per_node=2)
    spec = replace(
        spec, cluster=replace(spec.cluster, rebalance=True, rebalance_interval=PARKED)
    )
    stack = build_online(spec, repair_interval=PARKED)
    scheduler, client, fs = stack.scheduler, stack.client, stack.fs
    manager, repairer = stack.cluster.replication, stack.cluster.repairer
    rebalancer, faults = stack.cluster.rebalancer, stack.cluster.faults
    injector = FaultInjector(scheduler, stack.cluster, [])
    files = {path for path, _file_id in populate(stack)}
    next_index = len(files)
    permanent_fault = False
    partition = None

    def attempt(body, *args):
        try:
            run(scheduler, body, *args)
        except DataUnavailable:
            pass  # both copies of the file sit on unavailable volumes

    for _step in range(40):
        action = rng.choice(
            ["create", "create", "write", "write", "write", "delete", "sync",
             "fault", "partition", "partition", "blip", "repair", "repair", "migrate"]
        )
        if action == "create" or (action in ("write", "delete") and not files):
            path = f"/r{next_index}"
            attempt(client.write_file, path, 0, payload(next_index))
            next_index += 1
            files.add(path)
        elif action == "write":
            for path in rng.sample(sorted(files), min(3, len(files))):
                attempt(client.write_file, path, rng.randrange(FILE_BYTES), b"w" * 100)
            if rng.random() < 0.5:
                attempt(fs.sync)  # the copies miss it while a volume is away
        elif action == "delete":
            path = rng.choice(sorted(files))
            files.discard(path)
            attempt(client.unlink, path)
        elif action == "sync":
            attempt(fs.sync)
        elif action == "fault" and not permanent_fault:
            permanent_fault = True
            if rng.random() < 0.5:
                event = FaultEvent(scheduler.now, "node_crash", rng.randrange(4))
            else:
                event = FaultEvent(scheduler.now, "disk_fail", rng.randrange(8))
            injector.apply(event)
        elif action == "blip" and partition is None:
            # A short partition over synced writes: the copies on the
            # cut-off node go stale and are re-synced in place afterwards.
            blip = FaultEvent(scheduler.now, "nic_partition", rng.randrange(4), duration=1.0)
            injector.apply(blip)
            for path in rng.sample(sorted(files), min(4, len(files))):
                attempt(client.write_file, path, 0, b"b" * 100)
            attempt(fs.sync)
            injector.heal(blip)
        elif action == "partition":
            if partition is None:
                partition = FaultEvent(
                    scheduler.now, "nic_partition", rng.randrange(4), duration=1.0
                )
                injector.apply(partition)
            else:
                injector.heal(partition)
                partition = None
                if rng.random() < 0.5:
                    run(scheduler, repairer.repair_all)  # re-syncs stale copies
        elif action == "repair":
            run(scheduler, repairer.repair_all)
        elif action == "migrate" and manager.files:
            file_id = rng.choice(sorted(manager.files))
            live = [v for v in range(8) if not faults.volume_unavailable(v)]
            attempt(rebalancer.migrate_file, file_id, rng.choice(live))
        scheduler.run(until=scheduler.now + rng.choice([0.01, 0.3, 1.5]))
        assert manager.short_files() == {f for f in manager.files if manager.short(f)}
    assert manager.files and faults.active


def test_a_repairer_tick_after_repair_evaluates_short_nowhere():
    """Once repair has restored every copy, the repairer's once-a-second
    check while faults stay active reads the kept set: ``short`` is not
    evaluated for any file."""
    stack = build_online(replica_spec(nodes=3))
    populate(stack)
    manager, repairer = stack.cluster.replication, stack.cluster.repairer
    kill(stack, "disk_fail", 0)
    deadline = stack.scheduler.now + 60.0
    while manager.under_replicated_files() and stack.scheduler.now < deadline:
        stack.scheduler.run(until=stack.scheduler.now + 1.0, inclusive=True)
    assert manager.under_replicated_files() == 0
    stack.scheduler.run(until=stack.scheduler.now + 1.0, inclusive=True)
    scans = repairer.scans
    calls = []
    definition = manager.short
    manager.short = lambda file_id: calls.append(file_id) or definition(file_id)
    stack.scheduler.run(until=stack.scheduler.now + 10 * repairer.interval, inclusive=True)
    assert stack.cluster.faults.active and len(manager.files) > NUM_FILES // 2
    assert calls == [] and repairer.scans == scans
