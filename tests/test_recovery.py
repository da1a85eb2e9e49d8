"""Crash-at-every-step recovery: kill the stack at every boundary, remount,
replay, and require byte-identical reads.

The harness uses :class:`CrashPoints` in its two modes:

1. a **recording** reference run drives the full workload (create files,
   sync, migrate a batch of them, delete one, unmount) and collects every
   ``(point, occurrence)`` pair actually visited — the crash matrix;
2. one **armed** run per pair replays the identical workload (same spec,
   same seeds, fresh state) and dies at exactly that boundary via
   :class:`SimulatedCrash` and a scheduler abort.

What survives the crash is what would survive a power failure: the disk
images (``MemoryBackedDiskDriver.snapshot``) and the metadata tier's
:class:`DurableStore` (committed WAL bytes + manifest).  Buffered WAL
records, the block cache and every in-memory table die with the stack.
A fresh stack is then rebuilt over the survivors, mounted without
formatting — which recovers the routing table from manifest + WAL replay —
and every file the workload never deleted must read back byte-identical
to the uncrashed reference.  The deleted file may or may not have its
deletion durable, but if it is still visible it too must read intact.

The migration plan moves files in one direction only (out of the busiest
native volume, never back into it), mirroring a real drain: the source's
durable state then always holds the pre-migration copy, so even a lost
routing entry falls back to readable bytes.
"""

import os
from collections import Counter

import pytest

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
from repro.core.cluster.rebalance import ClusterRebalancer
from repro.core.metadata import CrashPoints, DurableStore, SimulatedCrash, decode_wal
from repro.core.metadata.wal import REC_COMMIT, REC_FLIP
from repro.errors import FileNotFound
from repro.units import KB, MB
from tests.conftest import run

NUM_FILES = 6
FILE_BYTES = 12 * KB  # three 4 KB blocks per file

#: CI smoke runs set this > 1 to sample every Nth crash point instead of
#: sweeping the whole matrix.
MATRIX_STRIDE = max(1, int(os.environ.get("RECOVERY_MATRIX_STRIDE", "1")))


def payload(index: int) -> bytes:
    return bytes((index * 37 + j) % 251 for j in range(FILE_BYTES))


def crash_spec(nodes=2, volumes_per_node=1, placement="hash"):
    return StackSpec(
        cache=CacheConfig(size_bytes=256 * 4 * KB),
        flush=FlushConfig(policy="periodic"),
        layout=LayoutConfig(segment_size=16 * 4 * KB),
        host=HostConfig(num_disks=volumes_per_node),
        array=ArrayConfig(volumes=volumes_per_node, placement=placement),
        cluster=ClusterConfig(
            nodes=nodes,
            rebalance=False,
            # Small enough that the WAL folds into the manifest mid-workload,
            # putting manifest.write.* and wal.truncate.pre into the matrix.
            wal_checkpoint_bytes=256,
        ),
    )


def build_crash_stack(spec, store, crashpoints=None, simulated=False):
    if simulated:
        binding = SimulatedBinding(metadata_store=store)
    else:
        binding = OnlineBinding(
            size_bytes=16 * MB * spec.cluster.nodes, metadata_store=store
        )
    return build_stack(spec, binding, crashpoints=crashpoints)


def drive_workload(stack, with_data=True):
    """Mount, create files, sync, migrate one-directionally, delete one
    migrated file, unmount.  Returns ``(files, migrated_ids, deleted_path)``
    where ``files`` is a list of ``(path, file_id)``."""
    scheduler = stack.scheduler
    client = stack.client
    fs = stack.fs
    placement = stack.cluster.placement

    def body():
        yield from fs.mount(True)
        files = []
        for i in range(NUM_FILES):
            path = f"/f{i}"
            handle = yield from client.create(path)
            if with_data:
                yield from client.write(handle, 0, payload(i))
            else:
                yield from client.write(handle, 0, length=FILE_BYTES)
            yield from client.fsync(handle)
            yield from client.close(handle)
            file = yield from client.lookup(path)
            files.append((path, file.file_id))
        # Checkpoint every sub-layout: the created state is the floor any
        # crash from here on recovers to.
        yield from fs.sync()

        # One-direction plan: drain the busiest native volume, never
        # migrate anything back into it.
        homes = Counter(placement.volume_of_file(fid) for _, fid in files)
        source = homes.most_common(1)[0][0]
        targets = [v for v in range(placement.num_volumes) if v != source]
        rebalancer = ClusterRebalancer(
            fs,
            placement,
            stack.spec.cluster,
            metadata=stack.metadata,
            crashpoints=stack.crashpoints,
        )
        migrated = []
        for i, (path, fid) in enumerate(files):
            if placement.volume_of_file(fid) == source and targets:
                moved = yield from rebalancer.migrate_file(
                    fid, targets[i % len(targets)]
                )
                if moved:
                    migrated.append((path, fid))
        deleted_path = None
        if migrated:
            deleted_path = migrated[0][0]
            yield from client.unlink(deleted_path)
        yield from fs.unmount()
        return files, [fid for _, fid in migrated], deleted_path

    thread = scheduler.spawn(body)
    return scheduler.run_until_complete(thread)


def reference_run(spec):
    """The uncrashed run: its visited crash points are the matrix."""
    crashpoints = CrashPoints(recording=True)
    stack = build_crash_stack(spec, DurableStore(), crashpoints)
    files, migrated, deleted_path = drive_workload(stack)
    return crashpoints.seen, files, migrated, deleted_path


def crashed_run(spec, point, occurrence):
    """Replay the workload, die at ``(point, occurrence)``; return what a
    power failure leaves behind: the durable store and the disk images."""
    store = DurableStore()
    stack = build_crash_stack(spec, store, CrashPoints(arm=(point, occurrence)))
    with pytest.raises(SimulatedCrash) as exc_info:
        drive_workload(stack)
    assert exc_info.value.point == point
    images = [
        driver.snapshot() for node in stack.cluster.nodes for driver in node.drivers
    ]
    return store, images


def remount(spec, store, images):
    """A fresh stack over the surviving bytes; mounting recovers routing."""
    stack = build_crash_stack(spec, store)
    drivers = [d for node in stack.cluster.nodes for d in node.drivers]
    assert len(drivers) == len(images)
    for driver, image in zip(drivers, images):
        driver.restore(image)
    run(stack.scheduler, stack.fs.mount, False)
    return stack


def check_recovered(stack, files, deleted_path, context):
    scheduler = stack.scheduler
    client = stack.client
    placement = stack.cluster.placement
    for path, fid in files:
        home = placement.volume_of_file(fid)
        assert 0 <= home < placement.num_volumes, context
        if path == deleted_path:
            # The deletion may or may not have become durable before the
            # crash; if the file is still visible it must read intact.
            try:
                run(scheduler, client.lookup, path)
            except FileNotFound:
                continue
        index = int(path[2:])
        data = run(scheduler, client.read_file, path, 0, FILE_BYTES)
        assert data == payload(index), f"{path} corrupted after crash at {context}"


# --------------------------------------------------------------------------- the full matrix


FULL_MATRIX_SHAPES = [
    pytest.param(1, 2, "hash", id="1node-2vol-hash"),
    pytest.param(2, 1, "directory", id="2node-directory"),
]


@pytest.mark.parametrize("nodes,volumes_per_node,placement", FULL_MATRIX_SHAPES)
def test_crash_at_every_step_recovers_byte_identical(nodes, volumes_per_node, placement):
    spec = crash_spec(nodes, volumes_per_node, placement)
    matrix, files, migrated, deleted_path = reference_run(spec)
    assert migrated, "the workload migrated nothing — the matrix is hollow"
    points = {point for point, _ in matrix}
    # The matrix must cover all four layers of boundaries.
    assert any(p.startswith("migrate.") for p in points)
    assert any(p.startswith("wal.") for p in points)
    assert any(p.startswith("manifest.") for p in points)
    # LFS summary+index writes: only armed past the first durable
    # checkpoint (before that floor a crash legitimately loses data).
    assert any(p.startswith("lfs.index.") for p in points)
    for point, occurrence in matrix[::MATRIX_STRIDE]:
        store, images = crashed_run(spec, point, occurrence)
        stack = remount(spec, store, images)
        check_recovered(stack, files, deleted_path, f"{point}#{occurrence}")


# --------------------------------------------------------------------------- cluster-size sweep


@pytest.mark.parametrize("nodes", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "point",
    ["migrate.flip.pre", "migrate.commit.pre", "migrate.commit.post", "wal.commit.torn"],
)
def test_crash_boundaries_across_cluster_sizes(nodes, point):
    """The decisive boundaries — flip, either side of the durability
    barrier, and a torn group commit — swept over 1..4 nodes."""
    volumes_per_node = 2 if nodes == 1 else 1
    spec = crash_spec(nodes, volumes_per_node, "hash")
    matrix, files, migrated, deleted_path = reference_run(spec)
    assert migrated
    pairs = [pair for pair in matrix if pair[0] == point]
    if not pairs:
        pytest.skip(f"{point} not visited at nodes={nodes}")
    point, occurrence = pairs[0]
    store, images = crashed_run(spec, point, occurrence)
    stack = remount(spec, store, images)
    check_recovered(stack, files, deleted_path, f"nodes={nodes} {point}#{occurrence}")


# --------------------------------------------------------------------------- clean remounts


def test_clean_remount_rewrites_no_manifest():
    """A remount whose recovery replays nothing must not mark the tier
    dirty: unmounting again rewrites no manifest (the durable bytes are
    already exact), so repeated clean mount/unmount cycles are write-free."""
    spec = crash_spec(nodes=2, volumes_per_node=1, placement="hash")
    store = DurableStore()
    stack = build_crash_stack(spec, store)
    files, migrated, deleted_path = drive_workload(stack)
    assert migrated
    images = [
        driver.snapshot() for node in stack.cluster.nodes for driver in node.drivers
    ]
    for _ in range(3):
        stack = remount(spec, store, images)
        assert stack.metadata.replayed_records == 0  # all folded at unmount
        run(stack.scheduler, stack.fs.unmount)
        assert stack.metadata.manifest_store.snapshot()["writes"] == 0, (
            "clean remount + unmount rewrote an identical manifest"
        )
        images = [
            d.snapshot() for node in stack.cluster.nodes for d in node.drivers
        ]
    stack = remount(spec, store, images)
    check_recovered(stack, files, deleted_path, "after three clean remount cycles")


# --------------------------------------------------------------------------- replica repair matrix


def replica_crash_spec():
    spec = crash_spec(nodes=3, volumes_per_node=1, placement="hash")
    return StackSpec(
        cache=spec.cache,
        flush=spec.flush,
        layout=spec.layout,
        array=spec.array,
        cluster=ClusterConfig(
            nodes=3,
            rebalance=False,
            wal_checkpoint_bytes=256,
            replicas=1,
            repair_interval=0.5,
        ),
    )


def drive_replica_workload(stack):
    """Create replicated files, kill volume 0 (scrub **off** — the crash
    harness revives the volume's bytes at remount), let the repair daemon
    restore full replication, unmount.

    No writes happen after the kill: volume death is runtime state and
    does not survive the whole-stack crash, so a post-kill write would
    legitimately be missing from the revived old primary."""
    from repro.core.faults import FaultEvent, FaultInjector

    scheduler = stack.scheduler
    client = stack.client
    fs = stack.fs

    def body():
        yield from fs.mount(True)
        files = []
        for i in range(NUM_FILES):
            path = f"/f{i}"
            handle = yield from client.create(path)
            yield from client.write(handle, 0, payload(i))
            yield from client.fsync(handle)
            yield from client.close(handle)
            file = yield from client.lookup(path)
            files.append((path, file.file_id))
        yield from fs.sync()
        return files

    files = scheduler.run_until_complete(scheduler.spawn(body))
    injector = FaultInjector(
        scheduler,
        stack.cluster,
        [FaultEvent(time=scheduler.now + 0.1, kind="disk_fail", target=0)],
    )
    injector.start()
    scheduler.run(until=scheduler.now + 0.2, inclusive=True)
    assert injector.applied == 1
    manager = stack.cluster.replication
    deadline = scheduler.now + 30.0
    while manager.under_replicated_files() and scheduler.now < deadline:
        scheduler.run(until=scheduler.now + 1.0, inclusive=True)
    assert manager.under_replicated_files() == 0
    thread = scheduler.spawn(fs.unmount)
    scheduler.run_until_complete(thread)
    return files


def test_crash_at_every_repair_step_recovers_byte_identical():
    """Satellite of the replication tier: the repair state machine —
    promote (FLIP + RSET) and re-replicate (clone + RSET) — swept with the
    same crash-at-every-boundary discipline as migrations."""
    spec = replica_crash_spec()
    crashpoints = CrashPoints(recording=True)
    stack = build_crash_stack(spec, DurableStore(), crashpoints)
    files = drive_replica_workload(stack)
    matrix = [pair for pair in crashpoints.seen if pair[0].startswith("repair.")]
    points = {point for point, _ in matrix}
    assert {"repair.flip.pre", "repair.clone.pre", "repair.commit.pre"} <= points, (
        f"repair matrix too thin: {sorted(points)}"
    )
    for point, occurrence in matrix[::MATRIX_STRIDE]:
        store = DurableStore()
        stack = build_crash_stack(spec, store, CrashPoints(arm=(point, occurrence)))
        with pytest.raises(SimulatedCrash) as exc_info:
            drive_replica_workload(stack)
        assert exc_info.value.point == point
        images = [
            d.snapshot() for node in stack.cluster.nodes for d in node.drivers
        ]
        stack = remount(spec, store, images)
        check_recovered(stack, files, None, f"{point}#{occurrence}")


# --------------------------------------------------------------------------- the PATSY world


def test_patsy_crash_leaves_a_replayable_charged_journal():
    """The same crash discipline in the simulated world: no real bytes
    exist, so the contract is the routing table — a committed flip must
    recover to the new home, an uncommitted one must not — and the journal
    replay must cost simulated time (the metadata device charges it)."""
    spec = crash_spec(nodes=2, volumes_per_node=1, placement="hash")
    recording = CrashPoints(recording=True)
    stack = build_crash_stack(spec, DurableStore(), recording, simulated=True)
    drive_workload(stack, with_data=False)
    assert ("migrate.commit.post", 0) in recording.seen

    store = DurableStore()
    stack = build_crash_stack(
        spec, store, CrashPoints(arm=("migrate.commit.post", 0)), simulated=True
    )
    with pytest.raises(SimulatedCrash):
        drive_workload(stack, with_data=False)

    # The durable journal proves exactly one committed migration.
    records, _ = decode_wal(bytes(store.wal))
    flips = [r for r in records if r.rtype == REC_FLIP]
    commits = {}
    for record in records:
        if record.rtype == REC_COMMIT:
            commits.setdefault(record.file_id, []).append(record.lsn)
    committed = [
        r for r in flips if any(lsn > r.lsn for lsn in commits.get(r.file_id, ()))
    ]
    assert committed

    fresh = build_crash_stack(spec, store, simulated=True)
    scheduler = fresh.scheduler
    before = scheduler.now
    run(scheduler, fresh.metadata.recover)
    assert scheduler.now > before  # the journal read was charged as time
    assert fresh.metadata.replayed_records > 0
    placement = fresh.cluster.placement
    for record in committed:
        assert placement.volume_of_file(record.file_id) == record.arg
