"""The durable metadata tier: WAL framing, group commit, manifest, replay.

The contracts pinned here:

* WAL records round-trip through the CRC framing and replay stops exactly
  at a torn tail (partial frame or damaged CRC);
* group commit batches by record count, byte count and time interval, and
  ``commit_records=1`` degenerates to commit-per-record;
* the manifest encodes/decodes atomically-rewritten snapshots and treats
  any damage as "absent";
* ``ClusterPlacement.flip`` is idempotent and replaying the same WAL twice
  converges to the same routing table (recovery is re-runnable);
* a FLIP only takes effect at recovery when a *later* COMMIT for the same
  file is durable — the rule the crash-at-every-step harness relies on;
* any durable prefix of the WAL, replayed over the manifest, yields a
  routing table consistent with the commit protocol (property-based).
"""

import pytest

from repro.core.cluster.placement import ClusterPlacement
from repro.core.metadata import (
    CrashPoints,
    DurableStore,
    FileMetadataDevice,
    Manifest,
    ManifestStore,
    MemoryMetadataDevice,
    MetadataTier,
    SimulatedCrash,
    WalRecord,
    WriteAheadLog,
    decode_wal,
)
from repro.core.metadata.wal import (
    REC_BEGIN,
    REC_COMMIT,
    REC_END,
    REC_FLIP,
    REC_FORGET,
)
from repro.core.scheduler import Scheduler
from repro.core.storage.array import HashPlacement
from repro.errors import ConfigurationError
from tests.conftest import run


def make_tier(
    scheduler,
    nodes=2,
    volumes_per_node=1,
    store=None,
    crashpoints=None,
    **wal_kwargs,
):
    total = nodes * volumes_per_node
    placement = ClusterPlacement(HashPlacement(total), nodes, volumes_per_node)
    device = MemoryMetadataDevice(scheduler, store=store)
    wal = WriteAheadLog(scheduler, device, crashpoints=crashpoints, **wal_kwargs)
    manifest_store = ManifestStore(scheduler, device, crashpoints=crashpoints)
    tier = MetadataTier(scheduler, placement, wal, manifest_store, crashpoints=crashpoints)
    return tier, placement, device


# --------------------------------------------------------------------------- WAL framing


def test_wal_records_roundtrip_through_the_framing():
    records = [
        WalRecord(lsn=1, rtype=REC_BEGIN, file_id=7, arg=0),
        WalRecord(lsn=2, rtype=REC_FLIP, file_id=7, arg=3),
        WalRecord(lsn=3, rtype=REC_COMMIT, file_id=7, arg=0),
        WalRecord(lsn=4, rtype=REC_END, file_id=7, arg=0),
        WalRecord(lsn=5, rtype=REC_FORGET, file_id=-9, arg=-1),
    ]
    data = b"".join(r.encode() for r in records)
    decoded, valid = decode_wal(data)
    assert decoded == records
    assert valid == len(data)


def test_wal_replay_stops_at_a_torn_tail():
    records = [WalRecord(lsn=i, rtype=REC_FLIP, file_id=i, arg=0) for i in range(1, 4)]
    data = b"".join(r.encode() for r in records)
    frame = len(records[0].encode())
    # A frame cut anywhere — mid-header or mid-body — ends the replay there.
    for cut in (1, 5, frame + 3, 2 * frame + frame // 2):
        decoded, valid = decode_wal(data[:cut])
        assert decoded == records[: cut // frame]
        assert valid == (cut // frame) * frame


def test_wal_replay_stops_at_a_damaged_record():
    records = [WalRecord(lsn=i, rtype=REC_FLIP, file_id=i, arg=0) for i in range(1, 4)]
    data = bytearray(b"".join(r.encode() for r in records))
    frame = len(records[0].encode())
    data[frame + 10] ^= 0xFF  # corrupt the second record's body
    decoded, valid = decode_wal(bytes(data))
    assert decoded == records[:1]
    assert valid == frame


def test_group_commit_triggers_on_record_count(scheduler):
    device = MemoryMetadataDevice(scheduler)
    wal = WriteAheadLog(scheduler, device, commit_records=3, commit_bytes=1 << 20)
    for i in range(2):
        wal.append(REC_BEGIN, i)
    run(scheduler, wal.maybe_sync)
    assert device.wal_bytes == 0  # not due yet: everything still buffered
    wal.append(REC_BEGIN, 2)
    run(scheduler, wal.maybe_sync)
    assert wal.commits == 1 and wal.pending_records == 0
    records, _ = decode_wal(bytes(device.store.wal))
    assert [r.lsn for r in records] == [1, 2, 3]


def test_group_commit_triggers_on_byte_count(scheduler):
    device = MemoryMetadataDevice(scheduler)
    frame = len(WalRecord(1, REC_BEGIN, 0, 0).encode())
    wal = WriteAheadLog(
        scheduler, device, commit_records=100, commit_bytes=2 * frame
    )
    wal.append(REC_BEGIN, 0)
    run(scheduler, wal.maybe_sync)
    assert wal.commits == 0
    wal.append(REC_FLIP, 0, 1)
    run(scheduler, wal.maybe_sync)
    assert wal.commits == 1 and device.wal_bytes == 2 * frame


def test_group_commit_interval_daemon_commits_idle_records(scheduler):
    device = MemoryMetadataDevice(scheduler)
    wal = WriteAheadLog(
        scheduler, device, commit_records=100, commit_bytes=1 << 20, commit_interval=0.5
    )
    wal.append(REC_FORGET, 9)
    assert device.wal_bytes == 0
    scheduler.run(until=2.0)
    assert wal.commits == 1
    records, _ = decode_wal(bytes(device.store.wal))
    assert [r.rtype for r in records] == [REC_FORGET]


def test_without_group_commit_every_record_commits(scheduler):
    device = MemoryMetadataDevice(scheduler)
    wal = WriteAheadLog(scheduler, device, commit_records=1)
    for i in range(3):
        wal.append(REC_BEGIN, i)
        run(scheduler, wal.maybe_sync)
    assert wal.commits == 3


def test_wal_never_journalling_never_touches_the_scheduler(scheduler):
    device = MemoryMetadataDevice(scheduler)
    WriteAheadLog(scheduler, device)
    assert scheduler.threads == ()  # the daemon is lazily spawned on append


# --------------------------------------------------------------------------- manifest


def test_manifest_roundtrip():
    manifest = Manifest(
        epoch=3,
        nodes=2,
        volumes_per_node=2,
        placement="hash",
        checkpoint_lsn=41,
        overrides={7: 1, 12: 3},
    )
    decoded = Manifest.decode(manifest.encode())
    assert decoded == manifest


def test_manifest_damage_reads_as_absent():
    manifest = Manifest(1, 2, 1, "hash", 0, {5: 1})
    data = bytearray(manifest.encode())
    assert Manifest.decode(None) is None
    assert Manifest.decode(b"") is None
    assert Manifest.decode(bytes(data[:6])) is None  # truncated
    data[12] ^= 0xFF
    assert Manifest.decode(bytes(data)) is None  # CRC mismatch
    future = Manifest(1, 2, 1, "hash", 0, version=99)
    assert Manifest.decode(future.encode()) is None  # unknown version


def test_manifest_store_rewrites_whole_snapshots(scheduler):
    device = MemoryMetadataDevice(scheduler)
    store = ManifestStore(scheduler, device)
    assert run(scheduler, store.read) is None
    first = Manifest(1, 2, 1, "hash", 3, {5: 1})
    second = Manifest(2, 2, 1, "hash", 9, {})
    run(scheduler, store.write, first)
    run(scheduler, store.write, second)
    assert run(scheduler, store.read) == second  # replaced, not appended
    assert store.writes == 2


def test_file_metadata_device_persists_real_bytes(tmp_path, scheduler):
    base = tmp_path / "meta"
    device = FileMetadataDevice(scheduler, base)
    run(scheduler, device.append_wal, b"abc")
    run(scheduler, device.append_wal, b"def")
    run(scheduler, device.write_manifest, b"manifest-1")
    # A second device over the same paths sees everything (a "reboot").
    again = FileMetadataDevice(Scheduler(), base)
    assert bytes(again._read_wal()) == b"abcdef"
    assert again._read_manifest() == b"manifest-1"
    assert again.wal_bytes == 6
    run(scheduler, device.truncate_wal)
    assert again.wal_bytes == 0
    device.wipe()
    assert again._read_manifest() is None
    # No file is the empty state: an idle tier leaves nothing on disk, and a
    # wipe of nothing (every format of a fresh backing) creates nothing.
    assert list(tmp_path.iterdir()) == []
    device.wipe()
    assert list(tmp_path.iterdir()) == [] and again._read_wal() == b""


# --------------------------------------------------------------------------- crash points


def test_crash_points_record_and_arm():
    recorder = CrashPoints(recording=True)
    for _ in range(2):
        recorder.hit("a")
    recorder.hit("b")
    assert recorder.seen == [("a", 0), ("a", 1), ("b", 0)]

    armed = CrashPoints(arm=("a", 1))
    armed.hit("a")  # occurrence 0: survives
    armed.hit("b")
    with pytest.raises(SimulatedCrash) as exc_info:
        armed.hit("a")  # occurrence 1: dies
    assert exc_info.value.point == "a" and exc_info.value.occurrence == 1
    # A crash is a BaseException: generic error handling must not eat it.
    assert not isinstance(exc_info.value, Exception)


def test_crash_aborts_the_whole_scheduler(scheduler):
    """A crash in one thread takes down the run loop, not just the thread."""
    cp = CrashPoints(arm=("boom", 0))
    cp.bind(scheduler)

    def victim():
        yield from scheduler.sleep(0.1)
        cp.hit("boom")

    def bystander():
        while True:
            yield from scheduler.sleep(1.0)

    scheduler.spawn(victim)
    scheduler.spawn(bystander, daemon=True)
    with pytest.raises(SimulatedCrash):
        scheduler.run()
    # The abort is consumed once raised: the loop can step again (the
    # harness discards a crashed scheduler anyway, like a dead machine).
    scheduler.run(until=5.0, raise_failures=False)


# --------------------------------------------------------------------------- flip / replay idempotence


def test_flip_is_idempotent():
    placement = ClusterPlacement(HashPlacement(4), nodes=2, volumes_per_node=2)
    file_id = 5
    native = placement.volume_of_file(file_id)
    target = (native + 1) % 4
    placement.flip(file_id, target)
    table = placement.overrides_snapshot()
    placement.flip(file_id, target)  # again: same table, no duplicate entry
    assert placement.overrides_snapshot() == table
    assert placement.displaced_files == 1
    assert placement.volume_of_file(file_id) == target


def test_double_replay_of_the_same_wal_converges(scheduler):
    """Replaying the journal twice (crash during recovery, then recovery
    again) must land on the identical routing table."""
    store = DurableStore()
    tier, placement, _ = make_tier(scheduler, store=store)
    file_id = 4
    native = placement.volume_of_file(file_id)
    target = 1 - native
    tier.journal_begin(file_id, native, target)
    placement.flip(file_id, target)
    tier.journal_flip(file_id, target)
    run(scheduler, tier.journal_commit, file_id)
    tier.journal_end(file_id)

    fresh_tier, fresh_placement, _ = make_tier(scheduler, store=store)
    run(scheduler, fresh_tier.recover)
    first = fresh_placement.overrides_snapshot()
    assert first == {file_id: target}
    run(scheduler, fresh_tier.recover)  # replay the same records again
    assert fresh_placement.overrides_snapshot() == first
    # BEGIN/FLIP/COMMIT are durable; END was still buffered at the "crash".
    assert fresh_tier.replayed_records == 3


# --------------------------------------------------------------------------- recovery semantics


def test_uncommitted_flip_is_not_applied(scheduler):
    store = DurableStore()
    tier, placement, _ = make_tier(scheduler, store=store)
    file_id = 4
    target = 1 - placement.volume_of_file(file_id)
    tier.journal_begin(file_id, placement.volume_of_file(file_id), target)
    tier.journal_flip(file_id, target)
    run(scheduler, tier.wal.sync)  # durable, but no COMMIT record

    fresh_tier, fresh_placement, _ = make_tier(scheduler, store=store)
    run(scheduler, fresh_tier.recover)
    # Without a durable COMMIT the old home still owns the only full copy.
    assert fresh_placement.overrides_snapshot() == {}
    assert fresh_tier.applied_flips == 0


def test_forget_is_applied_and_only_journalled_for_overrides(scheduler):
    store = DurableStore()
    tier, placement, _ = make_tier(scheduler, store=store)
    file_id = 4
    target = 1 - placement.volume_of_file(file_id)
    placement.flip(file_id, target)
    tier.journal_flip(file_id, target)
    run(scheduler, tier.journal_commit, file_id)
    placement.forget(file_id)  # journals FORGET via the hook
    placement.forget(99)  # no override: must journal nothing
    run(scheduler, tier.wal.sync)
    records, _ = decode_wal(bytes(store.wal))
    assert [r.rtype for r in records] == [REC_FLIP, REC_COMMIT, REC_FORGET]
    assert records[-1].file_id == file_id

    fresh_tier, fresh_placement, _ = make_tier(scheduler, store=store)
    run(scheduler, fresh_tier.recover)
    assert fresh_placement.overrides_snapshot() == {}
    assert fresh_tier.applied_forgets == 1


def test_checkpoint_folds_wal_into_manifest(scheduler):
    store = DurableStore()
    tier, placement, device = make_tier(scheduler, store=store)
    file_id = 4
    target = 1 - placement.volume_of_file(file_id)
    placement.flip(file_id, target)
    tier.journal_flip(file_id, target)
    run(scheduler, tier.journal_commit, file_id)
    run(scheduler, tier.checkpoint)
    assert device.wal_bytes == 0  # the log was folded in and reset
    assert store.manifest is not None

    fresh_tier, fresh_placement, _ = make_tier(scheduler, store=store)
    run(scheduler, fresh_tier.recover)
    assert fresh_placement.overrides_snapshot() == {file_id: target}
    assert fresh_tier.replayed_records == 0  # all state came from the manifest
    # LSNs continue past the checkpoint instead of restarting at 1.
    assert fresh_tier.wal.next_lsn == tier.wal.next_lsn


def test_stale_records_below_the_checkpoint_are_skipped(scheduler):
    """A crash between manifest rewrite and WAL truncate leaves already-
    folded records in the log; replay must not apply them twice."""
    store = DurableStore()
    tier, placement, device = make_tier(scheduler, store=store)
    file_id = 4
    target = 1 - placement.volume_of_file(file_id)
    placement.flip(file_id, target)
    tier.journal_flip(file_id, target)
    run(scheduler, tier.journal_commit, file_id)
    wal_image = bytes(store.wal)
    run(scheduler, tier.checkpoint)
    store.wal[:] = wal_image  # undo the truncate: the crash left stale records

    # The file was then forgotten in memory but the manifest already has the
    # override; stale sub-checkpoint records must not resurrect anything.
    fresh_tier, fresh_placement, _ = make_tier(scheduler, store=store)
    run(scheduler, fresh_tier.recover)
    assert fresh_placement.overrides_snapshot() == {file_id: target}
    assert fresh_tier.replayed_records == 0  # every record was stale


def test_recovery_rejects_a_mismatched_manifest(scheduler):
    store = DurableStore()
    tier, placement, _ = make_tier(scheduler, nodes=2, store=store)
    tier.journal_flip(4, 1)
    run(scheduler, tier.journal_commit, 4)
    run(scheduler, tier.checkpoint)
    wrong_tier, _, _ = make_tier(scheduler, nodes=4, store=store)
    with pytest.raises(ConfigurationError):
        run(scheduler, wrong_tier.recover)


def test_mount_format_wipes_stale_metadata(scheduler):
    store = DurableStore()
    tier, placement, _ = make_tier(scheduler, store=store)
    placement.flip(4, 1)
    tier.journal_flip(4, 1)
    run(scheduler, tier.journal_commit, 4)
    run(scheduler, tier.checkpoint)
    fresh_tier, fresh_placement, device = make_tier(scheduler, store=store)
    fresh_tier.wipe()  # format: stale routing must die
    assert device.wal_bytes == 0 and store.manifest is None
    assert fresh_placement.overrides_snapshot() == {}


def test_idle_tier_unmounts_without_touching_the_device(scheduler):
    store = DurableStore()
    tier, _, _ = make_tier(scheduler, store=store)
    run(scheduler, tier.on_unmount)
    assert store.manifest is None and len(store.wal) == 0


# --------------------------------------------------------------------------- prefix-replay property

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

NUM_VOLUMES = 4


@st.composite
def migration_histories(draw):
    """A sequence of (file_id, target, committed, forgotten) migrations."""
    n = draw(st.integers(min_value=1, max_value=8))
    ops = []
    for _ in range(n):
        file_id = draw(st.integers(min_value=2, max_value=7))
        target = draw(st.integers(min_value=0, max_value=NUM_VOLUMES - 1))
        committed = draw(st.booleans())
        forgotten = committed and draw(st.booleans())
        ops.append((file_id, target, committed, forgotten))
    return ops


def encode_history(ops):
    """The durable WAL image a crash-free run of ``ops`` would leave."""
    records = []
    lsn = 0
    for file_id, target, committed, forgotten in ops:
        lsn += 1
        records.append(WalRecord(lsn, REC_BEGIN, file_id, 0))
        lsn += 1
        records.append(WalRecord(lsn, REC_FLIP, file_id, target))
        if committed:
            lsn += 1
            records.append(WalRecord(lsn, REC_COMMIT, file_id, 0))
            lsn += 1
            records.append(WalRecord(lsn, REC_END, file_id, 0))
            if forgotten:
                lsn += 1
                records.append(WalRecord(lsn, REC_FORGET, file_id, 0))
    return b"".join(r.encode() for r in records)


def expected_routes(data):
    """An independent mini-model of the recovery contract: the route of
    every file under the commit rule, given a durable WAL image."""
    records, _ = decode_wal(data)
    commits = {}
    for r in records:
        if r.rtype == REC_COMMIT:
            commits.setdefault(r.file_id, []).append(r.lsn)
    table = {}
    for r in records:
        if r.rtype == REC_FLIP and any(l > r.lsn for l in commits.get(r.file_id, ())):
            table[r.file_id] = r.arg
        elif r.rtype == REC_FORGET:
            table.pop(r.file_id, None)
    return table


@given(ops=migration_histories(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_any_wal_prefix_recovers_a_consistent_routing_table(ops, data):
    """Every durable prefix of the journal — including prefixes cut inside
    a frame, the torn tail — recovers to a routing table under which every
    file routes to a valid volume and the commit protocol's promise holds:
    committed flips route to the new home, uncommitted ones to the old."""
    image = encode_history(ops)
    cut = data.draw(st.integers(min_value=0, max_value=len(image)))
    prefix = image[:cut]

    scheduler = Scheduler(seed=1)
    store = DurableStore()
    store.wal[:] = prefix
    placement = ClusterPlacement(HashPlacement(NUM_VOLUMES), 2, 2)
    device = MemoryMetadataDevice(scheduler, store=store)
    wal = WriteAheadLog(scheduler, device)
    tier = MetadataTier(scheduler, placement, wal, ManifestStore(scheduler, device))
    run(scheduler, tier.recover)

    table = placement.overrides_snapshot()
    expected = expected_routes(prefix)
    # Striped placement is not in play, so entries flipped back to their
    # native home may be dropped from the table; routing must still agree.
    for file_id in range(2, 8):
        route = placement.volume_of_file(file_id)
        assert 0 <= route < NUM_VOLUMES
        assert route == expected.get(file_id, HashPlacement(NUM_VOLUMES).volume_of_file(file_id))
    for file_id, volume in table.items():
        assert 0 <= volume < NUM_VOLUMES

    # Recovery is idempotent: a second replay converges to the same table.
    run(scheduler, tier.recover)
    assert placement.overrides_snapshot() == table
