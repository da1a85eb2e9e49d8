"""Recovery cost: WAL replay time vs journal length, group vs per-record commit.

Two measurements around the durable metadata tier:

1. **Replay** — recover a routing table from journals of growing length,
   with and without a manifest checkpoint folding the log in first.  The
   charged (simulated) replay time must grow with the journal and collapse
   to near zero once the manifest absorbs it — the trade-off the
   checkpoint exists for.
2. **Group commit** — journal the same stream of flip records with the
   default batching knobs and with ``commit_records=1`` (a device write per
   record).  The batched journal must reach durability in far fewer, larger
   commits and correspondingly less charged device time.

Results land in ``BENCH_recovery.json`` at the repository root so CI can
track recovery cost per PR; the replay's wall-clock time goes to the
git-ignored ``BENCH_recovery.host.json``.
"""

from __future__ import annotations

import time

from benchmarks.conftest import BENCH_SEED, BENCH_TRACE_SCALE, run_once, write_results
from repro.config import ClusterConfig
from repro.core.cluster.placement import ClusterPlacement
from repro.core.metadata import (
    DurableStore,
    ManifestStore,
    MemoryMetadataDevice,
    MetadataTier,
    WriteAheadLog,
)
from repro.core.metadata.wal import REC_FLIP
from repro.core.scheduler import Scheduler
from repro.core.storage.array import HashPlacement

NODES = 4
VOLUMES_PER_NODE = 2
NUM_VOLUMES = NODES * VOLUMES_PER_NODE

#: how many migrations each journal describes (4 records per migration).
MIGRATION_STEPS = tuple(
    max(16, int(n * max(BENCH_TRACE_SCALE, 0.1) / 0.4)) for n in (250, 1000, 4000)
)


def make_tier(store, **cluster):
    config = ClusterConfig(nodes=NODES, **cluster)
    scheduler = Scheduler(seed=BENCH_SEED)
    placement = ClusterPlacement(HashPlacement(NUM_VOLUMES), NODES, VOLUMES_PER_NODE)
    device = MemoryMetadataDevice(
        scheduler,
        store=store,
        latency=config.metadata_latency,
        bandwidth=config.metadata_bandwidth,
    )
    wal = WriteAheadLog(
        scheduler,
        device,
        commit_records=config.wal_commit_records,
        commit_bytes=config.wal_commit_bytes,
        commit_interval=0.0,  # no daemon: the benchmark drives every sync
    )
    manifest_store = ManifestStore(scheduler, device)
    tier = MetadataTier(scheduler, placement, wal, manifest_store, config)
    return tier, placement, scheduler


def drive(scheduler, generator_fn, *args):
    thread = scheduler.spawn(generator_fn, *args)
    return scheduler.run_until_complete(thread)


def journal_migrations(tier, scheduler, count):
    """Journal ``count`` migrations (BEGIN/FLIP/COMMIT/END) the way the
    rebalancer does: buffered appends, a forced sync at each COMMIT."""

    def body():
        for i in range(count):
            file_id = 2 + i
            target = i % NUM_VOLUMES
            tier.journal_begin(file_id, (target + 1) % NUM_VOLUMES, target)
            tier.placement.flip(file_id, target)
            tier.journal_flip(file_id, target)
            yield from tier.journal_commit(file_id)
            tier.journal_end(file_id)
        yield from tier.wal.sync()

    drive(scheduler, body)


def replay_row(migrations, checkpointed):
    store = DurableStore()
    writer, _, write_scheduler = make_tier(store)
    journal_migrations(writer, write_scheduler, migrations)
    if checkpointed:
        drive(write_scheduler, writer.checkpoint)

    reader, placement, scheduler = make_tier(store)
    started_sim = scheduler.now
    started_wall = time.perf_counter()
    drive(scheduler, reader.recover)
    wall_ms = (time.perf_counter() - started_wall) * 1e3
    return {
        "migrations": migrations,
        "checkpointed": checkpointed,
        "wal_bytes": len(store.wal),
        "replayed_records": reader.replayed_records,
        "applied_flips": reader.applied_flips,
        "displaced_files": placement.displaced_files,
        "replay_time_simulated": scheduler.now - started_sim,
        "replay_wall_ms": wall_ms,
    }


def commit_row(commit_records, records):
    store = DurableStore()
    tier, _, scheduler = make_tier(store, wal_commit_records=commit_records)
    wal = tier.wal

    def body():
        for i in range(records):
            wal.append(REC_FLIP, 2 + i, i % NUM_VOLUMES)
            yield from wal.maybe_sync()
        yield from wal.sync()

    drive(scheduler, body)
    return {
        "commit_records": commit_records,
        "records": records,
        "commits": wal.commits,
        "bytes_committed": wal.bytes_committed,
        "journal_time_simulated": scheduler.now,
    }


def run_recovery_benchmarks():
    replay_rows = [replay_row(n, checkpointed=False) for n in MIGRATION_STEPS]
    checkpoint_rows = [replay_row(MIGRATION_STEPS[-1], checkpointed=True)]
    records = 4 * MIGRATION_STEPS[-1]
    commit_rows = [
        commit_row(ClusterConfig().wal_commit_records, records),
        commit_row(1, records),
    ]
    return replay_rows, checkpoint_rows, commit_rows


def test_recovery_replay_and_group_commit(benchmark):
    replay_rows, checkpoint_rows, commit_rows = run_once(
        benchmark, run_recovery_benchmarks
    )
    host = {
        "replay_wall_ms": [
            {
                "migrations": row["migrations"],
                "checkpointed": row["checkpointed"],
                "replay_wall_ms": row.pop("replay_wall_ms"),
            }
            for row in replay_rows + checkpoint_rows
        ]
    }
    print()
    header = (
        f"{'migrations':>10} {'ckpt':>5} {'wal-bytes':>10} {'replayed':>9} "
        f"{'sim-replay':>11} {'wall':>9}"
    )
    print(header)
    print("-" * len(header))
    for row, timing in zip(replay_rows + checkpoint_rows, host["replay_wall_ms"]):
        print(
            f"{row['migrations']:>10} {str(row['checkpointed']):>5} "
            f"{row['wal_bytes']:>10} {row['replayed_records']:>9} "
            f"{row['replay_time_simulated'] * 1000:>9.2f}ms {timing['replay_wall_ms']:>7.2f}ms"
        )
    print()
    for row in commit_rows:
        label = "group-commit" if row["commit_records"] > 1 else "per-record"
        print(
            f"  {label:<13} records={row['records']} commits={row['commits']} "
            f"journal-time={row['journal_time_simulated'] * 1000:.2f}ms"
        )

    # Replay cost grows with the journal...
    sim_times = [row["replay_time_simulated"] for row in replay_rows]
    assert sim_times == sorted(sim_times) and sim_times[0] < sim_times[-1]
    for row in replay_rows:
        assert row["applied_flips"] > 0 and row["replayed_records"] >= row["migrations"]
    # ...and the manifest checkpoint bounds it: nothing left to replay.
    folded = checkpoint_rows[0]
    assert folded["replayed_records"] == 0
    assert folded["replay_time_simulated"] < sim_times[-1]
    assert folded["displaced_files"] == replay_rows[-1]["displaced_files"]
    # Group commit amortises the per-commit latency over whole batches.
    grouped, per_record = commit_rows
    assert grouped["commits"] < per_record["commits"] / 4
    assert grouped["journal_time_simulated"] < per_record["journal_time_simulated"]

    write_results(
        "recovery",
        {"replay": replay_rows, "checkpointed": checkpoint_rows, "group_commit": commit_rows},
        host,
    )
