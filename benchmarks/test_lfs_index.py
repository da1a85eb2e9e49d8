"""LFS read and cleaner paths: lazy mounts, bounded cleaner scans, coalesced reads.

Three costs the LFS keeps growing with the work actually requested instead
of with the volume:

* **mount** reads the superblock and the checkpoint, not one summary block
  per non-free segment;
* a **cleaner wakeup** draws a bounded candidate set from the utilisation
  buckets, not an O(num_segments) list;
* **cold sequential reads** are one disk operation per contiguous extent,
  not one per 4 KB block.

1. ``mount`` — a real (byte-moving) layout is filled and checkpointed,
   then remounted: disk reads and wall time per mount at two fill levels.
2. ``cleaner_scan`` — simulated layouts with growing segment counts;
   candidates and wall time per victim selection.
3. ``cold_read`` — the ``sun4_280`` 10-disk preset replaying a
   write-then-sequential-scan trace through a deliberately small cache:
   read p50/p95 and disk operations.
4. ``cluster`` — the same trace on the 4-node cluster preset.

Simulated and counted results land in ``BENCH_lfs_index.json`` at the
repository root (they repeat exactly, and ``check_lfs_index_baseline.py``
gates CI on them with ``==``); this machine's wall-clock numbers go to the
git-ignored ``BENCH_lfs_index.host.json``.
"""

from __future__ import annotations

import time

from benchmarks.conftest import BENCH_SEED, BENCH_TRACE_SCALE, run_once, write_results
from repro.config import cluster_config, sun4_280_config
from repro.core.clock import VirtualClock
from repro.core.inode import FileKind
from repro.core.scheduler import Scheduler
from repro.core.storage.lfs import LogStructuredLayout
from repro.core.storage.volume import LocalVolume
from repro.core.blocks import CacheBlock
from repro.patsy.simulator import PatsySimulator
from repro.patsy.traces import TraceRecord
from repro.pfs.diskfile import MemoryBackedDiskDriver
from repro.units import KB, MB

BOUND = LogStructuredLayout.cleaner_candidate_bound
BLOCK = 4 * KB


def run(scheduler, target, *args, **kwargs):
    thread = scheduler.spawn(target, *args, **kwargs)
    return scheduler.run_until_complete(thread)


# --------------------------------------------------------------------------- 1. mount


def _filled_volume(scheduler, files, blocks_per_file=12, segment_blocks=16):
    """A real layout filled with ``files`` files and checkpointed; returns
    its volume (the 'disk image' the mount benchmark remounts over)."""
    disk_mb = max(8, (files * blocks_per_file * BLOCK * 3) // MB)
    driver = MemoryBackedDiskDriver(scheduler, size_bytes=disk_mb * MB)
    volume = LocalVolume([driver], block_size=BLOCK)
    layout = LogStructuredLayout(
        scheduler, volume, block_size=BLOCK, segment_blocks=segment_blocks
    )
    run(scheduler, layout.format)
    run(scheduler, layout.mount)
    for i in range(files):
        inode = layout.allocate_inode(FileKind.REGULAR)
        pairs = []
        for j in range(blocks_per_file):
            block = CacheBlock(0, BLOCK, with_data=True)
            block.data[:16] = bytes([(i + j) % 251]) * 16
            pairs.append((j, block))
        run(scheduler, layout.write_file_blocks, inode, pairs)
    run(scheduler, layout.checkpoint)
    non_free = layout.num_segments - layout.free_segment_count
    return volume, non_free, segment_blocks


def bench_mount():
    rows = []
    for files in (40, 160):
        scheduler = Scheduler(clock=VirtualClock(), seed=BENCH_SEED)
        volume, non_free, segment_blocks = _filled_volume(scheduler, files)
        layout = LogStructuredLayout(
            scheduler, volume, block_size=BLOCK, segment_blocks=segment_blocks
        )
        started = time.perf_counter()
        run(scheduler, layout.mount)
        elapsed = time.perf_counter() - started
        rows.append(
            {
                "files": files,
                "non_free_segments": non_free,
                "disk_reads": layout.stats.disk_reads,
                "wall_seconds": round(elapsed, 6),
            }
        )
    return rows


# --------------------------------------------------------------------------- 2. cleaner scan


def _simulated_layout_with_segments(target_segments):
    scheduler = Scheduler(clock=VirtualClock(), seed=BENCH_SEED)
    segment_blocks = 16
    disk_mb = max(8, (target_segments + 8) * segment_blocks * BLOCK // MB + 1)
    driver = MemoryBackedDiskDriver(scheduler, size_bytes=disk_mb * MB)
    volume = LocalVolume([driver], block_size=BLOCK)
    layout = LogStructuredLayout(
        scheduler, volume, block_size=BLOCK, segment_blocks=segment_blocks, simulated=True
    )
    run(scheduler, layout.format)
    run(scheduler, layout.mount)
    inode = layout.allocate_inode(FileKind.REGULAR)
    blocks_needed = target_segments * (segment_blocks - 1)
    written = 0
    while written < blocks_needed:
        batch = [
            (written + j, CacheBlock(0, BLOCK, with_data=False))
            for j in range(min(64, blocks_needed - written))
        ]
        # Data only: the segment count is sized for exactly these blocks.
        run(scheduler, lambda: layout.write_file_blocks(inode, batch, with_inode=False))
        written += len(batch)
    # Vary utilisation: retire the most recent third of the log's blocks.
    run(scheduler, layout.release_blocks, inode, written - written // 3)
    return layout


def bench_cleaner_scan(choose_calls=200):
    rows = []
    for segments in (64, 256, 1024):
        layout = _simulated_layout_with_segments(segments)
        started = time.perf_counter()
        considered = 0
        for _ in range(choose_calls):
            considered += len(layout.cleaner_candidates())
        elapsed = time.perf_counter() - started
        rows.append(
            {
                "sealed_segments": segments,
                "candidates_per_choose": considered / choose_calls,
                "microseconds_per_choose": round(elapsed / choose_calls * 1e6, 2),
            }
        )
    return rows


# --------------------------------------------------------------------------- 3/4. cold reads


def scan_trace(files=48, file_kb=96, read_chunk=4 * KB):
    """Write ``files`` files, then scan every one sequentially in
    block-sized reads, over a working set larger than the scaled-down
    cache — every scan read is cold.  One block per read op keeps the
    cache from fanning a single op's misses out concurrently, which is
    the regime run coalescing targets: op N's run stages the blocks ops
    N+1..N+7 are about to ask for."""
    records = []
    clock = 0.0
    for i in range(files):
        records.append(
            TraceRecord(clock, i % 8, "write", f"/scan/f{i}", 0, file_kb * KB)
        )
        clock += 0.05
    clock += 5.0
    for i in range(files):
        for offset in range(0, file_kb * KB, read_chunk):
            records.append(
                TraceRecord(clock, i % 8, "read", f"/scan/f{i}", offset, read_chunk)
            )
            clock += 0.01
    return records


def _read_percentiles(result):
    summary = result.latency.summary()
    return {
        "p50": summary["median_latency"],
        "p95": summary["p95_latency"],
        "mean": summary["mean_latency"],
    }


def bench_cold_read():
    # scale=0.1: a 12.8 MB cache, deliberately smaller than the ~19 MB scan
    # working set so every scan read misses.
    config = sun4_280_config(scale=0.1, seed=BENCH_SEED)
    result = PatsySimulator(config).replay(
        scan_trace(files=200), trace_name="lfs-index-scan"
    )
    assert result.errors == 0
    rollup = result.volume_stats["rollup"]
    return {
        "operations": result.operations,
        "simulated_time": round(result.simulated_time, 3),
        "latency": _read_percentiles(result),
        "disk_reads": rollup["layout"]["disk_reads"],
        "cold_read_runs": rollup["layout"]["cold_read_runs"],
        "coalesced_read_hits": rollup["layout"]["coalesced_read_hits"],
    }


def bench_cluster():
    config = cluster_config(nodes=4, scale=0.002, seed=BENCH_SEED, rebalance=False)
    result = PatsySimulator(config).replay(
        scan_trace(files=32), trace_name="lfs-index-cluster"
    )
    assert result.errors == 0
    return {
        "operations": result.operations,
        "simulated_time": round(result.simulated_time, 3),
        "latency": _read_percentiles(result),
    }


# --------------------------------------------------------------------------- the benchmark


def run_all():
    return {
        "mount": bench_mount(),
        "cleaner_scan": bench_cleaner_scan(),
        "cold_read": bench_cold_read(),
        "cluster": bench_cluster(),
    }


def test_lfs_index_read_and_cleaner_path(benchmark):
    report = run_once(benchmark, run_all)
    report["trace_scale"] = BENCH_TRACE_SCALE
    host = {
        "mount": [
            {"files": row["files"], "wall_seconds": row.pop("wall_seconds")}
            for row in report["mount"]
        ],
        "cleaner_scan": [
            {
                "sealed_segments": row["sealed_segments"],
                "microseconds_per_choose": row.pop("microseconds_per_choose"),
            }
            for row in report["cleaner_scan"]
        ],
    }
    write_results("lfs_index", report, host)

    print()
    print("mount (disk reads):")
    for row in report["mount"]:
        print(f"  {row['non_free_segments']:>4} non-free segments: {row['disk_reads']} reads")
        # Lazy mount: superblock + checkpoint, never one read per segment.
        assert row["non_free_segments"] > 4
        assert row["disk_reads"] <= 4

    print("cleaner victim selection (per choose):")
    for row, timing in zip(report["cleaner_scan"], host["cleaner_scan"]):
        print(
            f"  {row['sealed_segments']:>5} segments: "
            f"{timing['microseconds_per_choose']:>8}us ({row['candidates_per_choose']:.0f} cands)"
        )
        # The candidate set is bounded however large the volume.
        assert row["candidates_per_choose"] <= BOUND
    assert report["cleaner_scan"][-1]["sealed_segments"] > 4 * BOUND

    cold = report["cold_read"]
    print(
        f"cold sequential scan (10-disk sun4_280): "
        f"p50={cold['latency']['p50'] * 1000:.2f}ms  disk-reads={cold['disk_reads']}"
    )
    assert cold["cold_read_runs"] > 0 and cold["coalesced_read_hits"] > 0
    # Fewer disk reads than blocks read: extents, not blocks.
    assert cold["disk_reads"] < cold["operations"] / 2

    print(f"4-node cluster: p50={report['cluster']['latency']['p50'] * 1000:.2f}ms")
