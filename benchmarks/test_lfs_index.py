"""LFS segment indexes: lazy mounts, bounded cleaner scans, coalesced reads.

Three costs of the pre-index LFS grew with volume size, not with the work
actually requested:

* **mount** re-read one summary block per non-free segment;
* every **cleaner wakeup** rebuilt an O(num_segments) candidate list;
* **cold sequential reads** paid one disk operation per 4 KB block even
  when LFS had laid the file out contiguously.

This benchmark measures all three with the LSM-style per-segment indexes
on and off, plus a 4-node cluster replay of the cold-read workload:

1. ``mount`` — a real (byte-moving) layout is filled and checkpointed,
   then remounted: disk reads and wall time per mount, on vs off, at two
   fill levels.
2. ``cleaner_scan`` — simulated layouts with growing segment counts; wall
   time per victim selection for the bucket-backed bounded candidate set
   vs the full ``segment_infos()`` scan.
3. ``cold_read`` — the ``sun4_280`` 10-disk preset replaying a
   write-then-sequential-scan trace through a deliberately small cache:
   read p50/p95 and disk operations, on vs off, plus the in-core index
   memory as a fraction of the cache budget (must stay under 1%).
4. ``cluster`` — the same trace on the 4-node cluster preset.

Results land in ``BENCH_lfs_index.json`` at the repository root;
``check_lfs_index_baseline.py`` gates CI on the committed baseline.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from pathlib import Path

from benchmarks.conftest import BENCH_SEED, BENCH_TRACE_SCALE, run_once
from repro.config import cluster_config, sun4_280_config
from repro.core.clock import VirtualClock
from repro.core.inode import FileKind
from repro.core.scheduler import Scheduler
from repro.core.storage.lfs import LogStructuredLayout
from repro.core.storage.segindex import SegmentIndexConfig
from repro.core.storage.volume import LocalVolume
from repro.core.blocks import CacheBlock
from repro.patsy.simulator import PatsySimulator
from repro.patsy.traces import TraceRecord
from repro.pfs.diskfile import MemoryBackedDiskDriver
from repro.units import KB, MB

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_lfs_index.json"
INDEX = SegmentIndexConfig()
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
        scheduler, volume, block_size=BLOCK, segment_blocks=segment_blocks,
        index_config=INDEX,
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


def _measure_mount(scheduler, volume, segment_blocks, index_config):
    layout = LogStructuredLayout(
        scheduler, volume, block_size=BLOCK, segment_blocks=segment_blocks,
        index_config=index_config,
    )
    started = time.perf_counter()
    run(scheduler, layout.mount)
    elapsed = time.perf_counter() - started
    return {
        "disk_reads": layout.stats.disk_reads,
        "wall_seconds": round(elapsed, 6),
    }


def bench_mount():
    rows = []
    for files in (40, 160):
        scheduler = Scheduler(clock=VirtualClock(), seed=BENCH_SEED)
        volume, non_free, segment_blocks = _filled_volume(scheduler, files)
        on = _measure_mount(scheduler, volume, segment_blocks, INDEX)
        off = _measure_mount(scheduler, volume, segment_blocks, None)
        rows.append(
            {
                "files": files,
                "non_free_segments": non_free,
                "index_on": on,
                "index_off": off,
            }
        )
    return rows


# --------------------------------------------------------------------------- 2. cleaner scan


def _simulated_layout_with_segments(target_segments, index_config):
    scheduler = Scheduler(clock=VirtualClock(), seed=BENCH_SEED)
    segment_blocks = 16
    disk_mb = max(8, (target_segments + 8) * segment_blocks * BLOCK // MB + 1)
    driver = MemoryBackedDiskDriver(scheduler, size_bytes=disk_mb * MB)
    volume = LocalVolume([driver], block_size=BLOCK)
    layout = LogStructuredLayout(
        scheduler, volume, block_size=BLOCK, segment_blocks=segment_blocks,
        simulated=True, index_config=index_config,
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
        row = {"sealed_segments": segments}
        for label, config in (("index_on", INDEX), ("index_off", None)):
            layout = _simulated_layout_with_segments(segments, config)
            started = time.perf_counter()
            considered = 0
            for _ in range(choose_calls):
                considered += len(layout.cleaner_candidates())
            elapsed = time.perf_counter() - started
            row[label] = {
                "microseconds_per_choose": round(elapsed / choose_calls * 1e6, 2),
                "candidates_per_choose": considered / choose_calls,
            }
        rows.append(row)
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


def _cold_read_config(segment_index):
    # scale=0.1: a 12.8 MB cache, deliberately smaller than the ~19 MB scan
    # working set so every scan read misses — while keeping the cache budget
    # large enough that the <=1% index-memory bound is a meaningful claim.
    config = sun4_280_config(scale=0.1, seed=BENCH_SEED)
    return replace(
        config, layout=replace(config.layout, segment_index=segment_index)
    )


def _read_percentiles(result):
    summary = result.latency.summary()
    return {
        "p50": summary["median_latency"],
        "p95": summary["p95_latency"],
        "mean": summary["mean_latency"],
    }


def _run_cold_read(segment_index):
    config = _cold_read_config(segment_index)
    result = PatsySimulator(config).replay(
        scan_trace(files=200), trace_name="lfs-index-scan"
    )
    assert result.errors == 0
    layout = result.volume_stats["rollup"]["layout"]
    entry = {
        "operations": result.operations,
        "simulated_time": round(result.simulated_time, 3),
        "latency": _read_percentiles(result),
        "disk_reads": layout["disk_reads"],
        "cold_read_runs": layout.get("cold_read_runs", 0),
        "coalesced_read_hits": layout.get("coalesced_read_hits", 0),
    }
    index_rollup = result.volume_stats["rollup"].get("index")
    if index_rollup is not None:
        entry["index_memory_bytes"] = index_rollup["memory_bytes"]
        entry["index_fraction_of_cache"] = round(
            index_rollup["fraction_of_cache"], 5
        )
    return entry


def bench_cold_read():
    return {"index_on": _run_cold_read(True), "index_off": _run_cold_read(False)}


def _run_cluster(segment_index):
    config = cluster_config(nodes=4, scale=0.002, seed=BENCH_SEED, rebalance=False)
    config = replace(
        config, layout=replace(config.layout, segment_index=segment_index)
    )
    result = PatsySimulator(config).replay(
        scan_trace(files=32), trace_name="lfs-index-cluster"
    )
    assert result.errors == 0
    return {
        "operations": result.operations,
        "simulated_time": round(result.simulated_time, 3),
        "latency": _read_percentiles(result),
    }


def bench_cluster():
    return {"index_on": _run_cluster(True), "index_off": _run_cluster(False)}


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
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    print()
    print("mount (disk reads, on vs off):")
    for row in report["mount"]:
        print(
            f"  {row['non_free_segments']:>4} non-free segments: "
            f"on={row['index_on']['disk_reads']} reads  "
            f"off={row['index_off']['disk_reads']} reads"
        )
        # Lazy mount: superblock + checkpoint, never one read per segment.
        assert row["index_on"]["disk_reads"] <= 4
        assert row["index_off"]["disk_reads"] > row["non_free_segments"]

    print("cleaner victim selection (per choose):")
    for row in report["cleaner_scan"]:
        on, off = row["index_on"], row["index_off"]
        print(
            f"  {row['sealed_segments']:>5} segments: "
            f"on={on['microseconds_per_choose']:>8}us ({on['candidates_per_choose']:.0f} cands)  "
            f"off={off['microseconds_per_choose']:>8}us ({off['candidates_per_choose']:.0f} cands)"
        )
        # The candidate set is bounded; the full scan grows with the volume.
        assert on["candidates_per_choose"] <= INDEX.cleaner_candidates
    scans = report["cleaner_scan"]
    assert scans[-1]["index_off"]["candidates_per_choose"] > 4 * INDEX.cleaner_candidates

    cold = report["cold_read"]
    on, off = cold["index_on"], cold["index_off"]
    print(
        f"cold sequential scan (10-disk sun4_280): "
        f"p50 on={on['latency']['p50'] * 1000:.2f}ms off={off['latency']['p50'] * 1000:.2f}ms  "
        f"disk-reads on={on['disk_reads']} off={off['disk_reads']}"
    )
    assert on["cold_read_runs"] > 0 and on["coalesced_read_hits"] > 0
    assert on["disk_reads"] < off["disk_reads"]
    assert on["latency"]["p50"] <= off["latency"]["p50"]
    assert on["index_fraction_of_cache"] <= 0.01

    cluster = report["cluster"]
    print(
        f"4-node cluster: p50 on={cluster['index_on']['latency']['p50'] * 1000:.2f}ms "
        f"off={cluster['index_off']['latency']['p50'] * 1000:.2f}ms"
    )
    print(f"results -> {RESULT_PATH.name}")
