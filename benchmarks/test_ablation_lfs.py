"""Ablation: LFS segment size and cleaner policy.

DESIGN.md calls out the segment size and the cleaner policy (greedy vs.
cost-benefit) as the main free parameters of the storage layout.  This
benchmark writes and rewrites files on a small real (memory-backed) LFS and
reports how much cleaning each configuration needed.
"""

from benchmarks.conftest import run_once
from repro.assembly.registry import registry
from repro.core.blocks import CacheBlock
from repro.core.clock import VirtualClock
from repro.core.inode import FileKind
from repro.core.scheduler import Scheduler
from repro.core.storage.cleaner import CleanerDaemon
from repro.core.storage.lfs import LogStructuredLayout
from repro.core.storage.volume import LocalVolume
from repro.pfs.diskfile import MemoryBackedDiskDriver
from repro.units import KB, MB

REWRITE_ROUNDS = 45
FILE_BLOCKS = 24


def run_configuration(segment_blocks: int, cleaner_policy: str) -> dict:
    scheduler = Scheduler(clock=VirtualClock(), seed=5)
    driver = MemoryBackedDiskDriver(scheduler, size_bytes=4 * MB)
    volume = LocalVolume([driver], block_size=4 * KB)
    layout = LogStructuredLayout(
        scheduler, volume, block_size=4 * KB, segment_blocks=segment_blocks, simulated=False
    )
    daemon = CleanerDaemon(
        scheduler, layout, registry.create("cleaner", cleaner_policy), low_water=0.3, high_water=0.5
    )

    def body():
        yield from layout.format()
        yield from layout.mount()
        inode = layout.allocate_inode(FileKind.REGULAR)
        block = CacheBlock(0, 4 * KB, with_data=True)
        block.data[:4] = b"lfsd"
        for _round in range(REWRITE_ROUNDS):
            yield from layout.write_file_blocks(
                inode, [(i, block) for i in range(FILE_BLOCKS)]
            )
            if layout.free_segment_fraction < daemon.low_water:
                yield from daemon.clean_until(daemon.high_water)

    thread = scheduler.spawn(body)
    scheduler.run_until_complete(thread)
    return {
        "segments_cleaned": layout.stats.cleaner_segments_cleaned,
        "blocks_copied": layout.stats.cleaner_blocks_copied,
        "disk_writes": layout.stats.disk_writes,
        "free_fraction": layout.free_segment_fraction,
    }


def run_all():
    results = {}
    for segment_blocks in (16, 64):
        for policy in ("greedy", "cost-benefit"):
            results[f"seg={segment_blocks} {policy}"] = run_configuration(segment_blocks, policy)
    return results


def test_ablation_lfs_segment_and_cleaner(benchmark):
    results = run_once(benchmark, run_all)
    print()
    for name, stats in results.items():
        print(
            f"{name:>22}: cleaned={stats['segments_cleaned']:3d} segments, "
            f"copied={stats['blocks_copied']:4d} blocks, disk writes={stats['disk_writes']:4d}"
        )
    # Every configuration must survive the rewrite workload with free space left.
    assert all(stats["free_fraction"] > 0.05 for stats in results.values())
    # Overwriting the same file repeatedly forces the cleaner to work.
    assert any(stats["segments_cleaned"] > 0 for stats in results.values())
