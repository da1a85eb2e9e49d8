"""The LFS cleaner daemon and cleaning policies."""

import pytest

from repro.assembly.registry import registry
from repro.core.blocks import CacheBlock
from repro.core.inode import FileKind
from repro.core.storage.cleaner import (
    CleanerDaemon,
    CostBenefitCleaner,
    GreedyCleaner,
)
from repro.core.storage.lfs import LogStructuredLayout, SegmentInfo
from repro.core.storage.volume import LocalVolume
from repro.errors import ConfigurationError
from repro.pfs.diskfile import MemoryBackedDiskDriver
from repro.units import KB, MB
from tests.conftest import run


def make_layout(scheduler, disk_mb=4, segment_blocks=8):
    driver = MemoryBackedDiskDriver(scheduler, size_bytes=disk_mb * MB)
    volume = LocalVolume([driver], block_size=4 * KB)
    layout = LogStructuredLayout(
        scheduler, volume, block_size=4 * KB, segment_blocks=segment_blocks, simulated=False
    )
    run(scheduler, layout.format)
    run(scheduler, layout.mount)
    return layout


def data_block(payload=b"x"):
    block = CacheBlock(0, 4 * KB, with_data=True)
    block.data[: len(payload)] = payload
    return block


def test_make_cleaner_factory():
    assert isinstance(registry.create("cleaner", "greedy"), GreedyCleaner)
    assert isinstance(registry.create("cleaner", "cost-benefit"), CostBenefitCleaner)
    with pytest.raises(ConfigurationError):
        registry.create("cleaner", "magic")


def test_greedy_picks_emptiest_segment():
    infos = [SegmentInfo(0, 5, 7, 0.0), SegmentInfo(1, 1, 7, 0.0), SegmentInfo(2, 3, 7, 0.0)]
    assert GreedyCleaner().choose(infos, now=10.0).index == 1
    assert GreedyCleaner().choose([], now=10.0) is None


def test_cost_benefit_prefers_old_empty_segments():
    young_full = SegmentInfo(0, 6, 7, modified_at=9.0)
    old_empty = SegmentInfo(1, 1, 7, modified_at=1.0)
    assert CostBenefitCleaner().choose([young_full, old_empty], now=10.0).index == 1
    assert CostBenefitCleaner().choose([], now=10.0) is None


def test_cleaner_daemon_recovers_free_segments(scheduler):
    layout = make_layout(scheduler, disk_mb=2, segment_blocks=8)
    daemon = CleanerDaemon(
        scheduler, layout, GreedyCleaner(), low_water=0.2, high_water=0.5, check_interval=1.0
    )
    inode = layout.allocate_inode(FileKind.REGULAR)
    # Write and rewrite the same blocks so most segments are full of dead data.
    for _round in range(6):
        run(
            scheduler,
            layout.write_file_blocks,
            inode,
            [(i, data_block(b"r")) for i in range(12)],
        )
    assert layout.free_segment_fraction < 0.9
    cleaned = run(scheduler, daemon.clean_until, 0.95)
    assert cleaned >= 1
    assert layout.free_segment_fraction >= 0.9
    assert daemon.segments_cleaned == cleaned


def test_cleaner_daemon_thread_runs_in_background(scheduler):
    layout = make_layout(scheduler, disk_mb=2, segment_blocks=8)
    daemon = CleanerDaemon(
        scheduler, layout, GreedyCleaner(), low_water=0.6, high_water=0.8, check_interval=1.0
    )
    daemon.start()
    inode = layout.allocate_inode(FileKind.REGULAR)
    for _round in range(6):
        run(
            scheduler,
            layout.write_file_blocks,
            inode,
            [(i, data_block(b"q")) for i in range(10)],
        )
    scheduler.run(until=20.0)
    assert layout.free_segment_fraction >= 0.6
    assert daemon.blocks_copied >= 0


def test_cleaner_water_mark_validation(scheduler):
    layout = make_layout(scheduler)
    with pytest.raises(ConfigurationError):
        CleanerDaemon(scheduler, layout, GreedyCleaner(), low_water=0.8, high_water=0.3)


def test_segment_info_utilisation():
    info = SegmentInfo(index=0, live_blocks=3, capacity=6, modified_at=0.0)
    assert info.utilisation == pytest.approx(0.5)
