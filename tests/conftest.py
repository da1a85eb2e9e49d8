"""Shared pytest fixtures and helpers.

Most framework operations are generators driven by the cooperative
scheduler; the ``run`` helper spawns a generator as a thread and drives the
scheduler until it completes, which is how tests call into the framework.
"""

from __future__ import annotations

import pytest

from repro.assembly.registry import registry
from repro.assembly.spec import StackSpec
from repro.config import CacheConfig, FlushConfig, LayoutConfig
from repro.core.cache import BlockCache
from repro.core.clock import VirtualClock
from repro.core.datamover import DataMover
from repro.core.filesystem import FileSystem
from repro.core.scheduler import FifoSchedulingPolicy, Scheduler
from repro.core.storage.lfs import LogStructuredLayout
from repro.core.storage.segindex import SegmentIndexConfig
from repro.core.storage.volume import LocalVolume
from repro.pfs.diskfile import MemoryBackedDiskDriver
from repro.pfs.filesystem import PegasusFileSystem
from repro.units import KB, MB


def run(scheduler: Scheduler, target, *args, **kwargs):
    """Run one framework generator to completion on ``scheduler``."""
    thread = scheduler.spawn(target, *args, **kwargs)
    return scheduler.run_until_complete(thread)


def record_write_runs(volume) -> list:
    """Wrap ``volume.write_run`` to log every call as ``(address, nblocks)``."""
    runs: list = []
    original = volume.write_run

    def write_run(block_addr, nblocks, data):
        runs.append((block_addr, nblocks))
        return original(block_addr, nblocks, data)

    volume.write_run = write_run
    return runs


@pytest.fixture
def scheduler() -> Scheduler:
    """A deterministic virtual-time scheduler."""
    return Scheduler(clock=VirtualClock(), seed=7)


@pytest.fixture
def fifo_scheduler() -> Scheduler:
    """A fully deterministic FIFO scheduler (no random interleaving)."""
    return Scheduler(clock=VirtualClock(), seed=7, policy=FifoSchedulingPolicy())


def make_memory_filesystem(
    scheduler: Scheduler,
    cache_blocks: int = 64,
    disk_mb: int = 16,
    flush: FlushConfig | None = None,
    segment_blocks: int = 16,
    index_config: SegmentIndexConfig = SegmentIndexConfig(),
) -> FileSystem:
    """A small real (byte-moving) file system on a memory disk."""
    driver = MemoryBackedDiskDriver(scheduler, size_bytes=disk_mb * MB)
    volume = LocalVolume([driver], block_size=4 * KB)
    layout = LogStructuredLayout(
        scheduler,
        volume,
        block_size=4 * KB,
        segment_blocks=segment_blocks,
        simulated=False,
        index_config=index_config,
    )
    cache = BlockCache(scheduler, CacheConfig(size_bytes=cache_blocks * 4 * KB), with_data=True)
    datamover = DataMover(charge_time=False)
    flush = flush if flush is not None else FlushConfig(policy="periodic")
    policy = registry.create("flush", flush.policy, flush)
    return FileSystem(scheduler, cache, layout, datamover, flush_policy=policy)


@pytest.fixture
def memory_fs(scheduler) -> FileSystem:
    fs = make_memory_filesystem(scheduler)
    run(scheduler, fs.mount, True)
    return fs


@pytest.fixture
def pfs() -> PegasusFileSystem:
    """A formatted in-memory Pegasus file system."""
    fs = PegasusFileSystem(
        spec=StackSpec(
            cache=CacheConfig(size_bytes=1 * MB),
            layout=LayoutConfig(segment_size=64 * KB),
        ),
        size_bytes=16 * MB,
    )
    fs.format()
    return fs
