"""Flush (delayed write) policies: periodic update, UPS, NVRAM."""

import pytest

from repro.assembly.registry import registry
from repro.config import DAEMON_LOW_WATER_DEFAULTS, FlushConfig
from repro.core.cache import BlockCache
from repro.core.flush import (
    NvramPolicy,
    PeriodicUpdatePolicy,
    WriteSavingPolicy,
)
from repro.config import CacheConfig
from repro.core.clock import VirtualClock
from repro.core.scheduler import Delay, Scheduler
from repro.errors import ConfigurationError
from tests.conftest import run


def make_cache_with_policy(scheduler, flush_config, blocks=16):
    cache = BlockCache(scheduler, CacheConfig(size_bytes=blocks * 4096), with_data=False)
    written = []

    def writeback(file_id, block_nos):
        written.append((file_id, tuple(block_nos)))
        yield Delay(0.002)

    cache.writeback = writeback
    policy = registry.create("flush", flush_config.policy, flush_config)
    policy.attach(cache, scheduler)
    return cache, policy, written


def dirty_blocks(scheduler, cache, file_id, count, stride=1):
    """Dirty ``count`` blocks of one file; ``stride=2`` leaves a hole after
    each, so no two are one extent and every pressure flush writes one."""

    def body():
        for i in range(count):
            block = yield from cache.allocate(file_id, i * stride)
            yield from cache.mark_dirty(block)

    run(scheduler, body)


def test_factory_dispatch():
    for name, cls in (
        ("periodic", PeriodicUpdatePolicy),
        ("ups", WriteSavingPolicy),
        ("nvram", NvramPolicy),
    ):
        assert isinstance(registry.create("flush", name, FlushConfig(policy=name)), cls)


def test_flush_config_validation():
    with pytest.raises(ConfigurationError):
        FlushConfig(policy="bogus")
    with pytest.raises(ConfigurationError):
        FlushConfig(update_interval=0)


def test_periodic_policy_flushes_old_dirty_data(scheduler):
    config = FlushConfig(policy="periodic", update_interval=30.0, scan_interval=5.0)
    cache, policy, written = make_cache_with_policy(scheduler, config)
    dirty_blocks(scheduler, cache, file_id=3, count=4)
    # Before 30 seconds nothing is written.
    scheduler.run(until=20.0)
    assert not written
    # After the update interval (plus a scan), the file is flushed.
    scheduler.run(until=40.0)
    assert any(file_id == 3 for file_id, _ in written)
    assert cache.dirty_count == 0


def test_periodic_policy_leaves_young_data_alone(scheduler):
    config = FlushConfig(policy="periodic", update_interval=30.0, scan_interval=5.0)
    cache, policy, written = make_cache_with_policy(scheduler, config)
    dirty_blocks(scheduler, cache, 3, 2)
    scheduler.run(until=25.0)
    assert cache.dirty_count == 2
    assert written == []


def test_ups_policy_never_flushes_without_pressure(scheduler):
    cache, policy, written = make_cache_with_policy(scheduler, FlushConfig(policy="ups"))
    dirty_blocks(scheduler, cache, 3, 4)
    scheduler.run(until=120.0)
    assert written == []
    assert cache.dirty_count == 4


def test_ups_policy_flushes_under_allocation_pressure(scheduler):
    cache, policy, written = make_cache_with_policy(
        scheduler, FlushConfig(policy="ups"), blocks=4
    )
    dirty_blocks(scheduler, cache, 3, 4)

    def allocate_more():
        yield from cache.allocate(4, 0)

    run(scheduler, allocate_more)
    assert written, "allocation pressure must force a flush"
    assert cache.contains(4, 0)


def test_nvram_policy_sets_dirty_limit(scheduler):
    config = FlushConfig(policy="nvram", nvram_bytes=4 * 4096, whole_file=True)
    cache, policy, written = make_cache_with_policy(scheduler, config)
    assert cache.dirty_limit_bytes == 4 * 4096
    assert cache.flush_unit == "file"


def test_nvram_policy_caps_dirty_data(scheduler):
    config = FlushConfig(policy="nvram", nvram_bytes=4 * 4096, whole_file=False)
    cache, policy, written = make_cache_with_policy(scheduler, config)
    dirty_blocks(scheduler, cache, 5, 10)
    assert cache.dirty_bytes <= 4 * 4096
    assert written, "exceeding the NVRAM must have drained something"


def test_nvram_background_drain_keeps_occupancy_below_limit(scheduler):
    config = FlushConfig(policy="nvram", nvram_bytes=8 * 4096, whole_file=True)
    cache, policy, written = make_cache_with_policy(scheduler, config, blocks=32)
    dirty_blocks(scheduler, cache, 6, 8)  # exactly at the limit
    scheduler.run(until=5.0)
    # The write-behind daemon drains below the high-water mark.
    assert cache.dirty_bytes < 8 * 4096


def test_nvram_flush_unit_is_the_block_or_the_file_never_the_extent():
    """The paper's two NVRAM experiments keep their granularity on both
    paths: "partial file" writes the oldest block alone even though its
    neighbours are dirty, "whole file" every dirty block of its file."""
    for whole_file in (False, True):
        # The stall path: a writer outruns a 4-block NVRAM.
        config = FlushConfig(policy="nvram", nvram_bytes=4 * 4096, whole_file=whole_file)
        scheduler = Scheduler(clock=VirtualClock(), seed=7)
        cache, policy, written = make_cache_with_policy(scheduler, config)
        dirty_blocks(scheduler, cache, 5, 10)
        assert cache.stats.nvram_stalls > 0 and policy.policy_flushes == 0
        assert {len(block_nos) for _file, block_nos in written} == ({4} if whole_file else {1})
        # The drain daemon: occupancy sits at the limit, nobody stalls.
        config = FlushConfig(policy="nvram", nvram_bytes=8 * 4096, whole_file=whole_file)
        scheduler = Scheduler(clock=VirtualClock(), seed=7)
        cache, policy, written = make_cache_with_policy(scheduler, config, blocks=32)
        dirty_blocks(scheduler, cache, 6, 8)
        scheduler.run(until=5.0)
        assert cache.stats.nvram_stalls == 0 and policy.policy_flushes > 0
        assert [len(block_nos) for _file, block_nos in written] == ([8] if whole_file else [1, 1])


def test_synchronous_flush_mode(scheduler):
    config = FlushConfig(policy="ups", asynchronous=False)
    cache, policy, written = make_cache_with_policy(scheduler, config, blocks=4)
    assert cache.space_requester is None
    dirty_blocks(scheduler, cache, 3, 4)

    def allocate_more():
        yield from cache.allocate(4, 0)

    run(scheduler, allocate_more)
    assert written
    assert cache.stats.forced_replacement_flushes >= 1


def test_periodic_policy_counts_flushes(scheduler):
    config = FlushConfig(policy="periodic", update_interval=10.0, scan_interval=2.0)
    cache, policy, written = make_cache_with_policy(scheduler, config)
    dirty_blocks(scheduler, cache, 3, 3)
    scheduler.run(until=30.0)
    assert policy.policy_flushes >= 3


def test_daemon_low_water_flushes_ahead_of_demand(scheduler):
    config = FlushConfig(policy="ups", daemon_low_water=0.5)
    cache, policy, written = make_cache_with_policy(scheduler, config, blocks=8)
    # Fill the cache with dirty data, no two blocks adjacent: the one extent
    # the allocation demands is one block, the rest is the daemon's to restock.
    dirty_blocks(scheduler, cache, 3, 8, stride=2)

    def allocate_one():
        yield from cache.allocate(4, 0)

    run(scheduler, allocate_one)
    scheduler.run(until=scheduler.now + 1.0)  # let the daemon finish restocking
    # One wakeup restocked the free pool to the low-water mark, not just the
    # single block the allocation demanded.
    assert policy.daemon_wakeups == 1
    assert policy.flush_ahead_blocks > 0
    assert cache.free_count + cache.clean_count >= 4
    # The next allocations are served from the restocked pool: no new wakeup.
    def allocate_more():
        yield from cache.allocate(4, 1)
        yield from cache.allocate(4, 2)

    run(scheduler, allocate_more)
    assert policy.daemon_wakeups == 1
    stats = policy.stats()
    assert stats["flush_ahead_blocks"] == policy.flush_ahead_blocks
    assert set(stats) == {
        "daemon_wakeups",
        "wakeups_coalesced",
        "policy_flushes",
        "flush_ahead_blocks",
    }


def test_daemon_low_water_default_keeps_demand_only_behaviour(scheduler):
    cache, policy, written = make_cache_with_policy(
        scheduler, FlushConfig(policy="ups"), blocks=8
    )
    dirty_blocks(scheduler, cache, 3, 8)

    def allocate_one():
        yield from cache.allocate(4, 0)

    run(scheduler, allocate_one)
    # Strict on-demand flushing: nothing was written ahead of need.
    assert policy.flush_ahead_blocks == 0


def test_daemon_low_water_validation():
    with pytest.raises(ConfigurationError):
        FlushConfig(daemon_low_water=1.0)
    with pytest.raises(ConfigurationError):
        FlushConfig(daemon_low_water=-0.1)


def test_daemon_low_water_per_policy_defaults():
    # Unset (None) resolves to the documented per-policy defaults: periodic
    # restocks 1/16 of the cache ahead of demand, UPS and NVRAM stay at 0.
    assert FlushConfig(policy="periodic").resolved_daemon_low_water() == DAEMON_LOW_WATER_DEFAULTS["periodic"] > 0
    assert FlushConfig(policy="ups").resolved_daemon_low_water() == 0.0
    assert FlushConfig(policy="nvram").resolved_daemon_low_water() == 0.0
    # An explicit setting always wins over the default.
    assert FlushConfig(policy="periodic", daemon_low_water=0.0).resolved_daemon_low_water() == 0.0
    assert FlushConfig(policy="nvram", daemon_low_water=0.25).resolved_daemon_low_water() == 0.25


def test_ups_default_never_flush_aheads_under_sustained_pressure(scheduler):
    """UPS write saving must stay strictly flush-on-demand: even a long run
    of allocation pressure over a fully dirty cache must never write a
    single block ahead of a real allocation request."""
    cache, policy, written = make_cache_with_policy(
        scheduler, FlushConfig(policy="ups"), blocks=8
    )
    dirty_blocks(scheduler, cache, 3, 8)

    def churn():
        for i in range(12):
            yield from cache.allocate(4 + i, 0)

    run(scheduler, churn)
    scheduler.run(until=scheduler.now + 5.0)
    assert policy.flush_ahead_blocks == 0
    assert written, "demand flushing still happens"


def test_periodic_default_flush_ahead_restocks_the_free_pool(scheduler):
    # The periodic default (1/16 of the cache) restocks beyond the single
    # demanded block, so allocation bursts coalesce into one daemon wakeup.
    config = FlushConfig(policy="periodic", update_interval=1e6, scan_interval=1e5)
    cache, policy, written = make_cache_with_policy(scheduler, config, blocks=32)
    dirty_blocks(scheduler, cache, 3, 32, stride=2)  # 32 one-block extents

    def allocate_one():
        yield from cache.allocate(4, 0)

    run(scheduler, allocate_one)
    scheduler.run(until=scheduler.now + 1.0)
    assert policy.flush_ahead_blocks > 0
    assert cache.free_count + cache.clean_count >= int(32 / 16)
