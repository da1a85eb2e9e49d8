"""Flush (delayed write) policies: periodic update, UPS, NVRAM."""

import pytest

from repro.assembly.registry import registry
from repro.config import FlushConfig
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


def make_cache_with_policy(scheduler, flush_config, blocks=16, daemon_low_water=None):
    """``daemon_low_water`` overrides the policy's own low water."""
    cache = BlockCache(scheduler, CacheConfig(size_bytes=blocks * 4096), with_data=False)
    written = []

    def writeback(batch):
        for file_id, block_nos in batch:
            written.append((file_id, tuple(block_nos)))
        yield Delay(0.002)

    cache.writeback = writeback
    policy = registry.create("flush", flush_config.policy, flush_config)
    if daemon_low_water is not None:
        policy.daemon_low_water = daemon_low_water
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
    # Reaching the limit passed the high water: the drain daemon empties it below.
    assert cache.dirty_bytes < 8 * 4096


def record_writeback_calls(scheduler, cache) -> list:
    """Wrap ``cache.writeback`` to log every call as ``(thread name,
    [(file_id, block_nos), ...])``."""
    calls: list = []
    inner = cache.writeback

    def writeback(batch):
        thread = scheduler.current_thread.name
        calls.append((thread, [(file_id, tuple(block_nos)) for file_id, block_nos in batch]))
        yield from inner(batch)

    cache.writeback = writeback
    return calls


def dirty_in_order(scheduler, cache, order):
    """Dirty the ``(file_id, block_no)`` blocks of ``order``, in order."""

    def body():
        for file_id, block_no in order:
            block = yield from cache.allocate(file_id, block_no)
            yield from cache.mark_dirty(block)

    run(scheduler, body)


def test_nvram_flush_unit_is_the_block_or_the_file_never_the_extent():
    """The paper's two NVRAM experiments keep their granularity in the
    drain daemon.  Five 3-block files dirtied round robin fill a 16-block
    NVRAM, so 16 - 12 (low water) = 4 blocks or more must go: "whole file"
    writes every dirty block of the two oldest files as one batch,
    "partial file" the oldest block alone, four times, never a dirty
    neighbour with it."""
    for whole_file in (False, True):
        config = FlushConfig(policy="nvram", nvram_bytes=16 * 4096, whole_file=whole_file)
        scheduler = Scheduler(clock=VirtualClock(), seed=7)
        cache, policy, written = make_cache_with_policy(scheduler, config, blocks=32)
        calls = record_writeback_calls(scheduler, cache)
        round_robin = [(file_id, no) for no in range(3) for file_id in (1, 2, 3, 4, 5)]
        dirty_in_order(scheduler, cache, round_robin + [(6, 0)])
        scheduler.run(until=5.0)
        assert cache.stats.nvram_stalls == 0
        if whole_file:
            assert calls == [("nvram-drain", [(1, (0, 1, 2)), (2, (0, 1, 2))])]
        else:
            assert calls == [("nvram-drain", [(file_id, (0,))]) for file_id in (1, 2, 3, 4)]
        assert policy.policy_flushes == cache.stats.blocks_written == (6 if whole_file else 4)
        assert cache.dirty_count == (10 if whole_file else 12)


def test_nvram_writer_at_the_limit_waits_for_the_drain_daemon():
    """A writer outrunning a 4-block NVRAM stalls, but every writeback runs
    in the drain daemon's thread, one writeback call per wake-up, of one
    unit (4 - 3 (low water) = 1 block or more): the oldest block, or every
    dirty block of its file."""
    for whole_file in (False, True):
        config = FlushConfig(policy="nvram", nvram_bytes=4 * 4096, whole_file=whole_file)
        scheduler = Scheduler(clock=VirtualClock(), seed=7)
        cache, policy, written = make_cache_with_policy(scheduler, config)
        calls = record_writeback_calls(scheduler, cache)
        dirty_blocks(scheduler, cache, 5, 10)
        assert cache.stats.nvram_stalls > 0
        assert {thread for thread, _batch in calls} == {"nvram-drain"}
        assert all(len(batch) == 1 for _thread, batch in calls)
        assert {len(batch[0][1]) for _thread, batch in calls} == ({4} if whole_file else {1})
        assert policy.policy_flushes == cache.stats.blocks_written
        assert cache.stats.writeback_calls == len(calls)
        assert cache.stats.peak_dirty_bytes <= 4 * 4096


def test_a_writer_waiting_through_several_drains_is_one_nvram_stall(scheduler):
    """Three writers stall at once on a full 4-block NVRAM.  Each drain
    round frees one block and wakes every waiter; the writer that comes
    last waits through three writebacks and re-checks after each, but a
    stall is counted per dirtying that waited, not per wake-up."""
    config = FlushConfig(policy="nvram", nvram_bytes=4 * 4096, whole_file=False)
    cache, policy, written = make_cache_with_policy(scheduler, config)
    dirty_blocks(scheduler, cache, 1, 4, stride=2)
    waits = {}

    def writer(file_id):
        block = yield from cache.allocate(file_id, 0)
        before = cache.stats.writeback_calls
        yield from cache.mark_dirty(block)
        waits[file_id] = cache.stats.writeback_calls - before

    threads = [scheduler.spawn(writer, file_id) for file_id in (2, 3, 4)]
    for thread in threads:
        scheduler.run_until_complete(thread)
    assert sorted(waits.values()) == [1, 2, 3]
    assert cache.stats.nvram_stalls == 3
    assert cache.dirty_count == 4


def test_nvram_without_asynchronous_flushes_in_the_writer_thread(scheduler):
    config = FlushConfig(policy="nvram", nvram_bytes=4 * 4096, asynchronous=False)
    cache, policy, written = make_cache_with_policy(scheduler, config)
    assert cache.drain_requester is None and policy.policy_thread is None
    calls = record_writeback_calls(scheduler, cache)
    dirty_blocks(scheduler, cache, 5, 10)
    assert cache.stats.nvram_stalls > 0 and policy.policy_flushes == 0
    assert calls and all(thread != "nvram-drain" for thread, _batch in calls)


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
    config = FlushConfig(policy="ups")
    cache, policy, written = make_cache_with_policy(scheduler, config, blocks=8, daemon_low_water=0.5)
    # Fill the cache with dirty data, no two blocks adjacent: the one extent
    # the allocation demands is one block, the rest is the daemon's to restock.
    dirty_blocks(scheduler, cache, 3, 8, stride=2)

    def allocate_one():
        yield from cache.allocate(4, 0)

    run(scheduler, allocate_one)
    scheduler.run(until=scheduler.now + 1.0)  # let the daemon finish restocking
    # The first wakeup (the dirtying crossed low water, the stall rode along)
    # restocked the pool to the low-water mark, not just the one block the
    # allocation demanded.  That allocation, served mid-restock, left the
    # pool below low water again and latched a second wakeup, which found
    # nothing left to do.
    assert policy.daemon_wakeups == 2
    assert policy.flush_ahead_blocks > 0
    assert cache.free_count + cache.clean_count >= 4
    # The next allocations are served from the restocked pool: no new wakeup.
    def allocate_more():
        yield from cache.allocate(4, 1)
        yield from cache.allocate(4, 2)

    run(scheduler, allocate_more)
    assert policy.daemon_wakeups == 2
    stats = policy.stats()
    assert stats["flush_ahead_blocks"] == policy.flush_ahead_blocks
    assert set(stats) == {
        "daemon_wakeups",
        "wakeups_coalesced",
        "policy_flushes",
        "flush_ahead_blocks",
    }


def test_an_allocation_below_low_water_wakes_the_daemon_before_anyone_stalls(scheduler):
    config = FlushConfig(policy="periodic")
    cache, policy, written = make_cache_with_policy(scheduler, config, blocks=16, daemon_low_water=0.25)
    assert cache.low_water_blocks == 4

    def writer():
        for i in range(32):
            block = yield from cache.allocate(3, 2 * i)
            yield from cache.mark_dirty(block)
            yield Delay(0.01)

    run(scheduler, writer)
    # Twice the cache in dirty blocks and not one stall: every dip below low
    # water woke the daemon, which restocked the pool ahead of demand.
    assert cache.stats.allocation_stalls == 0
    assert policy.daemon_wakeups > 0 and policy.flush_ahead_blocks > 0


@pytest.mark.parametrize("name,signals", [("periodic", True), ("ups", False), ("nvram", False)])
def test_only_a_policy_with_a_low_water_signals_it(scheduler, name, signals):
    """By default only the periodic policy keeps a low water (1/16 of the
    cache): filling the pool past it wakes that daemon, never UPS's or
    NVRAM's, which write nothing ahead of real pressure."""
    cache, policy, written = make_cache_with_policy(scheduler, FlushConfig(policy=name), blocks=64)
    assert cache.low_water_blocks == (4 if signals else 0)
    dirty_blocks(scheduler, cache, 3, 63, stride=2)  # one slot left: no stall
    scheduler.run(until=scheduler.now + 1.0)
    assert cache.stats.allocation_stalls == 0
    assert (policy.daemon_wakeups > 0) is signals
    assert bool(written) is signals


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


def test_daemon_low_water_per_policy_defaults():
    # Each policy keeps its own low water: periodic restocks 1/16 of the
    # cache ahead of demand, UPS and NVRAM stay at 0.
    assert PeriodicUpdatePolicy.daemon_low_water == 1.0 / 16.0
    assert WriteSavingPolicy.daemon_low_water == 0.0
    assert NvramPolicy.daemon_low_water == 0.0


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
