"""Microbenchmark: victim selection is O(1), not a scan of the cache.

The seed implementation selected victims by scanning every clean resident
block (O(n) per eviction).  The event-driven policies keep intrusive lists
and answer ``victim()`` from the eviction end, so the number of list nodes
examined per eviction must stay a small constant as the cache grows.

``CacheStatistics.victim_scan_steps`` counts every node examined during
victim selection, which measures the claim exactly (and robustly, unlike
wall-clock timing): the steps-per-eviction ratio must neither exceed a
small constant nor grow with the cache size.
"""

import random

from benchmarks.conftest import BENCH_SEED, run_once
from repro.assembly.registry import registry
from repro.config import CacheConfig
from repro.core.cache import BlockCache
from repro.core.clock import VirtualClock
from repro.core.scheduler import Scheduler

#: cache sizes in blocks; spanning 16x so linear scans would show up.
CACHE_SIZES = (128, 512, 2048)

#: accesses per run (enough evictions at every size).
ACCESSES = 12_000


def drive_cache(policy: str, num_blocks: int) -> dict:
    """Zipf-skewed read-only traffic over ~4x more blocks than the cache."""
    scheduler = Scheduler(clock=VirtualClock(), seed=BENCH_SEED)
    config = CacheConfig(size_bytes=num_blocks * 4096, block_size=4096, replacement=policy)
    cache = BlockCache(scheduler, config, with_data=False)
    rng = random.Random(BENCH_SEED)
    population = 4 * num_blocks

    def body():
        for _ in range(ACCESSES):
            # Simple skew: half the references go to a hot eighth.
            if rng.random() < 0.5:
                block_no = rng.randrange(max(population // 8, 1))
            else:
                block_no = rng.randrange(population)
            if cache.lookup(0, block_no) is None:
                yield from cache.allocate(0, block_no)
        return cache.stats

    thread = scheduler.spawn(body)
    stats = scheduler.run_until_complete(thread)
    return {
        "evictions": stats.evictions,
        "scan_steps": stats.victim_scan_steps,
        "per_eviction": stats.victim_scan_steps / max(stats.evictions, 1),
    }


def run_all():
    return {
        policy: {size: drive_cache(policy, size) for size in CACHE_SIZES}
        for policy in registry.names("replacement")
    }


def test_victim_selection_is_o1(benchmark):
    results = run_once(benchmark, run_all)
    print()
    header = f"{'policy':<8}" + "".join(f"  steps/evict @{size:<5}" for size in CACHE_SIZES)
    print(header)
    print("-" * len(header))
    for policy, by_size in results.items():
        print(
            f"{policy:<8}"
            + "".join(f"  {by_size[size]['per_eviction']:>12.2f}    " for size in CACHE_SIZES)
        )
    for policy, by_size in results.items():
        for size, stats in by_size.items():
            assert stats["evictions"] > 1000, (policy, size)
            # A scanning implementation would examine ~size/2 nodes per
            # eviction (64+ at the smallest size); O(1) selection stays
            # within a small constant at every size.
            assert stats["per_eviction"] < 4.0, (policy, size)
        # And the cost must not grow with the cache: 16x more blocks may
        # not even double the examined nodes per eviction.
        smallest = by_size[CACHE_SIZES[0]]["per_eviction"]
        largest = by_size[CACHE_SIZES[-1]]["per_eviction"]
        assert largest < 2.0 * smallest + 1.0, policy
