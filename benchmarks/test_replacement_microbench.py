"""Microbenchmark: victim selection is O(1), not a scan of the cache.

The seed implementation selected victims by scanning every clean resident
block (O(n) per eviction).  The event-driven policies keep intrusive lists
and answer ``victim()`` from the eviction end, so the number of list nodes
examined per eviction must stay a small constant as the cache grows.

``CacheStatistics.victim_scan_steps`` counts every node examined during
victim selection, which measures the claim exactly (and robustly, unlike
wall-clock timing): the steps-per-eviction ratio must neither exceed a
small constant nor grow with the cache size.

The ghost-churn leg checks the same of deletes: a truncate or delete asks
the policy to forget the file's ghosts (``forget_file``), and the entries
that call walks in the policy's tables must depend on that file's ghosts
alone, not on how many ghosts of other files the cache remembers.
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


#: blocks per file in the ghost-churn leg, and one delete per this many reads.
FILE_BLOCKS = 4
DELETE_EVERY = 4


def _counting(base: type, counter: dict) -> type:
    """A ``base`` (dict or OrderedDict) class that adds every entry a walk
    over it touches to ``counter["touched"]``; the tables it is handed
    through ``setdefault`` count too."""

    class Counting(base):
        def __iter__(self):
            for key in base.__iter__(self):
                counter["touched"] += 1
                yield key

        def keys(self):
            return iter(self)

        def items(self):
            return ((key, base.__getitem__(self, key)) for key in self)

        def values(self):
            return (base.__getitem__(self, key) for key in self)

        def setdefault(self, key, default=None):
            if key not in self:
                self[key] = _counting(type(default), counter)(default) if isinstance(default, dict) else default
            return base.__getitem__(self, key)

    return Counting


def churn_ghosts(policy: str, num_blocks: int) -> dict:
    """Skewed reads over files of ``FILE_BLOCKS`` blocks, ~4x more blocks
    than the cache, with a whole-file delete after every ``DELETE_EVERY``
    reads: ghosts of many files stay resident while others are forgotten.
    Every table the policy holds counts the entries walked in it."""
    scheduler = Scheduler(clock=VirtualClock(), seed=BENCH_SEED)
    config = CacheConfig(size_bytes=num_blocks * 4096, block_size=4096, replacement=policy)
    cache = BlockCache(scheduler, config, with_data=False)
    counter = {"touched": 0, "forgets": 0, "ghosts_seen": 0}
    for name, value in list(vars(cache.policy).items()):
        if isinstance(value, dict):
            setattr(cache.policy, name, _counting(type(value), counter)(value))
    forget = cache.policy.forget_file

    def counted_forget(file_id, from_block=0):
        snapshot = cache.policy.snapshot()
        counter["forgets"] += 1
        counter["ghosts_seen"] += snapshot.get("b1_ghosts", 0) + snapshot.get("b2_ghosts", 0)
        forget(file_id, from_block)

    cache.policy.forget_file = counted_forget
    rng = random.Random(BENCH_SEED)
    files = 4 * num_blocks // FILE_BLOCKS

    def body():
        for step in range(ACCESSES):
            file_id = rng.randrange(max(files // 8, 1)) if rng.random() < 0.5 else rng.randrange(files)
            block_no = rng.randrange(FILE_BLOCKS)
            if cache.lookup(file_id, block_no) is None:
                yield from cache.allocate(file_id, block_no)
            if step % DELETE_EVERY == 0:
                cache.invalidate_file(rng.randrange(files))

    scheduler.run_until_complete(scheduler.spawn(body))
    forgets = max(counter["forgets"], 1)
    return {
        "forgets": counter["forgets"],
        "touched_per_forget": counter["touched"] / forgets,
        "ghosts_per_forget": counter["ghosts_seen"] / forgets,
    }


def run_churn():
    return {
        policy: {size: churn_ghosts(policy, size) for size in CACHE_SIZES}
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


def test_forgetting_a_files_ghosts_is_o1(benchmark):
    results = run_once(benchmark, run_churn)
    print()
    header = f"{'policy':<8}" + "".join(f"  touched/forget @{size:<5}" for size in CACHE_SIZES)
    print(header)
    print("-" * len(header))
    for policy, by_size in results.items():
        print(
            f"{policy:<8}"
            + "".join(
                f"  {by_size[size]['touched_per_forget']:>6.2f} of {by_size[size]['ghosts_per_forget']:>6.0f}"
                for size in CACHE_SIZES
            )
        )
    for policy, by_size in results.items():
        for size, stats in by_size.items():
            assert stats["forgets"] == ACCESSES // DELETE_EVERY, (policy, size)
            # A file holds at most FILE_BLOCKS ghosts; a scan of every
            # ghost would touch hundreds per call at the largest size.
            assert stats["touched_per_forget"] <= FILE_BLOCKS, (policy, size)
        smallest = by_size[CACHE_SIZES[0]]["touched_per_forget"]
        largest = by_size[CACHE_SIZES[-1]]["touched_per_forget"]
        assert largest < 2.0 * smallest + 1.0, policy
    # The leg is not vacuous: ARC remembers more ghosts of other files the
    # larger the cache, and forgetting one file still touches only its own.
    arc = results["arc"]
    assert arc[CACHE_SIZES[-1]]["ghosts_per_forget"] > 4 * arc[CACHE_SIZES[0]]["ghosts_per_forget"]
