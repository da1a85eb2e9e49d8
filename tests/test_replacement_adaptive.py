"""Adaptive replacement policies: ghost lists, ARC adaptation, CLOCK hand.

Covers the behaviours that make ARC/2Q/CLOCK more than recency lists:

* ghost-list eviction and promotion (identities remembered after eviction),
* ARC's online adaptation of the T1 target under scan-then-reuse traffic,
* CLOCK hand wraparound and second chances,
* determinism of trace generation and policy decisions under a fixed seed
  (including independence from ``PYTHONHASHSEED``).
"""

import os
import random
import subprocess
import sys

from repro.core.blocks import BlockId, BlockState
from repro.core.cache import BlockCache
from repro.config import CacheConfig
from repro.core.replacement import ArcPolicy, ClockPolicy, TwoQPolicy
from repro.patsy.workload import WorkloadProfile, generate_workload
from tests.conftest import run
from tests.test_replacement import MiniCache, make_block


# ---------------------------------------------------------------- ARC ghosts


def arc_with_t2(capacity=4):
    """An ARC MiniCache where block 1 is proven-hot (lives in T2)."""
    cache = MiniCache("arc", capacity)
    cache.access(1)
    cache.access(1)  # second reference promotes 1 to T2
    return cache


def test_arc_eviction_from_t1_creates_b1_ghost():
    cache = arc_with_t2()
    for fid in (2, 3, 4):
        cache.access(fid)  # fill T1
    cache.access(5)  # evicts T1's LRU (2); its identity is remembered
    assert cache.evicted == [BlockId(2, 0)]
    b1, b2 = cache.policy.ghost_lists()
    assert BlockId(2, 0) in b1
    assert b2 == []


def test_arc_b1_ghost_hit_promotes_to_t2_and_grows_target():
    cache = arc_with_t2()
    for fid in (2, 3, 4):
        cache.access(fid)
    cache.access(5)  # 2 -> B1 ghost
    assert cache.policy.p == 0.0
    cache.access(2)  # ghost hit: straight to T2, target grows
    assert cache.policy.stats.ghost_hits == 1
    assert cache.policy.stats.policy_adaptations == 1
    assert cache.policy.p > 0.0
    assert cache.policy.snapshot()["t2"] == 2  # {1, 2}


def test_arc_b2_ghost_hit_shrinks_target():
    cache = arc_with_t2()
    for fid in (2, 3, 4):
        cache.access(fid)
    cache.access(5)  # 2 -> B1
    cache.access(2)  # B1 ghost hit; p grows
    cache.access(6)
    cache.access(7)
    cache.access(4)  # second B1 ghost hit; p grows again
    p_before = cache.policy.p
    assert p_before >= 2.0
    cache.access(8)  # now |T1| <= p: the victim comes from T2 -> B2 ghost
    b2 = cache.policy.ghost_lists()[1]
    assert b2, "eviction from T2 must leave a B2 ghost"
    cache.access(b2[0].file_id)  # B2 ghost hit -> p shrinks back
    assert cache.policy.p < p_before
    assert cache.policy.stats.ghost_hits >= 3


def test_arc_ghost_lists_are_bounded():
    capacity = 8
    cache = MiniCache("arc", capacity)
    for fid in range(200):
        cache.access(fid)
    snap = cache.policy.snapshot()
    assert snap["t1"] + snap["b1_ghosts"] <= capacity
    total = snap["t1"] + snap["t2"] + snap["b1_ghosts"] + snap["b2_ghosts"]
    assert total <= 2 * capacity


def test_arc_scan_resistance_beats_lru():
    """Scan-then-reuse: an established hot set keeps being re-referenced
    while one-shot scans stream through.  ARC holds the hot set in T2 and
    lets scans churn T1; LRU evicts the hot set on every scan burst.
    """

    def drive(policy_name):
        cache = MiniCache(policy_name, 16, rng=random.Random(5))
        hot = list(range(8))
        for _ in range(2):  # establish the hot set (second pass re-references)
            for fid in hot:
                cache.access(fid)
        scan = iter(range(1000, 8000))
        for round_no in range(150):
            for fid in hot:
                cache.access(fid)
            for _ in range(16):  # one-shot scan traffic exceeding the cache
                cache.access(next(scan))
        return cache.hits / (cache.hits + cache.misses)

    arc_rate = drive("arc")
    lru_rate = drive("lru")
    assert arc_rate > lru_rate + 0.15
    assert arc_rate > 0.30


def test_arc_adapts_under_shifting_traffic():
    cache = MiniCache("arc", 8)
    # Recency phase: a drifting window favours T1.
    for fid in range(60):
        cache.access(fid)
        cache.access(fid + 1)
    # Frequency phase: a tight reused set plus scan noise favours T2.
    for round_no in range(40):
        for fid in (500, 501, 502):
            cache.access(fid)
        cache.access(1000 + round_no)
    assert cache.policy.stats.policy_adaptations > 0


# ---------------------------------------------------------------- 2Q


def test_twoq_first_touch_stays_in_a1in_fifo():
    cache = MiniCache("2q", 8)
    for fid in range(2):
        cache.access(fid)
    # Re-references inside A1in are correlated and must not promote.
    cache.access(0)
    snap = cache.policy.snapshot()
    assert snap["a1in"] == 2
    assert snap["am"] == 0


def test_twoq_ghost_hit_promotes_to_am():
    cache = MiniCache("2q", 4, in_fraction=0.25, out_fraction=1.0)
    for fid in range(1, 7):
        cache.access(fid)  # fills A1in past k_in; oldest spill to A1out
    assert cache.policy.snapshot()["a1out_ghosts"] > 0
    ghost_key = cache.evicted[0].file_id
    before = cache.policy.stats.ghost_hits
    cache.access(ghost_key)  # reuse after A1in: the real-reuse signal
    assert cache.policy.stats.ghost_hits == before + 1
    assert cache.policy.snapshot()["am"] == 1


def test_twoq_a1out_is_bounded():
    cache = MiniCache("2q", 4, out_fraction=0.5)
    for fid in range(100):
        cache.access(fid)
    assert cache.policy.snapshot()["a1out_ghosts"] <= cache.policy.k_out


# ---------------------------------------------------------------- CLOCK


def test_clock_second_chance_and_wraparound():
    policy = ClockPolicy(4)
    blocks = [make_block(i, 0) for i in range(4)]
    for block in blocks:
        policy.on_insert(block)
    for block in blocks:
        policy.on_access(block)  # every reference bit set
    # The sweep must clear all four bits (one full lap) and then evict on
    # wraparound; afterwards the surviving bits stay cleared.
    victim = policy.victim()
    assert victim in blocks
    assert policy.snapshot()["referenced"] == 0


def test_clock_spares_referenced_blocks():
    cache = MiniCache("clock", 4)
    for fid in range(4):
        cache.access(fid)
    cache.access(0)  # 0 gets a second chance
    cache.access(4)
    assert BlockId(0, 0) not in cache.evicted
    assert 0 in cache.keys()


def test_clock_hand_survives_eviction_of_hand_block():
    policy = ClockPolicy(2)
    a, b = make_block(1, 0), make_block(2, 0)
    policy.on_insert(a)
    policy.on_insert(b)
    hand_before = policy.hand_key
    hand_block = a if hand_before == a.block_id else b
    other = b if hand_block is a else a
    policy.on_evict(hand_block)
    assert policy.hand_key == other.block_id
    policy.on_evict(other)
    assert policy.hand_key is None
    assert policy.victim() is None


def test_clock_peek_does_not_clear_bits():
    policy = ClockPolicy(3)
    blocks = [make_block(i, 0) for i in range(3)]
    for block in blocks:
        policy.on_insert(block)
        policy.on_access(block)
    assert policy.victim(peek=True) is not None
    assert policy.snapshot()["referenced"] == 3  # untouched


# ---------------------------------------------------------------- through the cache


def make_cache(scheduler, blocks=8, replacement="arc"):
    config = CacheConfig(size_bytes=blocks * 4096, block_size=4096, replacement=replacement)
    return BlockCache(scheduler, config, with_data=False)


def test_cache_surfaces_ghost_hits_in_statistics(scheduler):
    cache = make_cache(scheduler, blocks=4, replacement="arc")

    def body():
        yield from cache.allocate(1, 0)
        cache.lookup(1, 0)  # promote 1 to T2
        for fid in (2, 3, 4):
            yield from cache.allocate(fid, 0)
        yield from cache.allocate(5, 0)  # evicts 2 -> B1 ghost
        yield from cache.allocate(2, 0)  # ghost hit
        return cache.stats.snapshot()

    snapshot = run(scheduler, body)
    assert snapshot["ghost_hits"] == 1
    assert snapshot["policy_adaptations"] == 1
    assert snapshot["victim_scan_steps"] >= 2
    assert cache.policy.snapshot()["t2"] == 2


def test_cache_dirty_blocks_are_never_victims(scheduler):
    cache = make_cache(scheduler, blocks=4, replacement="clock")
    written = []

    def writeback(file_id, block_nos):
        written.append((file_id, tuple(block_nos)))
        yield from ()

    cache.writeback = writeback

    def body():
        dirty = yield from cache.allocate(1, 0)
        yield from cache.mark_dirty(dirty)
        for i in range(3):
            yield from cache.allocate(2, i)
        yield from cache.allocate(3, 0)  # must evict a clean file-2 block
        return dirty

    dirty = run(scheduler, body)
    assert dirty.is_dirty
    assert cache.contains(1, 0)
    assert cache.contains(3, 0)


def test_invalidate_file_purges_ghosts(scheduler):
    """Truncate/delete destroys data; ghosts of previously evicted blocks
    of that file must not turn a later rewrite into a spurious ghost hit."""
    cache = make_cache(scheduler, blocks=4, replacement="arc")

    def body():
        yield from cache.allocate(1, 0)
        cache.lookup(1, 0)  # T2
        for fid in (2, 3, 4):
            yield from cache.allocate(fid, 0)
        yield from cache.allocate(5, 0)  # evicts (2, 0) -> B1 ghost
        assert BlockId(2, 0) in cache.policy.ghost_lists()[0]
        cache.invalidate_file(2)  # file 2's data destroyed
        yield from cache.allocate(2, 0)  # new data, same identity
        return cache.stats.snapshot()

    snapshot = run(scheduler, body)
    assert snapshot["ghost_hits"] == 0
    assert snapshot["policy_adaptations"] == 0


def test_cache_invalidate_file_keeps_policy_consistent(scheduler):
    cache = make_cache(scheduler, blocks=8, replacement="2q")

    def body():
        for i in range(4):
            yield from cache.allocate(5, i)
        yield from cache.allocate(6, 0)
        cache.invalidate_file(5)
        # Allocation keeps working and residency matches the index.
        for i in range(6):
            yield from cache.allocate(7, i)

    run(scheduler, body)
    assert cache.policy.resident_count == cache.cached_count


# ---------------------------------------------------------------- determinism


def test_workload_generation_is_repeatable():
    profile = WorkloadProfile(name="determinism", duration=30.0, num_clients=3)
    first = generate_workload(profile, seed=11)
    second = generate_workload(profile, seed=11)
    assert first == second
    assert first != generate_workload(profile, seed=12)


def test_workload_generation_independent_of_hash_seed():
    """Trace generation must not depend on PYTHONHASHSEED (it once did,
    via hash(profile.name), making every run a different experiment)."""
    script = (
        "from repro.patsy.workload import WorkloadProfile, generate_workload\n"
        "records = generate_workload(WorkloadProfile(name='hash-seed-check',"
        " duration=20.0, num_clients=2), seed=3)\n"
        "print(len(records), sum(r.size for r in records),"
        " round(records[-1].timestamp, 6))\n"
    )
    outputs = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        outputs.add(result.stdout.strip())
    assert len(outputs) == 1, f"trace depends on PYTHONHASHSEED: {outputs}"


def test_random_policy_is_deterministic_under_fixed_seed():
    def evictions(seed):
        cache = MiniCache("random", 8, rng=random.Random(seed))
        for fid in range(64):
            cache.access(fid % 24)
        return cache.evicted

    assert evictions(9) == evictions(9)


def test_scan_workload_profile_patterns_are_deterministic():
    for pattern in ("hotset", "zipf", "scan", "loop"):
        profile = WorkloadProfile(
            name=f"pattern-{pattern}", duration=20.0, num_clients=2, access_pattern=pattern
        )
        assert generate_workload(profile, seed=4) == generate_workload(profile, seed=4)
