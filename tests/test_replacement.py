"""Cache replacement policies: the event-driven O(1) subsystem.

These tests drive each policy directly through its event interface
(``on_insert`` / ``on_access`` / ``on_evict`` / ``victim``) using a small
in-memory harness (:class:`MiniCache`) that mirrors how
:class:`repro.core.cache.BlockCache` calls it — no scheduler needed.
"""

import random

import pytest

from repro.assembly.registry import registry
from repro.core.blocks import BlockId, BlockState, CacheBlock
from repro.core.replacement import ArcPolicy, LruPolicy, PolicyCounters
from repro.errors import ConfigurationError


def make_block(file_id, block_no, slot=0):
    block = CacheBlock(slot, 4096, False)
    block.block_id = BlockId(file_id, block_no)
    block.state = BlockState.CLEAN
    return block


class MiniCache:
    """Fixed-capacity cache skeleton driving a policy like BlockCache does."""

    def __init__(self, policy_name, capacity, rng=None, **kwargs):
        self.policy = registry.create("replacement", policy_name, capacity, rng, **kwargs)
        self.capacity = capacity
        self.resident = {}
        self.clock = 0.0
        self.hits = 0
        self.misses = 0
        self.evicted = []

    def access(self, file_id, block_no=0):
        """One reference; returns True on hit."""
        self.clock += 1.0
        key = BlockId(file_id, block_no)
        block = self.resident.get(key)
        if block is not None:
            self.hits += 1
            block.record_access(self.clock)
            self.policy.on_access(block)
            return True
        self.misses += 1
        if len(self.resident) >= self.capacity:
            victim = self.policy.victim(incoming=key)
            assert victim is not None, "a fully clean cache must always yield a victim"
            self.policy.on_evict(victim, ghost=True)
            del self.resident[victim.block_id]
            self.evicted.append(victim.block_id)
        block = make_block(*key)
        block.record_access(self.clock)
        self.resident[key] = block
        self.policy.on_insert(block)
        return False

    def keys(self):
        return {key.file_id for key in self.resident}


# ---------------------------------------------------------------- LRU


def test_lru_evicts_least_recently_used():
    cache = MiniCache("lru", 3)
    for fid in (1, 2, 3):
        cache.access(fid)
    cache.access(1)  # 2 is now the LRU block
    cache.access(4)
    assert cache.evicted == [BlockId(2, 0)]
    assert cache.keys() == {1, 3, 4}


def test_lru_victim_skips_ineligible_blocks():
    policy = LruPolicy(4)
    blocks = [make_block(i, 0) for i in range(3)]
    for block in blocks:
        policy.on_insert(block)
    blocks[0].pin()  # LRU but pinned
    blocks[1].state = BlockState.DIRTY  # next, but dirty
    assert policy.victim() is blocks[2]
    blocks[1].state = BlockState.CLEAN
    assert policy.victim() is blocks[1]


def test_victim_none_when_nothing_evictable():
    policy = LruPolicy(2)
    block = make_block(1, 0)
    policy.on_insert(block)
    block.busy = True
    assert policy.victim() is None
    assert policy.victim(peek=True) is None


# ---------------------------------------------------------------- shared


def test_on_evict_for_unknown_block_is_harmless():
    policy = LruPolicy(2)
    policy.on_evict(make_block(9, 9), ghost=True)
    assert policy.resident_count == 0


def test_policies_track_residency():
    for name in registry.names("replacement"):
        cache = MiniCache(name, 4, rng=random.Random(3))
        for fid in range(10):
            cache.access(fid)
        assert cache.policy.resident_count == 4, name
        assert len(cache.resident) == 4, name


def test_invalidate_leaves_no_ghost():
    policy = registry.create("replacement", "arc", 4)
    block = make_block(1, 0)
    policy.on_insert(block)
    policy.on_evict(block, ghost=False)
    # Re-inserting the same identity must not register a ghost hit.
    policy.on_insert(make_block(1, 0))
    assert policy.stats.ghost_hits == 0


def test_victim_scan_steps_counted():
    cache = MiniCache("lru", 2)
    for fid in range(4):
        cache.access(fid)
    assert cache.policy.stats.victim_scan_steps >= 2  # one step per eviction
    assert isinstance(cache.policy.stats, PolicyCounters)


def test_capacity_must_be_positive():
    with pytest.raises(ConfigurationError):
        LruPolicy(0)


# ---------------------------------------------------------------- factory


@pytest.mark.parametrize(
    "name,cls",
    [("lru", LruPolicy), ("arc", ArcPolicy)],
)
def test_factory(name, cls):
    policy = registry.create("replacement", name, 16)
    assert isinstance(policy, cls)
    assert policy.name == name


def test_factory_rejects_unknown():
    with pytest.raises(ConfigurationError):
        registry.create("replacement", "mru", 16)


def test_factory_forwards_parameters():
    rng, stats = random.Random(1), PolicyCounters()
    for name in registry.names("replacement"):
        policy = registry.create("replacement", name, 16, rng, stats)
        assert policy.capacity == 16 and policy.rng is rng and policy.stats is stats, name
