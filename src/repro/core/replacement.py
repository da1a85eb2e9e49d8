"""Cache replacement policies: a stateful, O(1)-per-access subsystem.

The base cache maintains LRU lists; "different cache administration policies
are easily implemented by re-implementing the replacement methods of the
base-class in a new derived class — for example RR, LFU, SLRU, LRU-K or
adaptive" (Section 2).  The seed implementation expressed each policy as a
stateless ``victim(candidates)`` scan over every clean resident block, which
is O(n) per eviction and cannot express policies that need history beyond
residency (ghost lists).

This module replaces that with an *event-driven* strategy interface: the
cache notifies the policy when a block becomes resident (:meth:`on_insert`),
when a resident block is referenced (:meth:`on_access`) and when a block
leaves the cache (:meth:`on_evict`); the policy answers :meth:`victim` in
O(1) amortised time from intrusive doubly-linked lists it maintains itself.
Ghost lists — recency lists of *evicted* block identities — let the adaptive
policies (ARC, 2Q) remember more history than fits in the cache, which is
what makes them scan-resistant.

Implemented policies:

``lru``     classic least-recently-used (one recency list),
``random``  evict a uniformly random resident block (the paper's "RR"),
``lfu``     least-frequently-used via O(1) frequency buckets,
``slru``    segmented LRU: probationary + protected segments,
``lru-k``   O(1) approximation of LRU-K: blocks with fewer than K
            references are evicted (LRU order) before mature blocks,
``clock``   second-chance clock with a sweeping hand and reference bits,
``2q``      the full 2Q of Johnson & Shasha: A1in FIFO, A1out ghost
            FIFO, Am LRU,
``arc``     Megiddo & Modha's Adaptive Replacement Cache: T1/T2 resident
            lists, B1/B2 ghost lists and a self-tuning target ``p``.

Pinned, busy and dirty blocks are never evicted; ``victim`` skips over them
from the eviction end of its lists, so the work per eviction is proportional
to the handful of temporarily ineligible blocks near the tail, not to the
cache size.  Every examined node is counted in ``stats.victim_scan_steps``
so tests and benchmarks can verify the O(1) claim directly.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Dict, Iterator, Optional

from repro.assembly.registry import registry
from repro.core.blocks import BlockId, CacheBlock
from repro.errors import CacheError, ConfigurationError

__all__ = [
    "PolicyCounters",
    "ReplacementPolicy",
    "LruPolicy",
    "RandomPolicy",
    "LfuPolicy",
    "SlruPolicy",
    "LruKPolicy",
    "ClockPolicy",
    "TwoQPolicy",
    "ArcPolicy",
    "POLICY_NAMES",
]


class PolicyCounters:
    """Counter sink used when a policy runs standalone (outside a cache).

    :class:`repro.core.cache.CacheStatistics` exposes the same attribute
    names, so a cache-owned policy increments the shared statistics object
    directly and the counters show up in ``stats.snapshot()``.
    """

    def __init__(self) -> None:
        self.ghost_hits = 0
        self.policy_adaptations = 0
        self.victim_scan_steps = 0


class _Node:
    """Intrusive list node for one block identity (resident or ghost)."""

    __slots__ = ("key", "block", "prev", "next", "owner", "home", "ref", "freq", "index")

    def __init__(self, key: BlockId, block: Optional[CacheBlock] = None):
        self.key = key
        #: the resident block, or ``None`` for a ghost entry.
        self.block = block
        self.prev: Optional["_Node"] = None
        self.next: Optional["_Node"] = None
        #: the :class:`_DList` currently holding this node (None if unlisted).
        self.owner: Optional["_DList"] = None
        #: while the block is dirty (parked off-list), the list it returns
        #: to when cleaned; policies may retarget it on parked accesses.
        self.home: Optional["_DList"] = None
        #: CLOCK reference bit.
        self.ref = False
        #: LFU frequency (also reused as the array index by RandomPolicy).
        self.freq = 0
        self.index = -1

    @property
    def segment(self) -> Optional["_DList"]:
        """The list this node logically belongs to (even while parked)."""
        return self.owner if self.owner is not None else self.home

    @property
    def is_ghost(self) -> bool:
        return self.block is None


class _DList:
    """Intrusive doubly-linked list with a sentinel: every operation O(1).

    Convention: the *head* is the eviction end (LRU / FIFO-out) and the
    *tail* is the insertion end (MRU / FIFO-in).
    """

    __slots__ = ("tag", "_sentinel", "_size")

    def __init__(self, tag: str = ""):
        self.tag = tag
        sentinel = _Node(None)  # type: ignore[arg-type]
        sentinel.prev = sentinel
        sentinel.next = sentinel
        self._sentinel = sentinel
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    @property
    def head(self) -> Optional[_Node]:
        node = self._sentinel.next
        return None if node is self._sentinel else node

    @property
    def tail(self) -> Optional[_Node]:
        node = self._sentinel.prev
        return None if node is self._sentinel else node

    def insert_before(self, node: _Node, anchor: _Node) -> None:
        if node.owner is not None:
            raise CacheError(f"node {node.key} is already on list {node.owner.tag!r}")
        node.prev = anchor.prev
        node.next = anchor
        anchor.prev.next = node
        anchor.prev = node
        node.owner = self
        self._size += 1

    def append(self, node: _Node) -> None:
        """Insert at the tail (the MRU / most-recently-inserted end)."""
        self.insert_before(node, self._sentinel)

    def remove(self, node: _Node) -> None:
        if node.owner is not self:
            raise CacheError(f"node {node.key} is not on list {self.tag!r}")
        node.prev.next = node.next
        node.next.prev = node.prev
        node.prev = node.next = None
        node.owner = None
        self._size -= 1

    def move_to_tail(self, node: _Node) -> None:
        self.remove(node)
        self.append(node)

    def pop_head(self) -> Optional[_Node]:
        node = self.head
        if node is not None:
            self.remove(node)
        return node

    def next_wrapping(self, node: _Node) -> Optional[_Node]:
        """The successor of ``node``, wrapping over the sentinel (for CLOCK)."""
        if self._size == 0:
            return None
        nxt = node.next if node.next is not None else self._sentinel.next
        if nxt is self._sentinel:
            nxt = self._sentinel.next
        return nxt

    def __iter__(self) -> Iterator[_Node]:
        node = self._sentinel.next
        while node is not self._sentinel:
            nxt = node.next
            yield node
            node = nxt


def _evictable(block: Optional[CacheBlock]) -> bool:
    """Only clean, unpinned, idle blocks may be evicted."""
    return (
        block is not None
        and block.is_clean
        and not block.pinned
        and not block.busy
    )


class ReplacementPolicy(ABC):
    """Event-driven strategy deciding which resident block to evict.

    The owning cache reports residency changes and references::

        on_insert(block)   block became resident (a miss was filled)
        on_access(block)   a resident block was referenced again
        on_dirty(block)    block became dirty (not evictable until cleaned)
        on_clean(block)    a dirty block was written back
        on_evict(block)    block leaves the cache (eviction or invalidate)

    and asks ``victim()`` for the next block to evict.  ``victim`` returns a
    clean, unpinned, non-busy block or ``None``; with ``peek=True`` it must
    not mutate any policy state (used for "could an allocation succeed"
    queries).  ``incoming`` optionally names the block identity about to be
    inserted, which exact ARC uses to resolve its REPLACE tie-break.

    Every policy is constructed as ``(capacity, rng, stats, config)``;
    ``config`` is the owning cache's :class:`~repro.config.CacheConfig`, read
    only by the policies that have knobs there (``lru_k``, ``twoq_*``).

    Dirty blocks are *parked*: removed from the eviction lists (they cannot
    be victims, and skipping them on every selection would make eviction
    O(dirty count)) while remembering their segment in ``node.home``.
    ``on_clean`` re-inserts the block at the MRU end of that segment —
    freshly cleaned data was written recently, which is exactly what the
    MRU position encodes.
    """

    name = "abstract"

    def __init__(
        self,
        capacity: int,
        rng: Optional[random.Random] = None,
        stats: Optional[object] = None,
        config: Optional[object] = None,
    ):
        if capacity < 1:
            raise ConfigurationError("replacement policy capacity must be >= 1")
        self.capacity = capacity
        self.rng = rng if rng is not None else random.Random(0)
        self.stats = stats if stats is not None else PolicyCounters()
        self._nodes: Dict[BlockId, _Node] = {}

    # ------------------------------------------------------------------ events

    @abstractmethod
    def on_insert(self, block: CacheBlock) -> None:
        """``block`` became resident (counts as its first reference)."""

    @abstractmethod
    def on_access(self, block: CacheBlock) -> None:
        """A resident ``block`` was referenced again."""

    @abstractmethod
    def victim(
        self, incoming: Optional[BlockId] = None, peek: bool = False
    ) -> Optional[CacheBlock]:
        """The block to evict next, or ``None`` if nothing is evictable."""

    def on_dirty(self, block: CacheBlock) -> None:
        """``block`` became dirty: park it off the eviction lists."""
        node = self._node_of(block)
        if node is None or node.owner is None:
            return
        node.home = node.owner
        node.owner.remove(node)

    def on_clean(self, block: CacheBlock) -> None:
        """A dirty ``block`` was written back: restore it as evictable."""
        node = self._node_of(block)
        if node is None or node.owner is not None:
            return
        self._unpark(node)

    def _unpark(self, node: _Node) -> None:
        """Re-insert a parked node at the MRU end of its home segment."""
        home = node.home
        node.home = None
        if home is None:  # defensive: never seen on_dirty
            home = self._default_list()
        home.append(node)

    def _default_list(self) -> _DList:
        raise CacheError(f"policy {self.name} cannot restore an unparked block")

    def forget_file(self, file_id: int, from_block: int = 0) -> None:
        """Purge ghost entries for ``file_id`` (truncate/delete destroyed
        the data, so remembering those identities would turn future writes
        to the same blocks into spurious ghost hits).  No-op for policies
        without ghost lists."""

    def on_evict(self, block: CacheBlock, ghost: bool = True) -> None:
        """``block`` leaves the cache.

        ``ghost=True`` for replacement evictions (the identity may be
        remembered in a ghost list); ``ghost=False`` for invalidations
        (truncate/delete), where remembering the identity would be wrong.
        """
        node = self._nodes.pop(block.block_id, None)
        if node is None:
            return
        self._retire(node, ghost)

    def _retire(self, node: _Node, ghost: bool) -> None:
        """Unlink a resident node; subclasses hook this to create ghosts."""
        if node.owner is not None:
            node.owner.remove(node)

    # ------------------------------------------------------------------ helpers

    def _register(self, block: CacheBlock) -> _Node:
        key = block.block_id
        if key is None:
            raise CacheError("cannot track a block without an identity")
        if key in self._nodes:
            raise CacheError(f"block {key} is already tracked by {self.name}")
        node = _Node(key, block)
        self._nodes[key] = node
        return node

    def _node_of(self, block: CacheBlock) -> Optional[_Node]:
        if block.block_id is None:
            return None
        return self._nodes.get(block.block_id)

    def _scan(self, dlist: _DList, peek: bool) -> Optional[_Node]:
        """First evictable node from the eviction (head) end of ``dlist``.

        Ineligible blocks (pinned, busy, dirty) are skipped, not removed;
        they are expected to become eligible or leave the list soon, so the
        amortised work stays O(1).  Every node examined is counted.
        """
        steps = 0
        found = None
        for node in dlist:
            steps += 1
            if _evictable(node.block):
                found = node
                break
        if not peek:
            self.stats.victim_scan_steps += steps
        return found

    # ------------------------------------------------------------------ queries

    @property
    def resident_count(self) -> int:
        return len(self._nodes)

    def __contains__(self, key: BlockId) -> bool:
        return key in self._nodes

    def snapshot(self) -> dict:
        """Policy-internal gauges, surfaced in simulation reports."""
        return {"resident": len(self._nodes)}

    def __repr__(self) -> str:
        return f"{type(self).__name__}(capacity={self.capacity})"


class LruPolicy(ReplacementPolicy):
    """Least-recently-used over one intrusive recency list (the default)."""

    name = "lru"

    def __init__(self, capacity: int, rng=None, stats=None, config=None):
        super().__init__(capacity, rng, stats)
        self._list = _DList("lru")

    def on_insert(self, block: CacheBlock) -> None:
        self._list.append(self._register(block))

    def on_access(self, block: CacheBlock) -> None:
        node = self._node_of(block)
        if node is not None and node.owner is not None:
            self._list.move_to_tail(node)

    def victim(self, incoming=None, peek=False) -> Optional[CacheBlock]:
        node = self._scan(self._list, peek)
        return node.block if node else None

    def _default_list(self) -> _DList:
        return self._list


class RandomPolicy(ReplacementPolicy):
    """Evict a uniformly random resident block (the paper's "RR").

    Residents live in an array with O(1) swap-removal; the victim is found
    by random probing with a bounded linear fallback, so selection does not
    scan the whole cache.
    """

    name = "random"
    _PROBES = 8

    def __init__(self, capacity: int, rng=None, stats=None, config=None):
        super().__init__(capacity, rng, stats)
        self._order: list[_Node] = []

    def on_insert(self, block: CacheBlock) -> None:
        node = self._register(block)
        node.index = len(self._order)
        self._order.append(node)

    def on_access(self, block: CacheBlock) -> None:
        pass  # random replacement ignores references

    def victim(self, incoming=None, peek=False) -> Optional[CacheBlock]:
        count = len(self._order)
        if count == 0:
            return None
        if peek:
            # Peek must not mutate policy state — and drawing from the
            # shared scheduler RNG *is* state: it would perturb thread
            # scheduling and later victim picks.  A plain scan answers
            # "is anything evictable" without touching the RNG.
            for node in self._order:
                if _evictable(node.block):
                    return node.block
            return None
        steps = 0
        for _ in range(self._PROBES):
            steps += 1
            node = self._order[self.rng.randrange(count)]
            if _evictable(node.block):
                self.stats.victim_scan_steps += steps
                return node.block
        # Dense ineligibility (most of the cache dirty or pinned): fall back
        # to one wrap-around sweep from a random start.
        start = self.rng.randrange(count)
        for offset in range(count):
            steps += 1
            node = self._order[(start + offset) % count]
            if _evictable(node.block):
                self.stats.victim_scan_steps += steps
                return node.block
        self.stats.victim_scan_steps += steps
        return None

    def on_dirty(self, block: CacheBlock) -> None:
        node = self._node_of(block)
        if node is not None and node.index >= 0:
            self._array_remove(node)

    def on_clean(self, block: CacheBlock) -> None:
        node = self._node_of(block)
        if node is not None and node.index < 0:
            node.index = len(self._order)
            self._order.append(node)

    def _retire(self, node: _Node, ghost: bool) -> None:
        if node.index >= 0:
            self._array_remove(node)

    def _array_remove(self, node: _Node) -> None:
        last = self._order[-1]
        self._order[node.index] = last
        last.index = node.index
        self._order.pop()
        node.index = -1


class LfuPolicy(ReplacementPolicy):
    """Least-frequently-used with O(1) frequency buckets.

    Each reference moves a block from its frequency bucket to the next one;
    the victim comes from the lowest-frequency bucket in LRU order, which
    also resolves ties by recency (matching the seed semantics).
    """

    name = "lfu"

    def __init__(self, capacity: int, rng=None, stats=None, config=None):
        super().__init__(capacity, rng, stats)
        self._buckets: Dict[int, _DList] = {}
        #: lower bound on the smallest occupied frequency (lazily advanced
        #: by ``victim`` — the classic O(1) LFU min-pointer).
        self._min_freq = 1

    def _bucket(self, freq: int) -> _DList:
        bucket = self._buckets.get(freq)
        if bucket is None:
            bucket = self._buckets[freq] = _DList(f"lfu-{freq}")
        return bucket

    def on_insert(self, block: CacheBlock) -> None:
        node = self._register(block)
        node.freq = 1
        self._min_freq = 1
        self._bucket(1).append(node)

    def on_access(self, block: CacheBlock) -> None:
        node = self._node_of(block)
        if node is None:
            return
        if node.owner is None:  # parked (dirty): only the frequency advances
            node.freq += 1
            return
        old = node.owner
        old.remove(node)
        if len(old) == 0:
            self._buckets.pop(node.freq, None)
        node.freq += 1
        self._bucket(node.freq).append(node)

    def on_dirty(self, block: CacheBlock) -> None:
        node = self._node_of(block)
        if node is None or node.owner is None:
            return
        old = node.owner
        old.remove(node)
        if len(old) == 0:
            self._buckets.pop(node.freq, None)

    def victim(self, incoming=None, peek=False) -> Optional[CacheBlock]:
        if not self._buckets:
            return None
        # Advance the min-pointer to the smallest occupied frequency.  The
        # pointer only moves up between inserts (which reset it to 1), so
        # the walk is amortised against the accesses that emptied the
        # buckets below.
        steps = 0
        min_freq = self._min_freq
        while min_freq not in self._buckets:
            min_freq += 1
            steps += 1
        if not peek:
            self._min_freq = min_freq
            self.stats.victim_scan_steps += steps
        node = self._scan(self._buckets[min_freq], peek)
        if node is not None:
            return node.block
        # Rare: every minimum-frequency block is transiently pinned/busy.
        for freq in sorted(self._buckets):
            if freq == min_freq:
                continue
            node = self._scan(self._buckets[freq], peek)
            if node is not None:
                return node.block
        return None

    def _retire(self, node: _Node, ghost: bool) -> None:
        owner = node.owner
        super()._retire(node, ghost)
        if owner is not None and len(owner) == 0:
            self._buckets.pop(node.freq, None)

    def _unpark(self, node: _Node) -> None:
        # Frequency buckets are created and dropped on demand, so the home
        # pointer is resolved by frequency rather than by list identity.
        node.home = None
        self._min_freq = min(self._min_freq, node.freq)
        self._bucket(node.freq).append(node)

    def snapshot(self) -> dict:
        snap = super().snapshot()
        snap["frequency_buckets"] = len(self._buckets)
        return snap


class SlruPolicy(ReplacementPolicy):
    """Segmented LRU: a probationary and a protected segment.

    New blocks enter the probationary segment; a re-reference promotes to
    the protected segment, whose size is capped at ``protected_fraction`` of
    the cache — overflow demotes the protected LRU block back to the MRU end
    of probation.  Victims come from probation first.
    """

    name = "slru"

    def __init__(
        self, capacity: int, rng=None, stats=None, config=None, protected_fraction: float = 0.5
    ):
        super().__init__(capacity, rng, stats)
        if not (0.0 < protected_fraction < 1.0):
            raise ConfigurationError("SLRU protected fraction must be in (0, 1)")
        self.protected_capacity = max(1, int(capacity * protected_fraction))
        self._probation = _DList("probationary")
        self._protected = _DList("protected")

    def on_insert(self, block: CacheBlock) -> None:
        self._probation.append(self._register(block))

    def on_access(self, block: CacheBlock) -> None:
        node = self._node_of(block)
        if node is None:
            return
        if node.owner is None:
            # Parked (dirty): a re-reference earns protection once cleaned.
            node.home = self._protected
            return
        if node.owner is self._protected:
            self._protected.move_to_tail(node)
            return
        self._probation.remove(node)
        self._append_protected(node)

    def _append_protected(self, node: _Node) -> None:
        self._protected.append(node)
        if len(self._protected) > self.protected_capacity:
            demoted = self._protected.pop_head()
            if demoted is not None:
                self._probation.append(demoted)

    def _unpark(self, node: _Node) -> None:
        home = node.home
        node.home = None
        if home is self._protected:
            self._append_protected(node)
        else:
            self._probation.append(node)

    def victim(self, incoming=None, peek=False) -> Optional[CacheBlock]:
        node = self._scan(self._probation, peek)
        if node is None:
            node = self._scan(self._protected, peek)
        return node.block if node else None

    def snapshot(self) -> dict:
        snap = super().snapshot()
        snap["probationary"] = len(self._probation)
        snap["protected"] = len(self._protected)
        return snap


class LruKPolicy(ReplacementPolicy):
    """O(1) approximation of LRU-K (O'Neil et al.).

    Blocks with fewer than K recorded references live in a *history* list
    and are evicted first, in LRU order — exactly the classic "backward
    K-distance is infinite" rule.  Mature blocks (>= K references) live in a
    second list that is maintained in reference-recency order; this
    approximates ordering by K-th-most-recent reference without the O(log n)
    priority queue of the exact algorithm.
    """

    name = "lru-k"

    def __init__(self, capacity: int, rng=None, stats=None, config=None, k: int = 2):
        super().__init__(capacity, rng, stats)
        if config is not None:
            k = config.lru_k
        if k < 1:
            raise ConfigurationError("LRU-K requires k >= 1")
        self.k = k
        self._history = _DList("history")
        self._mature = _DList("mature")

    def _target(self, block: CacheBlock) -> _DList:
        return self._mature if block.access_count >= self.k else self._history

    def on_insert(self, block: CacheBlock) -> None:
        self._target(block).append(self._register(block))

    def on_access(self, block: CacheBlock) -> None:
        node = self._node_of(block)
        if node is None:
            return
        if node.owner is None:  # parked: re-listed by _unpark when cleaned
            return
        target = self._target(block)
        if node.owner is target:
            target.move_to_tail(node)
        else:
            node.owner.remove(node)
            target.append(node)

    def victim(self, incoming=None, peek=False) -> Optional[CacheBlock]:
        node = self._scan(self._history, peek)
        if node is None:
            node = self._scan(self._mature, peek)
        return node.block if node else None

    def _unpark(self, node: _Node) -> None:
        # The block's reference count may have crossed K while it was
        # parked, so the destination list is recomputed.
        node.home = None
        target = self._target(node.block) if node.block is not None else self._history
        target.append(node)

    def snapshot(self) -> dict:
        snap = super().snapshot()
        snap["history"] = len(self._history)
        snap["mature"] = len(self._mature)
        return snap

    def __repr__(self) -> str:
        return f"LruKPolicy(capacity={self.capacity}, k={self.k})"


class ClockPolicy(ReplacementPolicy):
    """Second-chance CLOCK: a circular list, a sweeping hand, reference bits.

    A reference sets the block's bit; the hand sweeps the ring clearing set
    bits and evicts the first eligible block whose bit is already clear.
    Each reference adds at most one future hand step, so victim selection is
    O(1) amortised.  New blocks are inserted just behind the hand (they get
    almost a full lap before first consideration) with their bit clear.
    """

    name = "clock"

    def __init__(self, capacity: int, rng=None, stats=None, config=None):
        super().__init__(capacity, rng, stats)
        self._ring = _DList("clock")
        self._hand: Optional[_Node] = None

    def on_insert(self, block: CacheBlock) -> None:
        node = self._register(block)
        node.ref = False
        if self._hand is None:
            self._ring.append(node)
            self._hand = node
        else:
            self._ring.insert_before(node, self._hand)

    def on_access(self, block: CacheBlock) -> None:
        node = self._node_of(block)
        if node is not None:
            node.ref = True

    def victim(self, incoming=None, peek=False) -> Optional[CacheBlock]:
        if self._hand is None:
            return None
        if peek:
            return self._peek_victim()
        # At most two laps: the first may clear reference bits, the second
        # must then find a clear eligible block if one exists.
        limit = 2 * len(self._ring) + 1
        steps = 0
        while steps < limit:
            steps += 1
            node = self._hand
            self._hand = self._ring.next_wrapping(node)
            if not _evictable(node.block):
                continue
            if node.ref:
                node.ref = False  # second chance
                continue
            self.stats.victim_scan_steps += steps
            return node.block
        self.stats.victim_scan_steps += steps
        return None

    def _peek_victim(self) -> Optional[CacheBlock]:
        """The block a sweep would evict, without clearing any bits."""
        fallback = None
        node = self._hand
        for _ in range(len(self._ring)):
            if _evictable(node.block):
                if not node.ref:
                    return node.block
                if fallback is None:
                    fallback = node.block
            node = self._ring.next_wrapping(node)
        return fallback

    def _retire(self, node: _Node, ghost: bool) -> None:
        if node is self._hand:
            self._hand = self._ring.next_wrapping(node)
            if self._hand is node:  # it was the only node
                self._hand = None
        super()._retire(node, ghost)

    def on_dirty(self, block: CacheBlock) -> None:
        node = self._node_of(block)
        if node is None or node.owner is None:
            return
        if node is self._hand:
            self._hand = self._ring.next_wrapping(node)
            if self._hand is node:
                self._hand = None
        self._ring.remove(node)

    def _unpark(self, node: _Node) -> None:
        # Rejoin the ring just behind the hand (a nearly full lap before
        # first consideration), keeping any reference bit set while parked.
        node.home = None
        if self._hand is None:
            self._ring.append(node)
            self._hand = node
        else:
            self._ring.insert_before(node, self._hand)

    @property
    def hand_key(self) -> Optional[BlockId]:
        """Identity currently under the hand (exposed for tests)."""
        return self._hand.key if self._hand is not None else None

    def snapshot(self) -> dict:
        snap = super().snapshot()
        snap["referenced"] = sum(1 for node in self._ring if node.ref)
        return snap


class TwoQPolicy(ReplacementPolicy):
    """Full 2Q (Johnson & Shasha, VLDB '94).

    * ``A1in`` — a FIFO of first-time blocks (default 25% of the cache);
      re-references inside A1in are deliberately ignored (correlated
      references).
    * ``A1out`` — a ghost FIFO of identities evicted from A1in (default
      sized at 50% of the cache).  A miss that hits A1out is the signal of
      real reuse: the block is admitted straight into Am.
    * ``Am`` — the main LRU list of proven-hot blocks.

    One-shot scans stream through A1in and never displace Am, which is what
    makes 2Q scan-resistant.
    """

    name = "2q"

    def __init__(
        self,
        capacity: int,
        rng=None,
        stats=None,
        config=None,
        in_fraction: float = 0.25,
        out_fraction: float = 0.5,
    ):
        super().__init__(capacity, rng, stats)
        if config is not None:
            in_fraction, out_fraction = config.twoq_in_fraction, config.twoq_out_fraction
        if not (0.0 < in_fraction < 1.0):
            raise ConfigurationError("2Q in_fraction must be in (0, 1)")
        if out_fraction <= 0.0:
            raise ConfigurationError("2Q out_fraction must be positive")
        self.k_in = max(1, int(capacity * in_fraction))
        self.k_out = max(1, int(capacity * out_fraction))
        self._a1in = _DList("a1in")
        self._am = _DList("am")
        self._a1out = _DList("a1out")
        self._ghosts: Dict[BlockId, _Node] = {}

    def on_insert(self, block: CacheBlock) -> None:
        key = block.block_id
        node = self._register(block)
        ghost = self._ghosts.pop(key, None)
        if ghost is not None:
            self._a1out.remove(ghost)
            self.stats.ghost_hits += 1
            self._am.append(node)
        else:
            self._a1in.append(node)

    def on_access(self, block: CacheBlock) -> None:
        node = self._node_of(block)
        if node is None:
            return
        if node.owner is self._am:
            self._am.move_to_tail(node)
        # References inside A1in are correlated; 2Q ignores them.

    def victim(self, incoming=None, peek=False) -> Optional[CacheBlock]:
        prefer_in = len(self._a1in) > self.k_in or len(self._am) == 0
        primary, secondary = (
            (self._a1in, self._am) if prefer_in else (self._am, self._a1in)
        )
        node = self._scan(primary, peek)
        if node is None:
            node = self._scan(secondary, peek)
        return node.block if node else None

    def _retire(self, node: _Node, ghost: bool) -> None:
        from_a1in = node.segment is self._a1in
        super()._retire(node, ghost)
        if ghost and from_a1in:
            # Remember the identity in A1out; only reuse *after* A1in counts.
            ghost_node = _Node(node.key)
            self._a1out.append(ghost_node)
            self._ghosts[node.key] = ghost_node
            while len(self._a1out) > self.k_out:
                dropped = self._a1out.pop_head()
                if dropped is not None:
                    self._ghosts.pop(dropped.key, None)

    def forget_file(self, file_id: int, from_block: int = 0) -> None:
        for key in [
            k for k in self._ghosts if k.file_id == file_id and k.block_no >= from_block
        ]:
            ghost = self._ghosts.pop(key)
            self._a1out.remove(ghost)

    def snapshot(self) -> dict:
        snap = super().snapshot()
        snap["a1in"] = len(self._a1in)
        snap["am"] = len(self._am)
        snap["a1out_ghosts"] = len(self._a1out)
        return snap


class ArcPolicy(ReplacementPolicy):
    """Adaptive Replacement Cache (Megiddo & Modha, FAST '03).

    Resident blocks live in ``T1`` (seen once recently) or ``T2`` (seen at
    least twice); evicted identities are remembered in the ghost lists
    ``B1``/``B2``.  A miss that hits B1 says "T1 deserved more room" and
    grows the adaptation target ``p``; a B2 ghost hit shrinks it.  ARC
    therefore tunes itself between recency (LRU-like) and frequency
    (LFU-like) behaviour online, and one-shot scans — whose identities die
    in B1 unreferenced — cannot displace the frequent working set in T2.
    """

    name = "arc"

    def __init__(self, capacity: int, rng=None, stats=None, config=None):
        super().__init__(capacity, rng, stats)
        self._t1 = _DList("t1")
        self._t2 = _DList("t2")
        self._b1 = _DList("b1")
        self._b2 = _DList("b2")
        self._ghosts: Dict[BlockId, _Node] = {}
        #: adaptation target: desired size of T1, in blocks.
        self.p = 0.0

    # -- events ---------------------------------------------------------------

    def on_insert(self, block: CacheBlock) -> None:
        key = block.block_id
        node = self._register(block)
        ghost = self._ghosts.pop(key, None)
        if ghost is not None:
            in_b1 = ghost.owner is self._b1
            ghost.owner.remove(ghost)
            self.stats.ghost_hits += 1
            self._adapt(hit_in_b1=in_b1)
            self._t2.append(node)  # proven reuse goes straight to T2
        else:
            self._t1.append(node)
        self._trim_ghosts()

    def on_access(self, block: CacheBlock) -> None:
        node = self._node_of(block)
        if node is None:
            return
        if node.owner is None:
            # Parked (dirty): a re-reference proves reuse, so the block
            # re-enters in T2 once it is cleaned.
            node.home = self._t2
            return
        if node.owner is self._t1:
            self._t1.remove(node)
            self._t2.append(node)
        elif node.owner is self._t2:
            self._t2.move_to_tail(node)

    def victim(self, incoming=None, peek=False) -> Optional[CacheBlock]:
        incoming_in_b2 = (
            incoming is not None
            and (ghost := self._ghosts.get(incoming)) is not None
            and ghost.owner is self._b2
        )
        t1_len = len(self._t1)
        prefer_t1 = t1_len >= 1 and (
            t1_len > self.p or (incoming_in_b2 and t1_len == int(self.p))
        )
        primary, secondary = (
            (self._t1, self._t2) if prefer_t1 else (self._t2, self._t1)
        )
        node = self._scan(primary, peek)
        if node is None:
            node = self._scan(secondary, peek)
        return node.block if node else None

    def _retire(self, node: _Node, ghost: bool) -> None:
        from_t1 = node.segment is self._t1
        super()._retire(node, ghost)
        if not ghost:
            return
        ghost_node = _Node(node.key)
        if from_t1:
            self._b1.append(ghost_node)
        else:
            self._b2.append(ghost_node)
        self._ghosts[node.key] = ghost_node
        self._trim_ghosts()

    # -- ARC internals --------------------------------------------------------

    def _adapt(self, hit_in_b1: bool) -> None:
        """Move the target ``p`` toward the list that proved too small."""
        b1, b2 = len(self._b1), len(self._b2)
        if hit_in_b1:
            delta = 1.0 if b1 >= b2 else b2 / max(b1, 1)
            self.p = min(float(self.capacity), self.p + delta)
        else:
            delta = 1.0 if b2 >= b1 else b1 / max(b2, 1)
            self.p = max(0.0, self.p - delta)
        self.stats.policy_adaptations += 1

    def _trim_ghosts(self) -> None:
        """Enforce |T1|+|B1| <= c and |T1|+|T2|+|B1|+|B2| <= 2c."""
        while self._b1 and len(self._t1) + len(self._b1) > self.capacity:
            self._drop_ghost(self._b1)
        total = len(self._t1) + len(self._t2) + len(self._b1) + len(self._b2)
        while total > 2 * self.capacity and (self._b1 or self._b2):
            self._drop_ghost(self._b2 if self._b2 else self._b1)
            total -= 1

    def _drop_ghost(self, dlist: _DList) -> None:
        dropped = dlist.pop_head()
        if dropped is not None:
            self._ghosts.pop(dropped.key, None)

    # -- introspection --------------------------------------------------------

    def forget_file(self, file_id: int, from_block: int = 0) -> None:
        for key in [
            k for k in self._ghosts if k.file_id == file_id and k.block_no >= from_block
        ]:
            ghost = self._ghosts.pop(key)
            ghost.owner.remove(ghost)

    def ghost_lists(self) -> tuple[list[BlockId], list[BlockId]]:
        """(B1, B2) identities, eviction end first (exposed for tests)."""
        return [n.key for n in self._b1], [n.key for n in self._b2]

    def snapshot(self) -> dict:
        snap = super().snapshot()
        snap.update(
            t1=len(self._t1),
            t2=len(self._t2),
            b1_ghosts=len(self._b1),
            b2_ghosts=len(self._b2),
            target_t1=round(self.p, 3),
        )
        return snap


#: every recognised policy name, in the order reports show them.
POLICY_NAMES = ("lru", "random", "lfu", "slru", "lru-k", "clock", "2q", "arc")


# Every "replacement" factory is called as (capacity, rng, stats, config):
# ``config`` is the cache's CacheConfig, from which a policy with knobs there
# (``lru_k``, ``twoq_*``) reads them, so a policy class is its own factory.
for _cls in (
    LruPolicy, RandomPolicy, LfuPolicy, SlruPolicy, LruKPolicy, ClockPolicy, TwoQPolicy, ArcPolicy
):
    registry.register("replacement", _cls.name, _cls)
