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
Ghost lists — recency lists of *evicted* block identities — let ARC
remember more history than fits in the cache, which is what makes it
scan-resistant.

Built-in policies:

``lru``     classic least-recently-used (one recency list), the paper's
            baseline,
``arc``     Megiddo & Modha's Adaptive Replacement Cache: T1/T2 resident
            lists, B1/B2 ghost lists and a self-tuning target ``p``; the
            default.

These two are what ``BENCH_components.json`` (written by
``benchmarks/components_matrix.py``) keeps: every other policy it measured
(RR, LFU, SLRU, LRU-K, CLOCK, 2Q) won no row on every seed and was deleted.
Any of them can come back as a derived class registered with
``registry.register("replacement", name, cls)``, without a core edit.

Pinned, busy and dirty blocks are never evicted; ``victim`` skips over them
from the eviction end of its lists, so the work per eviction is proportional
to the handful of temporarily ineligible blocks near the tail, not to the
cache size.  Every examined node is counted in ``stats.victim_scan_steps``
so tests and benchmarks can verify the O(1) claim directly.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import Dict, Optional

from repro.assembly.registry import registry
from repro.core.blocks import BlockId, BlockState, CacheBlock
from repro.errors import CacheError, ConfigurationError

__all__ = ["PolicyCounters", "ReplacementPolicy", "LruPolicy", "ArcPolicy"]

CLEAN = BlockState.CLEAN


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
    """Intrusive list node for one resident block."""

    __slots__ = ("key", "block", "prev", "next", "owner", "home")

    def __init__(self, key: BlockId, block: Optional[CacheBlock] = None):
        self.key = key
        #: the resident block (``None`` only on a list's sentinel).
        self.block = block
        self.prev: Optional["_Node"] = None
        self.next: Optional["_Node"] = None
        #: the :class:`_DList` currently holding this node (None if unlisted).
        self.owner: Optional["_DList"] = None
        #: while the block is dirty (parked off-list), the list it returns
        #: to when cleaned; policies may retarget it on parked accesses.
        self.home: Optional["_DList"] = None


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

    def append(self, node: _Node) -> None:
        """Insert at the tail (the MRU / most-recently-inserted end)."""
        if node.owner is not None:
            raise CacheError(f"node {node.key} is already on list {node.owner.tag!r}")
        anchor = self._sentinel
        node.prev = anchor.prev
        node.next = anchor
        anchor.prev.next = node
        anchor.prev = node
        node.owner = self
        self._size += 1

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

    Every policy is constructed as ``(capacity, rng, stats)``; ``rng`` is
    the scheduler's seeded generator, for a policy that draws (random
    replacement), and a policy with parameters of its own takes them as
    keyword arguments whose defaults are the values the stack uses.

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
        node = self._nodes.get(block.block_id)
        if node is None or node.owner is None:
            return
        node.home = node.owner
        node.owner.remove(node)

    def on_clean(self, block: CacheBlock) -> None:
        """A dirty ``block`` was written back: restore it as evictable."""
        node = self._nodes.get(block.block_id)
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
        if node is not None and node.owner is not None:
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

    def _scan(self, dlist: _DList, peek: bool) -> Optional[_Node]:
        """First evictable node from the eviction (head) end of ``dlist``.

        Ineligible blocks (pinned, busy, dirty) are skipped, not removed;
        they are expected to become eligible or leave the list soon, so the
        amortised work stays O(1).  Every node examined is counted.
        """
        steps = 0
        found = sentinel = dlist._sentinel
        while (found := found.next) is not sentinel:
            steps += 1
            block = found.block  # only clean, unpinned, idle blocks may go
            if block.state is CLEAN and not block.pin_count and not block.busy:
                break
        if not peek:
            self.stats.victim_scan_steps += steps
        return None if found is sentinel else found

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
    """Least-recently-used over one intrusive recency list (the paper's baseline)."""

    name = "lru"

    def __init__(self, capacity: int, rng=None, stats=None):
        super().__init__(capacity, rng, stats)
        self._list = _DList("lru")

    def on_insert(self, block: CacheBlock) -> None:
        self._list.append(self._register(block))

    def on_access(self, block: CacheBlock) -> None:
        node = self._nodes.get(block.block_id)
        if node is not None and node.owner is not None:
            self._list.move_to_tail(node)

    def victim(self, incoming=None, peek=False) -> Optional[CacheBlock]:
        node = self._scan(self._list, peek)
        return node.block if node else None

    def _default_list(self) -> _DList:
        return self._list


class ArcPolicy(ReplacementPolicy):
    """Adaptive Replacement Cache (Megiddo & Modha, FAST '03).

    Resident blocks live in ``T1`` (seen once recently) or ``T2`` (seen at
    least twice); evicted identities are remembered in the ghost lists
    ``B1``/``B2``.  A miss that hits B1 says "T1 deserved more room" and
    grows the adaptation target ``p``; a B2 ghost hit shrinks it.  ARC
    therefore tunes itself between recency (LRU-like) and frequency
    (LFU-like) behaviour online, and one-shot scans — whose identities die
    in B1 unreferenced — cannot displace the frequent working set in T2.

    Kept by the component matrix (``BENCH_components.json``), and the
    default because it wins row ``e2e/sprite_mix`` there (mean latency at
    most 0.76 of every other policy's on seeds 1-3: 0.492 / 0.533 / 0.432
    ms against LRU's 0.706 / 0.723 / 0.569); on ``e2e/cluster_repl`` it
    takes 0.87-0.93 of LRU's.  The Sprite-like rows, and
    with them Figs. 2-5, never evict a block, so there it measures as LRU.
    """

    name = "arc"

    def __init__(self, capacity: int, rng=None, stats=None):
        super().__init__(capacity, rng, stats)
        self._t1 = _DList("t1")
        self._t2 = _DList("t2")
        # The ghosts are identities only, oldest first: no node outlives
        # its block, so a ghost costs no object the garbage collector tracks.
        self._b1: OrderedDict[BlockId, None] = OrderedDict()
        self._b2: OrderedDict[BlockId, None] = OrderedDict()
        #: every ghost by file, ``file_id -> {block_no: B1 or B2}``, so that
        #: a truncate or delete touches only its own file's ghosts.
        self._ghosts_of: Dict[int, Dict[int, OrderedDict]] = {}
        #: adaptation target: desired size of T1, in blocks.
        self.p = 0.0

    # -- events ---------------------------------------------------------------

    def on_insert(self, block: CacheBlock) -> None:
        node = self._register(block)
        key = node.key
        by_file = self._ghosts_of.get(key[0])
        ghosts = by_file.get(key[1]) if by_file else None
        if ghosts is not None:
            self._drop_ghost(key, ghosts)
            self.stats.ghost_hits += 1
            self._adapt(hit_in_b1=ghosts is self._b1)
            self._t2.append(node)  # proven reuse goes straight to T2
        else:
            self._t1.append(node)
        self._trim_ghosts()

    def on_access(self, block: CacheBlock) -> None:
        node = self._nodes.get(block.block_id)
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
        t1, t2 = self._t1, self._t2
        size = t1._size
        # REPLACE: take from T1 while it is over its target, or at it when
        # the incoming block is a B2 ghost; else from T2.
        if size and (size > self.p or (size == int(self.p) and incoming in self._b2)):
            node = self._scan(t1, peek) or self._scan(t2, peek)
        else:
            node = self._scan(t2, peek) or self._scan(t1, peek)
        return None if node is None else node.block

    def on_evict(self, block: CacheBlock, ghost: bool = True) -> None:
        node = self._nodes.pop(block.block_id, None)
        if node is None:
            return
        segment = node.owner
        if segment is not None:
            segment.remove(node)
        else:
            segment = node.home
        if not ghost:
            return
        key = node.key
        ghosts = self._b1 if segment is self._t1 else self._b2
        ghosts[key] = None
        self._ghosts_of.setdefault(key[0], {})[key[1]] = ghosts
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
        b1, b2 = self._b1, self._b2
        t1_size = self._t1._size
        excess = t1_size + len(b1) - self.capacity
        while excess > 0 and b1:
            self._unindex(b1.popitem(last=False)[0])
            excess -= 1
        excess = t1_size + self._t2._size + len(b1) + len(b2) - 2 * self.capacity
        while excess > 0 and (b1 or b2):
            self._unindex((b2 if b2 else b1).popitem(last=False)[0])
            excess -= 1

    def _drop_ghost(self, key: BlockId, ghosts: OrderedDict) -> None:
        del ghosts[key]
        self._unindex(key)

    def _unindex(self, key: BlockId) -> None:
        file_id, block_no = key
        blocks = self._ghosts_of[file_id]
        del blocks[block_no]
        if not blocks:
            del self._ghosts_of[file_id]

    # -- introspection --------------------------------------------------------

    def forget_file(self, file_id: int, from_block: int = 0) -> None:
        by_file = self._ghosts_of.get(file_id)
        if by_file:
            for block_no, ghosts in [(no, of) for no, of in by_file.items() if no >= from_block]:
                self._drop_ghost(BlockId(file_id, block_no), ghosts)

    def ghost_lists(self) -> tuple[list[BlockId], list[BlockId]]:
        """(B1, B2) identities, eviction end first (exposed for tests)."""
        return list(self._b1), list(self._b2)

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


# Every "replacement" factory is called as (capacity, rng, stats), so a
# policy class is its own factory.
for _cls in (LruPolicy, ArcPolicy):
    registry.register("replacement", _cls.name, _cls)
