"""Cache flush (delayed write / "write saving") policies.

"Specific persistency requirements can be implemented in derived components
that call into the base component to initiate cache flushes."  These are the
policies compared in Section 5.1 of the paper:

* :class:`PeriodicUpdatePolicy` — the Unix SVR4 30-second-update timer: a
  daemon examines the cache every few seconds and, while there is a dirty
  block older than the update interval, flushes the file that owns the
  oldest dirty block.
* :class:`WriteSavingPolicy` (the "UPS" experiment) — dirty data stays in
  memory indefinitely; blocks are only written when the cache runs out of
  non-dirty blocks (a UPS protects against power failure).
* :class:`NvramPolicy` — dirty data may only occupy an NVRAM buffer of fixed
  size (4 MB in the paper); when the NVRAM is full, the oldest dirty block is
  flushed, either on its own (``whole_file=False``, the "partial file"
  experiment) or together with all other dirty blocks of its file
  (``whole_file=True``, the "whole file" experiment).

All policies additionally install an *asynchronous flush daemon* when
``FlushConfig.asynchronous`` is true: allocation pressure wakes the daemon
instead of performing the flush in the thread that needed a block — the
exact change Section 5.2 describes as a lesson learnt in the simulator.
"""

from __future__ import annotations

from abc import ABC
from dataclasses import replace
from typing import TYPE_CHECKING, Any, Generator, List, Optional

from repro.assembly.registry import registry
from repro.config import FlushConfig
from repro.core.cache import BlockCache
from repro.core.scheduler import Scheduler, Thread
from repro.units import add_counters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.storage.array import ShardedCache

__all__ = [
    "FlushPolicy",
    "PeriodicUpdatePolicy",
    "WriteSavingPolicy",
    "NvramPolicy",
    "ShardedFlushPolicy",
]


class FlushPolicy(ABC):
    """Base class for persistency policies driving the block cache."""

    name = "abstract"

    #: free-block low-water mark of the asynchronous daemon, as a fraction
    #: of the cache: an allocation leaving fewer free + clean blocks wakes
    #: the daemon, which flushes until this many are allocatable again, so
    #: it restocks before allocations stall.  0 keeps strict flush-on-demand.
    daemon_low_water = 0.0

    def __init__(self, config: FlushConfig):
        self.config = config
        self.cache: Optional[BlockCache] = None
        self.scheduler: Optional[Scheduler] = None
        self.daemon_thread: Optional[Thread] = None
        self.policy_thread: Optional[Thread] = None
        self._work = None
        self.daemon_wakeups = 0
        self.policy_flushes = 0
        #: space requests absorbed by an already-pending daemon wakeup.
        self.wakeups_coalesced = 0
        #: blocks flushed ahead of demand to restock the free-block pool.
        self.flush_ahead_blocks = 0
        #: cluster node this policy's daemons run on.
        self.node = 0

    # -- wiring ---------------------------------------------------------------

    def attach(self, cache: BlockCache, scheduler: Scheduler, node: int = 0) -> None:
        """Connect the policy to a cache and start its service threads.

        ``node`` tags the daemons with the cluster node that owns the cache:
        the node-merge scheduling order sorts by it, and a volume access
        from its owner's daemons stays off the network.
        """
        self.cache = cache
        self.scheduler = scheduler
        self.node = node
        self._work = scheduler.new_event(f"{self.name}-flush-work")
        self.configure_cache(cache)
        if self.config.asynchronous:
            cache.space_requester = self._request_space
            cache.low_water_blocks = int(cache.num_blocks * self.daemon_low_water)
            self.daemon_thread = scheduler.spawn(
                self._flush_daemon, name=f"{self.name}-flush-daemon", daemon=True, node=node
            )
        self.policy_thread = self.start()

    def configure_cache(self, cache: BlockCache) -> None:
        """Hook for derived policies to set cache knobs (NVRAM limit, ...)."""

    def start(self) -> Optional[Thread]:
        """Hook for derived policies to spawn their periodic thread."""
        return None

    # -- asynchronous flush daemon ----------------------------------------------

    def _request_space(self) -> None:
        assert self._work is not None
        if self._work.is_signalled:
            # A wakeup is already latched: this request rides along with it
            # instead of costing another daemon round trip.
            self.wakeups_coalesced += 1
            return
        self._work.signal()

    def stats(self) -> dict:
        """Daemon and policy counters for reports and ablations."""
        return {
            "daemon_wakeups": self.daemon_wakeups,
            "wakeups_coalesced": self.wakeups_coalesced,
            "policy_flushes": self.policy_flushes,
            "flush_ahead_blocks": self.flush_ahead_blocks,
        }

    def _flush_daemon(self) -> Generator[Any, Any, None]:
        """Flush dirty data whenever allocation pressure asks for space.

        Below its low water (``cache.low_water_blocks``) an allocation wakes
        the daemon before anyone stalls, and each wakeup flushes *ahead* of
        demand until that many blocks are free or clean again: a burst of
        allocations costs one wakeup, not one stall per request.  A low water
        of 0 keeps strict flush-on-demand (UPS write saving never writes early).
        """
        assert self.cache is not None
        cache = self.cache
        while True:
            yield from self._work.wait()
            self.daemon_wakeups += 1
            guard = 0
            while not cache.has_allocatable_slot():
                written = yield from cache.flush_oldest()
                if written == 0:
                    # Nothing flushable right now (everything busy); wait for
                    # in-flight I/O to complete and re-evaluate.
                    yield from cache.wait_block_ready()
                guard += 1
                if guard > 10 * cache.num_blocks:
                    break
            cache.notify_space_available()
            # Flush ahead of demand down to the free-block low-water mark.
            while (
                cache.free_count + cache.clean_count < cache.low_water_blocks
                and guard <= 10 * cache.num_blocks
            ):
                written = yield from cache.flush_oldest()
                if written == 0:
                    break
                self.flush_ahead_blocks += written
                guard += 1


class PeriodicUpdatePolicy(FlushPolicy):
    """The Unix 30-second-update baseline (the "write delay" experiment).

    Every ``scan_interval`` seconds the daemon examines the cache; every file
    owning a dirty block older than ``update_interval`` is pushed to disk.
    As in the real Unix update daemon, the write-backs are *asynchronous*:
    the daemon queues one flush of all eligible files (one writeback batch,
    one log append per volume under LFS) and does not wait for the disk,
    so an update cycle dumps a burst of writes into the disk queues —
    which is exactly the queueing behaviour ("disk I/O queues are the main
    cause of relatively high file-system latencies") that the write-saving
    experiments set out to eliminate.
    """

    name = "periodic"

    #: the update daemon writes on a timer anyway, so flushing slightly
    #: ahead of allocation pressure costs little write traffic but restocks
    #: the pool before an allocation has to stall.
    daemon_low_water = 1.0 / 16.0

    def start(self) -> Thread:
        assert self.scheduler is not None
        return self.scheduler.spawn(
            self._update_daemon, name="update-daemon", daemon=True, node=self.node
        )

    def _update_daemon(self) -> Generator[Any, Any, None]:
        assert self.cache is not None and self.scheduler is not None
        cache = self.cache
        while True:
            yield from self.scheduler.sleep(self.config.scan_interval)
            # "When it detects that there exists a dirty block older than 30
            # seconds, it flushes the file associated to the oldest block."
            cutoff = self.scheduler.now - self.config.update_interval
            expired = dict.fromkeys(
                block.block_id.file_id
                for block in cache._dirty.values()
                if block.dirty_since is not None and block.dirty_since <= cutoff
            )
            if expired:
                self.scheduler.spawn(self._flush, list(expired), name="update-flush", daemon=True)

    def _flush(self, file_ids: List[int]) -> Generator[Any, Any, None]:
        assert self.cache is not None
        flushed = yield from self.cache.flush_files(file_ids)
        self.policy_flushes += flushed


class WriteSavingPolicy(FlushPolicy):
    """Write-saving / UPS: flush only under allocation pressure.

    All of memory may hold dirty data; a UPS (or client-side replication, see
    the paper's reference [4]) protects it against power failure.  Nothing is
    written until the cache runs out of non-dirty blocks, which maximises the
    chance that deletes and truncates make writes unnecessary.
    """

    name = "ups"

    #: write saving *is* the policy: every block written ahead of real
    #: pressure is a block that might have died in memory.
    daemon_low_water = 0.0


class NvramPolicy(FlushPolicy):
    """Dirty data confined to an NVRAM buffer.

    ``whole_file`` selects between the two flush variants measured in the
    paper.  There are no timer-driven writes; the NVRAM is drained oldest
    first when space is needed.  With ``asynchronous`` flushing a dirtying
    that takes occupancy past a high-water mark signals a drain daemon, so
    that a writer only has to wait ("new writes are waiting for the NVRAM
    to drain") when the incoming write rate genuinely exceeds the drain
    rate — which is exactly what happens on the write-heavy traces (1b, 5)
    and not on the ordinary ones.  A writer at the limit signals the daemon
    too and waits; without ``asynchronous`` it flushes in its own thread.
    """

    name = "nvram"

    #: the drain daemon already drains at its own high water; a second
    #: flush-ahead would fight it for the same blocks and blur the "drain
    #: only when the NVRAM fills" semantics being measured.
    daemon_low_water = 0.0
    #: a dirtying past this fraction of the NVRAM signals the drain daemon.
    high_water = 0.90
    #: a drain round leaves at most this fraction of the NVRAM dirty.
    low_water = 0.75

    def configure_cache(self, cache: BlockCache) -> None:
        cache.dirty_limit_bytes = self.config.nvram_bytes
        # The paper's two NVRAM experiments; the stall path, the drain
        # daemon and replacement pressure all honour the same granularity.
        cache.flush_unit = "file" if self.config.whole_file else "block"

    def start(self) -> Optional[Thread]:
        assert self.cache is not None and self.scheduler is not None
        if not self.config.asynchronous:
            return None
        self._drain = self.scheduler.new_event("nvram-drain")
        self.cache.drain_requester = self._drain.signal
        self.cache.drain_high_water_bytes = int(self.high_water * self.config.nvram_bytes)
        return self.scheduler.spawn(
            self._drain_daemon, name="nvram-drain", daemon=True, node=self.node
        )

    def _drain_daemon(self) -> Generator[Any, Any, None]:
        """Each wake-up writes one batch, oldest data first: whole files
        until what stays dirty is at most low water and leaves room for one
        more block, one log append per volume for them all; or, for partial
        files, the oldest block alone.  That is the paper's partial-file
        experiment: a batch of the oldest blocks would write files piecemeal
        as cheaply as whole and measure nothing the whole-file run does not.
        A batch that leaves more than that dirty wakes the daemon again."""
        assert self.cache is not None
        cache = self.cache
        limit = self.config.nvram_bytes
        keep = min(int(self.low_water * limit), limit - cache.block_size)
        keep = max(keep // cache.block_size, 0)
        while True:
            yield from self._drain.wait()
            excess = cache.dirty_count - keep
            if excess <= 0:
                continue
            flushed = yield from cache.flush_oldest(excess if self.config.whole_file else 1)
            self.policy_flushes += flushed
            if flushed == 0:
                # Every dirty block is on its way to disk under another
                # flusher: look again once one of them lands.
                yield from cache.wait_block_ready()
            if flushed < excess:
                self._drain.signal()


class ShardedFlushPolicy(FlushPolicy):
    """The configured flush policy once per cache shard, that is once per
    node: each node's update or drain daemon works against its own memory's
    dirty list, on that node.  A single machine has one shard and gets the
    whole NVRAM; a cluster splits the budget evenly over its nodes, so the
    total dirty-data bound is the spec's.  The counters are the per-node
    policies' added up."""

    name = "sharded"

    def __init__(self, config: FlushConfig):
        super().__init__(config)
        self.children: List[FlushPolicy] = []

    def attach(self, cache: "ShardedCache", scheduler: Scheduler, node: int = 0) -> None:
        self.cache = cache  # type: ignore[assignment]
        self.scheduler = scheduler
        shards = cache.shards
        nvram_bytes = max(self.config.nvram_bytes // len(shards), 1)
        child_config = replace(self.config, nvram_bytes=nvram_bytes)
        for shard_node, shard in enumerate(shards):
            child = registry.create("flush", child_config.policy, child_config)
            child.attach(shard, scheduler, node=shard_node)
            self.children.append(child)

    def stats(self) -> dict:
        return add_counters(child.stats() for child in self.children)


# "flush" factories take one FlushConfig and return an unattached policy.
registry.register("flush", "periodic", PeriodicUpdatePolicy)
registry.register("flush", "ups", WriteSavingPolicy)
registry.register("flush", "nvram", NvramPolicy)
