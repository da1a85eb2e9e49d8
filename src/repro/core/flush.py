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
from repro.errors import ConfigurationError

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

        With ``FlushConfig.daemon_low_water`` set, each wakeup also flushes
        *ahead* of demand until that fraction of the cache is allocatable
        again, so a burst of allocations is absorbed by one wakeup instead
        of one per request.  The default of 0 keeps strict flush-on-demand
        (the UPS write-saving policy depends on never writing early).
        """
        assert self.cache is not None
        cache = self.cache
        low_water_blocks = int(cache.num_blocks * self.config.resolved_daemon_low_water())
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
                low_water_blocks
                and cache.free_count + cache.clean_count < low_water_blocks
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
    the daemon queues one flush per eligible file and does not wait for the
    disk, so an update cycle dumps a burst of writes into the disk queues —
    which is exactly the queueing behaviour ("disk I/O queues are the main
    cause of relatively high file-system latencies") that the write-saving
    experiments set out to eliminate.
    """

    name = "periodic"

    def __init__(self, config: FlushConfig):
        super().__init__(config)
        #: bound on concurrently outstanding file flushes per update cycle.
        self.max_outstanding_flushes = 128
        self._outstanding = 0

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
            for file_id in expired:
                if self._outstanding >= self.max_outstanding_flushes:
                    break
                self._outstanding += 1
                self.scheduler.spawn(
                    self._flush_one_file, file_id, name=f"update-flush-{file_id}", daemon=True
                )

    def _flush_one_file(self, file_id: int) -> Generator[Any, Any, None]:
        assert self.cache is not None
        try:
            flushed = yield from self.cache.flush_file(file_id)
            self.policy_flushes += flushed
        finally:
            self._outstanding -= 1


class WriteSavingPolicy(FlushPolicy):
    """Write-saving / UPS: flush only under allocation pressure.

    All of memory may hold dirty data; a UPS (or client-side replication, see
    the paper's reference [4]) protects it against power failure.  Nothing is
    written until the cache runs out of non-dirty blocks, which maximises the
    chance that deletes and truncates make writes unnecessary.
    """

    name = "ups"


class NvramPolicy(FlushPolicy):
    """Dirty data confined to an NVRAM buffer.

    ``whole_file`` selects between the two flush variants measured in the
    paper.  There are no timer-driven writes; the NVRAM is drained oldest
    first when space is needed.  A small write-behind daemon starts draining
    once occupancy passes a high-water mark so that a writer only has to
    wait ("new writes are waiting for the NVRAM to drain") when the incoming
    write rate genuinely exceeds the drain rate — which is exactly what
    happens on the write-heavy traces (1b, 5) and not on the ordinary ones.
    """

    name = "nvram"

    #: start draining when dirty data exceeds this fraction of the NVRAM.
    high_water = 0.90
    #: stop draining when dirty data falls below this fraction.
    low_water = 0.75
    #: how often the drain daemon re-examines the NVRAM occupancy.
    drain_check_interval = 0.25

    def configure_cache(self, cache: BlockCache) -> None:
        cache.dirty_limit_bytes = self.config.nvram_bytes
        # The paper's two NVRAM experiments; the stall path, the drain
        # daemon and replacement pressure all honour the same granularity.
        cache.flush_unit = "file" if self.config.whole_file else "block"

    def start(self) -> Optional[Thread]:
        assert self.scheduler is not None
        return self.scheduler.spawn(
            self._drain_daemon, name="nvram-drain", daemon=True, node=self.node
        )

    def _drain_daemon(self) -> Generator[Any, Any, None]:
        assert self.cache is not None and self.scheduler is not None
        cache = self.cache
        limit = self.config.nvram_bytes
        while True:
            yield from self.scheduler.sleep(self.drain_check_interval)
            if cache.dirty_bytes <= self.high_water * limit:
                continue
            while cache.dirty_bytes > self.low_water * limit:
                flushed = yield from cache.flush_oldest()
                self.policy_flushes += flushed
                if flushed == 0:
                    break

    @property
    def nvram_blocks(self) -> int:
        assert self.cache is not None
        return self.config.nvram_bytes // self.cache.block_size


class ShardedFlushPolicy(FlushPolicy):
    """One flush daemon per cache shard, plus a shared dirty-ratio governor.

    Attached to a :class:`~repro.core.storage.array.ShardedCache`, this
    policy instantiates the configured flush policy once *per shard* — each
    volume gets its own update/drain daemon working against its own dirty
    list, exactly as the real machine ran one update daemon per file system.
    The NVRAM budget is split evenly over the shards so the array's total
    dirty-data bound matches the single-volume configuration.

    Cross-volume flush pressure is coordinated by a *governor* thread: when
    the aggregate dirty ratio across all shards passes ``high_water`` it
    drains the dirtiest shard (one ``flush_unit`` of that shard at a time)
    until the aggregate falls back below ``low_water``.
    The governor never runs for the UPS write-saving policy — writing ahead
    of real allocation pressure would defeat the write savings that policy
    exists to measure — or for single-shard caches, where there is no other
    shard to balance against.
    """

    name = "sharded"

    def __init__(
        self,
        config: FlushConfig,
        shard_nodes: List[int],
        high_water: float = 0.85,
        low_water: float = 0.70,
        check_interval: float = 1.0,
    ):
        super().__init__(config)
        if not (0.0 <= low_water <= high_water <= 1.0):
            raise ConfigurationError("governor water marks must satisfy 0 <= low <= high <= 1")
        if check_interval <= 0:
            raise ConfigurationError("governor check interval must be positive")
        self.high_water = high_water
        self.low_water = low_water
        self.check_interval = check_interval
        self.children: List[FlushPolicy] = []
        #: the node each shard's daemons (and its governor) run on.
        self.shard_nodes = shard_nodes
        self.governor_threads: List[Thread] = []
        self.governor_wakeups = 0
        self.governor_flushes = 0

    def attach(self, cache: "ShardedCache", scheduler: Scheduler, node: int = 0) -> None:
        self.cache = cache  # type: ignore[assignment]
        self.scheduler = scheduler
        self.node = node
        shards = cache.shards
        shard_nodes = self.shard_nodes
        if len(shard_nodes) != len(shards):
            raise ConfigurationError(
                f"shard_nodes carries {len(shard_nodes)} entries "
                f"for a {len(shards)}-shard cache"
            )
        child_config = self.config
        if self.config.policy == "nvram" and len(shards) > 1:
            child_config = replace(
                self.config, nvram_bytes=max(self.config.nvram_bytes // len(shards), 1)
            )
        for shard, shard_node in zip(shards, shard_nodes):
            child = registry.create("flush", child_config.policy, child_config)
            child.attach(shard, scheduler, node=shard_node)
            self.children.append(child)
        if self.config.policy == "ups" or self.high_water >= 1.0:
            return
        # One governor per node, each watching only its node's shards —
        # flush pressure never crosses the NIC boundary.  Thread names feed
        # the schedule digests: a single machine's governor has the plain one.
        distinct_nodes = sorted(set(shard_nodes))
        for shard_node in distinct_nodes:
            group = [s for s, n in zip(shards, shard_nodes) if n == shard_node]
            if len(group) <= 1:
                continue
            name = "dirty-governor"
            if len(distinct_nodes) > 1:
                name += f"-n{shard_node}"
            thread = scheduler.spawn(
                self._governor, group, name=name, daemon=True, node=shard_node
            )
            self.governor_threads.append(thread)

    def _governor(self, shards: List[BlockCache]) -> Generator[Any, Any, None]:
        assert self.cache is not None and self.scheduler is not None
        capacity = sum(shard.num_blocks * shard.block_size for shard in shards)
        while True:
            yield from self.scheduler.sleep(self.check_interval)
            if self._dirty_ratio(shards, capacity) <= self.high_water:
                continue
            self.governor_wakeups += 1
            while self._dirty_ratio(shards, capacity) > self.low_water:
                victim = max(
                    shards, key=lambda shard: shard.dirty_bytes / max(shard.num_blocks, 1)
                )
                written = yield from victim.flush_oldest()
                if written == 0:
                    break
                self.governor_flushes += written

    @staticmethod
    def _dirty_ratio(shards: List[BlockCache], capacity: int) -> float:
        return sum(shard.dirty_bytes for shard in shards) / max(capacity, 1)

    def stats(self) -> dict:
        """Aggregate child counters plus governor activity."""
        totals = {
            "daemon_wakeups": 0,
            "wakeups_coalesced": 0,
            "policy_flushes": 0,
            "flush_ahead_blocks": 0,
        }
        for child in self.children:
            for key, value in child.stats().items():
                totals[key] = totals.get(key, 0) + value
        totals["governor_wakeups"] = self.governor_wakeups
        totals["governor_flushes"] = self.governor_flushes
        return totals

    def shard_stats(self) -> List[dict]:
        """Per-shard flush counters, in shard (= volume) order."""
        return [child.stats() for child in self.children]


# "flush" factories take one FlushConfig and return an unattached policy.
registry.register("flush", "periodic", PeriodicUpdatePolicy)
registry.register("flush", "ups", WriteSavingPolicy)
registry.register("flush", "nvram", NvramPolicy)
