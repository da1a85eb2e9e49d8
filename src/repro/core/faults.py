"""Scheduler-pluggable fault injection: scripted failures for the cluster.

:mod:`repro.core.metadata.crash` kills the *whole* stack at one boundary —
the power-failure model the recovery matrix needs.  This module models the
partial failures a replicated cluster must survive while it keeps running:

* ``disk_fail``  — one volume dies (its bytes are gone for good);
* ``node_crash`` — a whole node dies: every volume it owns plus the
  contents of its cache shard (the node's memory);
* ``nic_partition`` — a node becomes unreachable for a while and then
  heals (its disks keep their bytes; writes issued meanwhile miss it);
* ``slow_disk``  — a volume serves I/O with extra latency for a while
  (a dying disk retrying sectors).

The harness has two halves.  :class:`FaultState` is the passive marker
board the data path consults — a handful of sets and dicts, mutated only
when an event fires, so a run with an empty schedule never behaves (or
costs) differently from one without the harness at all (``active`` stays
False and every check short-circuits on one attribute read).
:class:`FaultInjector` is the active half: a daemon thread that sleeps on
the ordinary scheduler until each scripted event's time and applies it —
one ``Delay`` per event, so the same schedule fires at the same simulated
instants on every run.

What a fault *means* is enforced at the routing layer
(:class:`~repro.core.storage.array.RoutedLayout`): reads addressed to an
unavailable volume fail over to a surviving replica (or raise
:class:`~repro.errors.DataUnavailable` without replication), writes to one
are dropped and counted — the bytes a real dead disk would have eaten.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Set, Tuple

from repro.core.scheduler import Scheduler, Thread
from repro.errors import ConfigurationError

__all__ = ["FaultEvent", "FaultState", "FaultInjector", "FAULT_KINDS"]

FAULT_KINDS = ("disk_fail", "node_crash", "nic_partition", "slow_disk")


@dataclass(frozen=True)
class FaultEvent:
    """One scripted fault.

    ``target`` is a volume index for ``disk_fail``/``slow_disk`` and a node
    index for ``node_crash``/``nic_partition``.  ``duration`` only applies
    to the two transient kinds (partition, slow disk); ``extra_latency`` is
    the per-I/O penalty of a slow disk.
    """

    time: float
    kind: str
    target: int
    duration: float = 0.0
    extra_latency: float = 0.01

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r} (want one of {FAULT_KINDS})"
            )
        if self.time < 0:
            raise ConfigurationError("fault time cannot be negative")
        if self.kind in ("nic_partition", "slow_disk") and self.duration <= 0:
            raise ConfigurationError(f"{self.kind} needs a positive duration")
        if self.extra_latency < 0:
            raise ConfigurationError("extra_latency cannot be negative")


class FaultState:
    """The marker board: which volumes are dead, unreachable or slow.

    Mutated by the injector (and the tests) only; read — via cheap set
    membership — by the routing layer and the repairer.  ``active`` flips
    True at the first applied event and never back: the data path guards
    every check behind it, so an untouched board costs one attribute read.
    ``placement`` is the stack's placement policy: it knows which node owns
    which volumes.
    """

    def __init__(self, placement: Any):
        self.placement = placement
        self.active = False
        #: bumps on every applied (or healed) event; the repairer re-scans
        #: whenever it observes a new value.
        self.epoch = 0
        #: volumes whose bytes are gone (disk failure, node crash).
        self.dead_volumes: Set[int] = set()
        #: volumes temporarily unreachable (NIC partition); heal restores.
        self.unreachable_volumes: Set[int] = set()
        #: per-volume extra seconds charged on every routed I/O (slow disk).
        self.slow_volumes: Dict[int, float] = {}
        self.dead_nodes: Set[int] = set()
        self.partitioned_nodes: Set[int] = set()
        #: every applied event, in order: (time, kind, target).
        self.log: List[Tuple[float, str, int]] = []
        # -- counters the observability layer reports
        self.faults_by_node: Dict[int, int] = {}
        self.dropped_writes_by_node: Dict[int, int] = {}
        self.failed_reads_by_node: Dict[int, int] = {}

    # ------------------------------------------------------------------ queries

    def volume_unavailable(self, volume: int) -> bool:
        """Dead or currently unreachable: nothing may be read from or
        written to this volume right now."""
        return volume in self.dead_volumes or volume in self.unreachable_volumes

    def extra_delay(self, volume: int) -> float:
        return self.slow_volumes.get(volume, 0.0)

    # ------------------------------------------------------------------ mutations

    def _touch(self, node: int) -> None:
        self.active = True
        self.epoch += 1
        self.faults_by_node[node] = self.faults_by_node.get(node, 0) + 1

    def kill_volume(self, volume: int, when: float = 0.0) -> None:
        self.dead_volumes.add(volume)
        self.log.append((when, "disk_fail", volume))
        self._touch(self.placement.node_of_volume(volume))

    def kill_node(self, node: int, when: float = 0.0) -> None:
        self.dead_nodes.add(node)
        self.dead_volumes.update(self.placement.volumes_of_node(node))
        self.log.append((when, "node_crash", node))
        self._touch(node)

    def partition_node(self, node: int, when: float = 0.0) -> None:
        self.partitioned_nodes.add(node)
        self.unreachable_volumes.update(self.placement.volumes_of_node(node))
        self.log.append((when, "nic_partition", node))
        self._touch(node)

    def heal_node(self, node: int, when: float = 0.0) -> None:
        self.partitioned_nodes.discard(node)
        self.unreachable_volumes.difference_update(self.placement.volumes_of_node(node))
        self.log.append((when, "nic_heal", node))
        self.epoch += 1

    def slow_volume(self, volume: int, extra_latency: float, when: float = 0.0) -> None:
        self.slow_volumes[volume] = extra_latency
        self.log.append((when, "slow_disk", volume))
        self._touch(self.placement.node_of_volume(volume))

    def heal_volume_speed(self, volume: int, when: float = 0.0) -> None:
        self.slow_volumes.pop(volume, None)
        self.log.append((when, "disk_heal", volume))
        self.epoch += 1

    # ------------------------------------------------------------------ accounting

    def note_dropped_write(self, volume: int, blocks: int = 1) -> None:
        node = self.placement.node_of_volume(volume)
        self.dropped_writes_by_node[node] = (
            self.dropped_writes_by_node.get(node, 0) + blocks
        )

    def note_failed_read(self, volume: int, blocks: int = 1) -> None:
        node = self.placement.node_of_volume(volume)
        self.failed_reads_by_node[node] = self.failed_reads_by_node.get(node, 0) + blocks

    def snapshot(self) -> dict:
        return {
            "events_applied": len(self.log),
            "dead_volumes": sorted(self.dead_volumes),
            "dead_nodes": sorted(self.dead_nodes),
            "unreachable_volumes": sorted(self.unreachable_volumes),
            "slow_volumes": dict(sorted(self.slow_volumes.items())),
            "log": list(self.log),
        }


class FaultInjector:
    """Replays a fault schedule into a running stack.

    One daemon thread sleeps until each event's time (events and their
    heals expanded into one sorted timeline) and applies it to the
    topology's :class:`FaultState`.  ``node_crash`` additionally drops the node's
    cache shard — the crashed machine's memory — losing whatever dirty
    blocks had not been flushed (exactly what replication must absorb).

    ``scrub`` is for byte-faithful tests: on a kill, memory-backed disk
    images of the dead volumes are overwritten with zeros, proving that
    post-fault reads really are served by the surviving replicas and never
    by the "dead" hardware the simulation still holds in memory.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        topology: Any,
        schedule: List[FaultEvent],
        scrub: bool = False,
    ):
        self.scheduler = scheduler
        self.topology = topology
        self.state: FaultState = topology.faults
        self.schedule = sorted(schedule, key=lambda e: (e.time, e.kind, e.target))
        self.scrub = scrub
        self.thread: Optional[Thread] = None
        self.applied = 0

    def start(self) -> None:
        """Spawn the injector daemon (idempotent; on node 0, the front end)."""
        if self.thread is None and self.schedule:
            self.thread = self.scheduler.spawn(
                self._daemon, name="fault-injector", daemon=True, node=0
            )

    # ------------------------------------------------------------------ the daemon

    def _timeline(self) -> List[Tuple[float, int, str, FaultEvent]]:
        """Events plus their heals, as one sorted ``(time, seq, action,
        event)`` list — ``seq`` breaks ties deterministically."""
        timeline: List[Tuple[float, int, str, FaultEvent]] = []
        for seq, event in enumerate(self.schedule):
            timeline.append((event.time, seq, "apply", event))
            if event.kind in ("nic_partition", "slow_disk"):
                timeline.append((event.time + event.duration, seq, "heal", event))
        timeline.sort(key=lambda item: (item[0], item[1], item[2]))
        return timeline

    def _daemon(self) -> Generator[Any, Any, None]:
        for when, _seq, action, event in self._timeline():
            delay = when - self.scheduler.now
            if delay > 0:
                yield from self.scheduler.sleep(delay)
            if action == "apply":
                self.apply(event)
            else:
                self.heal(event)

    # ------------------------------------------------------------------ applying

    def apply(self, event: FaultEvent) -> None:
        now = self.scheduler.now
        state = self.state
        if event.kind == "disk_fail":
            state.kill_volume(event.target, when=now)
            self._scrub_volumes([event.target])
        elif event.kind == "node_crash":
            state.kill_node(event.target, when=now)
            self._scrub_volumes(list(state.placement.volumes_of_node(event.target)))
            self._drop_node_memory(event.target)
        elif event.kind == "nic_partition":
            state.partition_node(event.target, when=now)
        elif event.kind == "slow_disk":
            state.slow_volume(event.target, event.extra_latency, when=now)
        self.applied += 1

    def heal(self, event: FaultEvent) -> None:
        now = self.scheduler.now
        if event.kind == "nic_partition":
            self.state.heal_node(event.target, when=now)
        elif event.kind == "slow_disk":
            self.state.heal_volume_speed(event.target, when=now)

    # ------------------------------------------------------------------ helpers

    def _scrub_volumes(self, volumes: List[int]) -> None:
        if not self.scrub:
            return
        for v in volumes:
            node = self.topology.node_of_volume(v)
            local = v - node.volume_indices[0]
            volume = node.volumes[local]
            # LocalVolume owns drivers; RemoteVolume delegates to its backing.
            for driver in getattr(volume, "drivers", []):
                snapshot = getattr(driver, "snapshot", None)
                restore = getattr(driver, "restore", None)
                if snapshot is not None and restore is not None:
                    restore(bytes(len(snapshot())))

    def _drop_node_memory(self, node_index: int) -> None:
        """A crashed node loses its cache shard: every unreferenced block
        is dropped (dirty ones are the writes the crash ate).  Blocks a
        thread is actively using (pinned or busy) are left; their owners
        run to completion against the now-dead volume and the routing layer
        drops the I/O."""
        node = self.topology.nodes[node_index]
        for shard in node.cache_shards:
            for block in list(shard.blocks()):
                if block.block_id is None or block.pinned or block.busy:
                    continue
                if block.is_dirty:
                    self.state.note_dropped_write(node.volume_indices[0])
                shard.invalidate(block)
