"""The Patsy simulator: trace replay over a fully simulated file system.

This is the "general simulation class" of Section 4: it owns the simulated
hardware (disks, buses), the file-system components instantiated from the
cut-and-paste library (cache, storage layout, client interface), the trace
replay threads ("clients are modeled by separate threads of control"), and
the measurement machinery ("this class measures how long it takes before an
operation completes; the measurements are shown every 15 minutes of
simulation time and of the overall simulation").
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Union,
)

from repro.assembly.bindings import SimulatedBinding
from repro.assembly.builder import StorageStack, build_stack
from repro.config import StackSpec, small_test_config
from repro.core.cache import CacheStatistics
from repro.core.faults import FaultEvent, FaultInjector
from repro.core.scheduler import Delay
from repro.errors import ConfigurationError, FileSystemError, TraceError
from repro.patsy.stats import LatencyRecorder
from repro.patsy.traces import (
    TRACE_OPERATIONS,
    TraceRecord,
    iter_trace,
    scan_trace_client_counts,
)
from repro.units import add_counters

__all__ = ["PatsySimulator", "SimulationResult", "TraceSource"]

#: anything the replayer accepts as a trace: a materialised record list, a
#: path to an on-disk trace, an open text stream, or any record iterator
#: (e.g. ``iter_sprite_trace(...)``).
TraceSource = Union[Sequence[TraceRecord], str, Path, Iterable[TraceRecord]]
#: a replay thread's open files, path -> handle, and a client-interface call
#: as the generator the thread delegates to.
Handles = Dict[str, int]
ClientCall = Generator[Any, Any, Any]


@dataclass
class SimulationResult:
    """Everything measured during one simulation run."""

    trace_name: str = ""
    policy_name: str = ""
    simulated_time: float = 0.0
    operations: int = 0
    errors: int = 0
    latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    cache_stats: Dict[str, Any] = field(default_factory=dict)
    plugin_reports: Dict[str, Any] = field(default_factory=dict)
    #: dirty blocks that died in memory and never cost a disk write.
    write_savings_blocks: int = 0
    blocks_written_to_disk: int = 0
    #: replay bookkeeping on the host side: ``direct_resumes`` (context
    #: switches the event loop resumed in place).
    stream_stats: Dict[str, Any] = field(default_factory=dict)
    #: per-volume breakdown and array-level rollup (not part of
    #: :meth:`summary`).
    volume_stats: Dict[str, Any] = field(default_factory=dict)
    #: per-node/per-NIC breakdown plus rebalancer counters (multi-node
    #: cluster runs only; empty otherwise).
    cluster_stats: Dict[str, Any] = field(default_factory=dict)
    #: per-node digests of the executed event schedule, populated when the
    #: scheduler's schedule hash was enabled before replay.  Deliberately
    #: excluded from :meth:`summary` so legacy summaries stay byte-identical.
    schedule_digests: Dict[int, str] = field(default_factory=dict)

    @property
    def mean_latency(self) -> float:
        return self.latency.mean_latency()

    def cdf(self, op: Optional[str] = None) -> List[tuple[float, float]]:
        return self.latency.cdf(op)

    def per_client_latency(self) -> Dict[int, dict]:
        """Per-client operation counts, mean latency and percentiles."""
        return self.latency.per_client_summary()

    def summary(self) -> dict:
        return {
            "trace": self.trace_name,
            "policy": self.policy_name,
            "simulated_time": self.simulated_time,
            "operations": self.operations,
            "errors": self.errors,
            "mean_latency": self.mean_latency,
            "median_latency": self.latency.percentile(0.5),
            "p95_latency": self.latency.percentile(0.95),
            "cache_hit_rate": self.cache_stats.get("hit_rate", 0.0),
            "write_savings_blocks": self.write_savings_blocks,
            "blocks_written_to_disk": self.blocks_written_to_disk,
            "per_client_latency": self.per_client_latency(),
        }


class PatsySimulator:
    """A complete off-line file-system simulator instantiated from the library.

    The whole storage stack — simulated hardware, cache (one shard per
    node), layout(s), flush policy, cleaner(s) — is assembled by
    :func:`repro.assembly.builder.build_stack` from the
    :class:`~repro.config.StackSpec` it is handed — the object a
    :class:`~repro.pfs.filesystem.PegasusFileSystem` takes — under a
    :class:`~repro.assembly.bindings.SimulatedBinding`.  The simulator owns
    only what is specific to its world: trace replay and measurement
    (``report_interval``: interval statistics every this many simulated
    seconds; the paper reports every 15 minutes).  The paper's plug-in
    statistics are the counters the components keep, read into the result
    by :meth:`build_result`.  A pre-built ``stack`` carries its own spec.
    """

    def __init__(
        self,
        spec: Optional[StackSpec] = None,
        *,
        report_interval: float = 900.0,
        stack: Optional[StorageStack] = None,
    ):
        if stack is None:
            if spec is None:
                spec = small_test_config()
            stack = build_stack(spec, SimulatedBinding())
        elif not stack.binding.simulated:
            raise ConfigurationError(
                "PatsySimulator needs a stack built under a simulated "
                "binding; this one moves real bytes (use PegasusFileSystem)"
            )
        elif spec is not None and spec != stack.spec:
            raise ConfigurationError(
                "the supplied stack was built from a different spec than the "
                "one passed; a pre-built stack carries its own"
            )
        self.spec = stack.spec
        self.stack = stack
        self.scheduler = stack.scheduler
        self.buses = stack.buses
        self.disks = stack.disks
        self.drivers = stack.drivers
        self.volume = stack.volume
        self.layout = stack.layout
        self.cache = stack.cache
        self.datamover = stack.datamover
        self.flush_policy = stack.flush_policy
        self.cleaner = stack.cleaner
        self.placement = stack.placement
        self.cluster = stack.cluster
        self.rebalancer = stack.cluster.rebalancer
        self.metadata = stack.metadata
        self.fs = stack.fs
        self.client = stack.client

        # --- measurement -----------------------------------------------------------
        self.latency = LatencyRecorder(report_interval=report_interval)
        self.errors = 0
        #: trace operation -> the method that issues it (``_execute``).
        self._operations: Dict[str, Callable[[TraceRecord, Handles], ClientCall]] = {
            op: getattr(self, f"_op_{op}") for op in TRACE_OPERATIONS
        }
        self._mounted = False

    # ------------------------------------------------------------------ lifecycle

    def mount(self) -> None:
        """Mount the simulated file system (idempotent)."""
        if self._mounted:
            return
        thread = self.scheduler.spawn(self.fs.mount, False, name="mount")
        self.scheduler.run_until_complete(thread)
        self._mounted = True

    # ------------------------------------------------------------------ faults

    def inject_faults(
        self, schedule: Sequence[FaultEvent], scrub: bool = False
    ) -> FaultInjector:
        """Arm a scripted fault schedule against this run's stack.

        The injector daemon starts immediately (it sleeps until each
        event's time), so call this before :meth:`replay`.  ``scrub``
        zeroes the memory-backed disk images of killed volumes — the
        byte-faithful proof that fail-over reads never touch dead
        hardware — and must stay off when a test remounts the "revived"
        volumes afterwards.
        """
        injector = FaultInjector(self.scheduler, self.cluster, schedule, scrub=scrub)
        injector.start()
        return injector

    # ------------------------------------------------------------------ replay

    def replay(
        self,
        source: TraceSource,
        trace_name: str = "",
        max_time: Optional[float] = None,
    ) -> SimulationResult:
        """Replay a trace and return the measurements.

        ``source`` may be a record list, a path to an on-disk trace, an open
        text stream, or any record iterator.  It is read once, front to
        back: each client thread pulls its next record from the shared
        iterator, parking other clients' records on their queues as it
        goes, so buffering is bounded by the skew between clients, never by
        the trace length.  When the clients are known up front (a path,
        scanned once, or a list) their threads start together in client
        order and each stops pulling after its last record; otherwise a
        client's thread starts when its first record appears.  A client
        whose records go back in time raises :class:`TraceError`.
        """
        records: Iterator[TraceRecord]
        counts: Dict[int, int]
        if isinstance(source, (str, Path)):
            records, counts = iter_trace(source), scan_trace_client_counts(source)
        elif isinstance(source, Sequence):
            records, counts = iter(source), Counter(record.client for record in source)
        else:
            records = iter_trace(source) if hasattr(source, "read") else iter(source)
            first = next(records, None)
            counts = {} if first is None else {first.client: -1}
            records = chain((first,), records)
        if not counts:
            raise TraceError("cannot replay an empty trace")
        queues: Dict[int, deque] = {}
        threads: List[Any] = []

        def records_of(client: int, count: int) -> Iterator[TraceRecord]:
            """``client``'s ``count`` records (-1: until the trace ends):
            parked ones first, then pulled from the shared iterator."""
            queue = queues[client]
            try:
                while count:
                    count -= 1
                    if queue:
                        yield queue.popleft()
                        continue
                    for record in records:
                        owner = record.client
                        if owner == client:
                            break
                        parked = queues.get(owner)
                        if parked is None:
                            spawn(owner, -1)
                            parked = queues[owner]
                        parked.append(record)
                    else:
                        return
                    yield record
            finally:
                # A client that is done parks no more records.
                queues[client] = deque(maxlen=0)

        def spawn(client: int, count: int) -> None:
            queues[client] = deque()
            threads.append(
                self.scheduler.spawn(
                    self._client_thread,
                    client,
                    records_of(client, count),
                    max_time,
                    name=f"client-{client}",
                )
            )

        self.mount()
        for client in sorted(counts):
            spawn(client, counts[client])
        try:
            for thread in threads:  # a client found mid-run appends its thread
                self.scheduler.run_until_complete(thread)
        finally:
            # The last client stops short of the end of a trace file: close
            # the reader, and with it the file, now.
            if isinstance(records, Generator):
                records.close()
        self.latency.finish()
        return self.build_result(trace_name)

    def _client_thread(
        self,
        client: int,
        records: Generator[TraceRecord, None, None],
        max_time: Optional[float],
    ) -> Generator[Any, Any, None]:
        """One client's replay loop over its own records, in trace order;
        closing ``records`` at the end stops it parking any more."""
        handles: Dict[str, int] = {}
        # Bound once per thread, when replay starts: a wrapper a tracer put
        # on ``LatencyRecorder.record`` since the simulator was built is seen.
        now = self.scheduler.clock.now
        record_latency = self.latency.record
        execute = self._execute
        previous = 0.0
        for record in records:
            timestamp = record.timestamp
            if timestamp < previous:
                raise TraceError(
                    f"client {client}: record at t={timestamp} comes after one "
                    f"at t={previous}; a client's records must be in time order"
                )
            if max_time is not None and timestamp > max_time:
                break
            previous = timestamp
            delay = timestamp - now()
            if delay > 0:
                yield Delay(delay)
            started = now()
            try:
                yield from execute(record, handles)
            except FileSystemError:
                self.errors += 1
            record_latency(started, record.op, now() - started, client)
        records.close()
        # Close anything the trace left open.
        for path, handle in list(handles.items()):
            try:
                yield from self.client.close(handle)
            except FileSystemError:
                self.errors += 1
            handles.pop(path, None)

    def _execute(self, record: TraceRecord, handles: Handles) -> ClientCall:
        """The client-interface call for ``record``, as a generator to
        ``yield from``: one of the ``_op_*`` methods below, by name."""
        return self._operations[record.op](record, handles)

    def _op_open(self, record: TraceRecord, handles: Handles) -> ClientCall:
        if record.path not in handles:
            handles[record.path] = yield from self.client.open(record.path, create=True)

    def _op_close(self, record: TraceRecord, handles: Handles) -> ClientCall:
        handle = handles.pop(record.path, None)
        if handle is not None:
            yield from self.client.close(handle)

    def _op_create(self, record: TraceRecord, handles: Handles) -> ClientCall:
        if record.path not in handles:
            handles[record.path] = yield from self.client.create(record.path, exclusive=False)

    def _op_read(self, record: TraceRecord, handles: Handles) -> ClientCall:
        handle = handles.get(record.path)
        if handle is not None:
            return self.client.read(handle, record.offset, record.size)
        return self.client.read_file(record.path, record.offset, record.size)

    def _op_write(self, record: TraceRecord, handles: Handles) -> ClientCall:
        handle = handles.get(record.path)
        if handle is not None:
            return self.client.write(handle, record.offset, length=record.size)
        return self.client.write_file(record.path, record.offset, length=record.size)

    def _op_truncate(self, record: TraceRecord, handles: Handles) -> ClientCall:
        return self.client.truncate_path(record.path, record.size)

    def _op_unlink(self, record: TraceRecord, handles: Handles) -> ClientCall:
        return self.client.unlink(record.path)

    def _op_mkdir(self, record: TraceRecord, handles: Handles) -> ClientCall:
        return self.client.mkdir(record.path)

    def _op_rmdir(self, record: TraceRecord, handles: Handles) -> ClientCall:
        return self.client.rmdir(record.path)

    def _op_stat(self, record: TraceRecord, handles: Handles) -> ClientCall:
        return self.client.stat(record.path)

    def _op_readdir(self, record: TraceRecord, handles: Handles) -> ClientCall:
        return self.client.readdir(record.path)

    def _op_rename(self, record: TraceRecord, handles: Handles) -> ClientCall:
        return self.client.rename(record.path, record.path2)

    def _op_symlink(self, record: TraceRecord, handles: Handles) -> ClientCall:
        return self.client.symlink(record.path2 or "/", record.path)

    def _op_fsync(self, record: TraceRecord, handles: Handles) -> ClientCall:
        handle = handles.get(record.path)
        if handle is not None:
            return self.client.fsync(handle)
        return self.client.sync()

    # ------------------------------------------------------------------ results

    def build_result(self, trace_name: str = "") -> SimulationResult:
        cache = self.cache.stats
        cache_stats = cache.snapshot()
        shards = self.cache.shards
        cache_stats["replacement"] = shards[0].policy.name
        for key, value in add_counters(shard.policy.snapshot() for shard in shards).items():
            cache_stats[f"policy_{key}"] = value
        elapsed = max(self.scheduler.now, 1e-9)
        # What the paper's plug-in statistics objects report: the disk
        # models' rotational delays and the buses' contention.
        reports = {
            "rotational-delay": {"disks": {
                disk.name: {
                    "requests": disk.stats.requests,
                    "cache_read_hits": disk.stats.cache_read_hits,
                    "immediate_writes": disk.stats.immediate_writes,
                    "mean_rotational_delay": disk.stats.mean_rotational_delay(),
                    "total_seek_time": disk.stats.total_seek_time,
                }
                for disk in self.disks
            }},
            "bus": {"buses": {
                bus.name: {
                    "transfers": bus.transfers,
                    "bytes": bus.bytes_transferred,
                    "utilisation": bus.utilisation(elapsed),
                    "mean_wait_time": bus.mean_wait_time,
                }
                for bus in self.buses
            }},
        }
        result = SimulationResult(
            trace_name=trace_name,
            policy_name=self.spec.flush.policy,
            simulated_time=self.scheduler.now,
            operations=self.latency.count,
            errors=self.errors,
            latency=self.latency,
            cache_stats=cache_stats,
            plugin_reports=reports,
            write_savings_blocks=cache.dirty_blocks_discarded,
            blocks_written_to_disk=cache.blocks_written,
            stream_stats={"direct_resumes": self.scheduler.direct_resumes},
            volume_stats=self.collect_volume_stats(),
            cluster_stats=self.collect_cluster_stats(),
        )
        result.schedule_digests = self.scheduler.schedule_digests()
        return result

    def collect_volume_stats(self) -> Dict[str, Any]:
        """Per-volume layout/disk breakdown plus an array-level rollup (the
        cache and the flush policy belong to the node, not to a volume:
        they report in the rollup, and per node in ``cluster_stats``)."""
        spec = self.spec
        num_volumes = spec.num_volumes
        elapsed = max(self.scheduler.now, 1e-9)
        per_volume: Dict[str, Any] = {}
        for v in range(num_volumes):
            sub = self.layout.sublayouts[v]
            disks = {}
            for index in spec.disks_of_volume(v):
                driver = self.drivers[index]
                disks[driver.name] = {
                    "operations": driver.stats.operations,
                    "utilisation": driver.stats.utilisation(elapsed),
                    "mean_queue_length": driver.stats.mean_queue_length(),
                    "mean_response_time": driver.stats.mean_response_time(),
                }
            layout_entry = {
                "kind": sub.name,
                "disk_reads": sub.stats.disk_reads,
                "disk_writes": sub.stats.disk_writes,
                "blocks_read": sub.stats.blocks_read,
                "blocks_written": sub.stats.blocks_written,
                "free_blocks": sub.free_blocks,
            }
            if sub.stats.cleaner_read_runs:
                layout_entry["cleaner_read_runs"] = sub.stats.cleaner_read_runs
            per_volume[f"vol{v}"] = {
                "disks": disks,
                "layout": layout_entry,
            }
        cache = self.cache.stats
        rollup: Dict[str, Any] = {
            "volumes": num_volumes,
            "disks": spec.num_disks,
            "buses": spec.num_buses,
            "placement": spec.array.placement,
            "cache_hit_rate": cache.hit_rate,
            "blocks_written": cache.blocks_written,
            "disk_operations": sum(d.stats.operations for d in self.drivers),
            "mean_disk_utilisation": (
                sum(d.stats.utilisation(elapsed) for d in self.drivers) / len(self.drivers)
            ),
        }
        rollup["layout"] = self.layout.combined_stats()
        rollup["flush"] = self.flush_policy.stats()
        return {"per_volume": per_volume, "rollup": rollup}

    def collect_cluster_stats(self) -> Dict[str, Any]:
        """Per-node and per-NIC breakdown plus rebalancer counters.

        Empty for single-machine runs (one node, no network at all)."""
        topology = self.cluster
        if topology.num_nodes <= 1:
            return {}
        elapsed = max(self.scheduler.now, 1e-9)
        per_node: Dict[str, Any] = {}
        for node in topology.nodes:
            disk_ops = sum(d.stats.operations for d in node.drivers)
            entry: Dict[str, Any] = {
                "volumes": list(node.volume_indices),
                "disk_operations": disk_ops,
                "mean_disk_utilisation": (
                    sum(d.stats.utilisation(elapsed) for d in node.drivers)
                    / max(len(node.drivers), 1)
                ),
                "blocks_written": sum(
                    sub.stats.blocks_written for sub in node.sublayouts
                ),
                "free_blocks": sum(sub.free_blocks for sub in node.sublayouts),
            }
            counts = add_counters(vars(s.stats) for s in node.cache_shards)
            entry["cache_hit_rate"] = CacheStatistics(**counts).hit_rate
            if node.nic is not None:
                nic = node.nic
                entry["nic"] = dict(
                    nic.snapshot(), utilisation=nic.utilisation(elapsed)
                )
            remote = [
                topology.remote_volumes[v].snapshot()
                for v in node.volume_indices
                if v in topology.remote_volumes
            ]
            if remote:
                entry["remote_io"] = add_counters(remote)
            faults = topology.faults
            if faults.active:
                i = node.index
                entry["faults"] = {
                    "events": faults.faults_by_node.get(i, 0),
                    "dropped_writes": faults.dropped_writes_by_node.get(i, 0),
                    "failed_reads": faults.failed_reads_by_node.get(i, 0),
                }
                if topology.replication is not None:
                    entry["faults"]["failovers"] = (
                        topology.replication.failovers_by_node.get(i, 0)
                    )
                if topology.repairer is not None:
                    entry["faults"]["repairs"] = (
                        topology.repairer.repairs_by_node.get(i, 0)
                    )
            per_node[f"node{node.index}"] = entry
        stats: Dict[str, Any] = {
            "nodes": topology.num_nodes,
            "placement": topology.placement.snapshot(),
            "per_node": per_node,
        }
        if topology.rebalancer is not None:
            stats["rebalancer"] = topology.rebalancer.snapshot()
            stats["migration_schedule"] = [
                {
                    "time": m.time,
                    "file_id": m.file_id,
                    "source": m.source,
                    "target": m.target,
                    "blocks": m.blocks,
                }
                for m in topology.rebalancer.schedule
            ]
        stats["metadata"] = topology.metadata.snapshot()
        if topology.faults.active:
            stats["faults"] = topology.faults.snapshot()
        if topology.replication is not None:
            stats["replication"] = topology.replication.snapshot()
        if topology.repairer is not None:
            stats["repairer"] = topology.repairer.snapshot()
        return stats
