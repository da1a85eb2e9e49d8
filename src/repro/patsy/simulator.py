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

from collections import deque
from dataclasses import dataclass, field
from functools import partial
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
from repro.core.faults import FaultEvent, FaultInjector
from repro.core.scheduler import Delay
from repro.errors import ConfigurationError, FileSystemError, TraceError
from repro.patsy.stats import DEFAULT_PLUGINS, LatencyRecorder, StatisticsPlugin
from repro.patsy.traces import (
    TRACE_OPERATIONS,
    TraceRecord,
    iter_trace,
    records_by_client,
    scan_trace_client_counts,
)

__all__ = ["PatsySimulator", "SimulationResult", "TraceSource"]

#: anything the replayer accepts as a trace: a materialised record list, a
#: path to an on-disk trace, an open text stream, or any record iterator
#: (e.g. ``iter_sprite_trace(...)``).
TraceSource = Union[Sequence[TraceRecord], str, Path, Iterable[TraceRecord]]
#: a replay thread's open files, path -> handle, and a client-interface call
#: as the generator the thread delegates to.
Handles = Dict[str, int]
ClientCall = Generator[Any, Any, Any]


class _TraceDemux:
    """Pull-based demultiplexer feeding per-client replay threads from one
    shared record iterator.

    There is no pump thread: when a client thread needs its next record and
    its queue is empty, it synchronously pulls from the iterator, parking
    records that belong to other clients on their queues.  Keeping the pull
    inside the consuming thread means streaming replay presents *exactly*
    the same runnable-thread sequence to the scheduler as materialised
    replay, so the two modes are reproducibly identical under the seeded
    random scheduling policy.  Buffering is bounded by the timestamp skew
    between clients (tracked in :attr:`peak_buffered`), never by the trace
    length.

    ``remaining`` optionally pre-declares per-client record counts (from a
    scan pass); with it, a client whose records have run out gets ``None``
    immediately instead of pulling — and buffering — the rest of the trace.
    Without counts (discovery mode over an arbitrary iterator) the last
    pull of an early-finishing client can buffer the remaining trace.
    """

    __slots__ = ("_iter", "_queues", "_finished", "_exhausted", "_on_new_client",
                 "_remaining", "buffered", "peak_buffered", "records_read")

    def __init__(
        self,
        records: Iterable[TraceRecord],
        on_new_client: Optional[Callable[[int], None]] = None,
        remaining: Optional[Dict[int, int]] = None,
    ):
        self._iter = iter(records)
        self._queues: Dict[int, deque] = {}
        self._finished: set[int] = set()
        self._exhausted = False
        self._on_new_client = on_new_client
        self._remaining = dict(remaining) if remaining is not None else None
        self.buffered = 0
        self.peak_buffered = 0
        self.records_read = 0

    def add_client(self, client: int) -> None:
        """Pre-register a client (no new-client callback fires for it)."""
        if client not in self._queues:
            self._queues[client] = deque()

    def _enqueue(self, record: TraceRecord) -> None:
        client = record.client
        if client in self._finished:
            return
        queue = self._queues.get(client)
        if queue is None:
            queue = self._queues[client] = deque()
            if self._on_new_client is not None:
                self._on_new_client(client)
        queue.append(record)
        self.buffered += 1
        if self.buffered > self.peak_buffered:
            self.peak_buffered = self.buffered

    def prime(self) -> bool:
        """Read ahead until at least one client is known (discovery mode).
        Returns False when the trace is empty."""
        if self._queues:
            return True
        record = next(self._iter, None)
        if record is None:
            self._exhausted = True
            return False
        self.records_read += 1
        self._enqueue(record)
        return True

    def next_record(self, client: int) -> Optional[TraceRecord]:
        """The next record for ``client``, pulling the shared iterator as
        far as needed; None once the trace holds nothing more for it."""
        queue = self._queues.get(client)
        if queue:
            self.buffered -= 1
            return queue.popleft()
        remaining = self._remaining
        if remaining is not None and not remaining.get(client):
            return None
        if not self._exhausted:
            for record in self._iter:
                self.records_read += 1
                owner = record.client
                if remaining is not None and owner in remaining:
                    remaining[owner] -= 1
                if owner == client:
                    return record
                self._enqueue(record)
            self._exhausted = True
        return None

    def finish_client(self, client: int) -> None:
        """Drop a finished client's queue (and any late records for it)."""
        self._finished.add(client)
        queue = self._queues.pop(client, None)
        if queue:
            self.buffered -= len(queue)


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
    #: switches the event loop resumed in place) and, for streaming replay,
    #: the demux counters (peak buffering etc.).
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

    The whole storage stack — simulated hardware, cache (shards), layout(s),
    flush policy, cleaner(s) — is assembled by
    :func:`repro.assembly.builder.build_stack` from the
    :class:`~repro.config.StackSpec` it is handed — the object a
    :class:`~repro.pfs.filesystem.PegasusFileSystem` takes — under a
    :class:`~repro.assembly.bindings.SimulatedBinding`.  The simulator owns
    only what is specific to its world: trace replay and measurement
    (``report_interval``: interval statistics every this many simulated
    seconds; the paper reports every 15 minutes).  ``plugins=None`` installs
    :data:`~repro.patsy.stats.DEFAULT_PLUGINS`, an empty sequence none.  A
    pre-built ``stack`` carries its own spec.
    """

    def __init__(
        self,
        spec: Optional[StackSpec] = None,
        *,
        report_interval: float = 900.0,
        plugins: Optional[Iterable[type]] = None,
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
        self.plugins: List[StatisticsPlugin] = [
            cls() for cls in (DEFAULT_PLUGINS if plugins is None else plugins)
        ]
        self.errors = 0
        #: trace operation -> the method that issues it (``_execute``).
        self._operations: Dict[str, Callable[[TraceRecord, Handles], ClientCall]] = {
            op: getattr(self, f"_op_{op}") for op in TRACE_OPERATIONS
        }
        self._mounted = False
        self._stream_stats: Dict[str, Any] = {}

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
        records: TraceSource,
        trace_name: str = "",
        max_time: Optional[float] = None,
    ) -> SimulationResult:
        """Replay a trace and return the measurements.

        ``records`` may be a materialised record list, a path to an on-disk
        trace, an open text stream, or any record iterator.  A source that
        cannot be rewound goes to :meth:`replay_stream`, which replays
        without materialising the trace; both engines produce identical
        measurements on the same trace.
        """
        is_path = isinstance(records, (str, Path))
        is_sequence = not is_path and isinstance(records, Sequence)
        if not (is_path or is_sequence):
            return self.replay_stream(records, trace_name=trace_name, max_time=max_time)
        # A trace on disk is read once, line by line into the per-client
        # streams; no list of the whole trace is built on the way.
        streams = records_by_client(iter_trace(records) if is_path else records)
        if not streams:
            raise TraceError("cannot replay an empty trace")
        self.mount()
        threads = [
            self.scheduler.spawn(
                self._client_thread,
                client,
                partial(next, iter(stream), None),
                max_time,
                name=f"client-{client}",
            )
            for client, stream in sorted(streams.items())
        ]
        for thread in threads:
            self.scheduler.run_until_complete(thread)
        self.latency.finish()
        return self.build_result(trace_name)

    def replay_stream(
        self,
        source: TraceSource,
        trace_name: str = "",
        max_time: Optional[float] = None,
        clients: Optional[Iterable[int]] = None,
    ) -> SimulationResult:
        """Replay a trace in streaming mode: records are pulled from the
        source one at a time and demultiplexed into per-client threads, so
        memory is constant in the trace length.

        ``clients`` pre-declares the client population; when omitted it is
        recovered with a cheap scan pass for on-disk traces (or from the
        sequence itself), so streaming replay spawns the same client
        threads in the same order as materialised replay and the two modes
        yield identical measurements on a per-client time-ordered trace.
        Sources that cannot be enumerated up-front (generators, streams)
        fall back to discovery: a client's thread starts when its first
        record surfaces.
        """
        self.mount()
        records, known_clients, counts = self._open_trace_source(source, clients)
        threads: List[Any] = []
        demux: _TraceDemux

        def spawn_client(client: int) -> None:
            threads.append(
                self.scheduler.spawn(
                    self._client_thread,
                    client,
                    partial(demux.next_record, client),
                    max_time,
                    partial(demux.finish_client, client),
                    name=f"client-{client}",
                )
            )

        demux = _TraceDemux(records, on_new_client=spawn_client, remaining=counts)
        if known_clients is not None:
            if not known_clients:
                raise TraceError("cannot replay an empty trace")
            for client in sorted(known_clients):
                demux.add_client(client)
            for client in sorted(known_clients):
                spawn_client(client)
        elif not demux.prime():
            raise TraceError("cannot replay an empty trace")
        index = 0
        while index < len(threads):  # discovery may append threads mid-run
            self.scheduler.run_until_complete(threads[index])
            index += 1
        self.latency.finish()
        self._stream_stats = {
            "records_replayed": demux.records_read,
            "peak_buffered_records": demux.peak_buffered,
            "clients": len(threads),
        }
        return self.build_result(trace_name)

    def _open_trace_source(
        self, source: TraceSource, clients: Optional[Iterable[int]]
    ) -> tuple[Iterator[TraceRecord], Optional[List[int]], Optional[Dict[int, int]]]:
        """Resolve a trace source to (record iterator, known client ids,
        per-client record counts).  Counts — available whenever the source
        can be enumerated cheaply — let the demux stop a finished client
        from pulling (and buffering) the rest of the trace."""
        known = sorted(set(clients)) if clients is not None else None
        if isinstance(source, (str, Path)):
            counts = scan_trace_client_counts(source)
            if known is None:
                known = sorted(counts)
            return iter_trace(source), known, counts
        if isinstance(source, Sequence):
            counts = {}
            for record in source:
                counts[record.client] = counts.get(record.client, 0) + 1
            if known is None:
                known = sorted(counts)
            return iter(source), known, counts
        if hasattr(source, "read"):
            return iter_trace(source), known, None
        return iter(source), known, None

    def _client_thread(
        self,
        client: int,
        next_record: Callable[[], Optional[TraceRecord]],
        max_time: Optional[float],
        on_done: Optional[Callable[[], None]] = None,
    ) -> Generator[Any, Any, None]:
        """One client's replay loop, shared by both engines.

        ``next_record`` returns the client's next record or None when it
        has no more — an iterator over its materialised stream, or a pull
        from the streaming demux (which never yields, so the scheduler sees
        the same execution either way).  ``on_done`` runs once the records
        are exhausted, before the leftover handles are closed.
        """
        handles: Dict[str, int] = {}
        # Bound once per thread, when replay starts: a wrapper a tracer put
        # on ``LatencyRecorder.record`` since the simulator was built is seen.
        now = self.scheduler.clock.now
        record_latency = self.latency.record
        execute = self._execute
        while True:
            record = next_record()
            if record is None:
                break
            if max_time is not None and record.timestamp > max_time:
                break
            delay = record.timestamp - now()
            if delay > 0:
                yield Delay(delay)
            started = now()
            try:
                yield from execute(record, handles)
            except FileSystemError:
                self.errors += 1
            record_latency(started, record.op, now() - started, client)
        if on_done is not None:
            on_done()
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
        reports = {}
        for plugin in self.plugins:
            reports[plugin.name] = plugin.collect(self)
        cache_stats = self.cache.stats.snapshot()
        cache_stats["replacement"] = self.cache.policy.name
        for key, value in self.cache.policy.snapshot().items():
            cache_stats[f"policy_{key}"] = value
        result = SimulationResult(
            trace_name=trace_name,
            policy_name=self.spec.flush.policy,
            simulated_time=self.scheduler.now,
            operations=self.latency.count,
            errors=self.errors,
            latency=self.latency,
            cache_stats=cache_stats,
            plugin_reports=reports,
            write_savings_blocks=self.cache.stats.dirty_blocks_discarded,
            blocks_written_to_disk=self.cache.stats.blocks_written,
            stream_stats=dict(
                self._stream_stats, direct_resumes=self.scheduler.direct_resumes
            ),
            volume_stats=self.collect_volume_stats(),
            cluster_stats=self.collect_cluster_stats(),
        )
        result.schedule_digests = self.scheduler.schedule_digests()
        return result

    def collect_volume_stats(self) -> Dict[str, Any]:
        """Per-volume cache/layout/disk/flush breakdown plus an array-level
        rollup."""
        spec = self.spec
        num_volumes = spec.num_volumes
        elapsed = max(self.scheduler.now, 1e-9)
        per_volume: Dict[str, Any] = {}
        flush_children = self.flush_policy.shard_stats()
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
            index_memory = getattr(sub, "index_memory_bytes", None)
            if index_memory is not None and index_memory():
                layout_entry["index_memory_bytes"] = index_memory()
            per_volume[f"vol{v}"] = {
                "disks": disks,
                "layout": layout_entry,
                "cache": self.cache.shards[v].stats.snapshot(),
                "flush": flush_children[v],
            }
        rollup: Dict[str, Any] = {
            "volumes": num_volumes,
            "disks": spec.num_disks,
            "buses": spec.num_buses,
            "placement": spec.array.placement,
            "cache_hit_rate": self.cache.stats.hit_rate,
            "blocks_written": self.cache.stats.blocks_written,
            "disk_operations": sum(d.stats.operations for d in self.drivers),
            "mean_disk_utilisation": (
                sum(d.stats.utilisation(elapsed) for d in self.drivers) / len(self.drivers)
            ),
        }
        rollup["layout"] = self.layout.combined_stats()
        index_total = sum(
            getattr(sub, "index_memory_bytes", lambda: 0)()
            for sub in self.layout.sublayouts
        )
        if index_total:
            cache_budget = max(1, spec.cache.size_bytes)
            rollup["index"] = {
                "memory_bytes": index_total,
                "fraction_of_cache": index_total / cache_budget,
            }
        rollup["flush"] = self.flush_policy.stats()
        rollup["governor_wakeups"] = self.flush_policy.governor_wakeups
        rollup["governor_flushes"] = self.flush_policy.governor_flushes
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
            if node.cache_shards:
                lookups = sum(s.stats.lookups for s in node.cache_shards)
                hits = sum(s.stats.hits for s in node.cache_shards)
                entry["cache_hit_rate"] = hits / lookups if lookups else 0.0
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
                entry["remote_io"] = {
                    key: sum(r[key] for r in remote) for key in remote[0]
                }
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
