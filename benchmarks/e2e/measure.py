"""One *day* of one workload through the program's public entry points.

A day is one generated input (``workloads.py``), one freshly built stack
and one timed pass: ``PatsySimulator(config).replay(<trace path>)`` for the
four PATSY workloads, a closed-loop ``NfsLoopbackClient`` call stream for
``pfs_online``.  The day returns what the program's own result objects
report — nothing here reaches below the public surface except the per-disk
``sectors_written`` counters, which no result object carries.

Two clocks, never mixed: ``host_*``/``ops_per_s``/``setup_s`` are host
seconds (``time.perf_counter``), ``sim_*`` are simulated seconds read from
``SimulationResult``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Tuple

import workloads as wl
from repro.assembly.spec import StackSpec
from repro.config import cluster_config, sun4_280_config
from repro.core.faults import FaultEvent
from repro.errors import ReproError
from repro.patsy.simulator import PatsySimulator, SimulationResult
from repro.pfs.filesystem import PegasusFileSystem
from repro.pfs.nfs import NfsLoopbackClient, NfsServer

SECTOR = 512
PFS_BYTES = 256 * wl.MB


@dataclass
class Day:
    """What one day measured.  ``sim`` holds simulated-clock metrics
    (bit-for-bit repeatable for one input), ``host`` host-clock samples,
    ``counters`` the per-layer counters read from the result objects."""

    inputs: List[wl.InputInfo]
    #: operations issued plus, for ``pfs_online``, files the durability
    #: checks set out to compare.
    attempted: int
    #: of those, the ones that went wrong although the unchanged program
    #: gets them right; ``problems`` says why.
    failed: int
    setup_s: float
    timed_s: float
    host: Dict[str, float] = field(default_factory=dict)
    sim: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    #: files the two durability checks found damaged: the expected failures
    #: of README.md, by path.  In ``success_rate``, not in ``failed``.
    mismatched: int = 0
    findings: List[str] = field(default_factory=list)
    build_s: float = 0.0


def _get(mapping: Any, *keys: str, default: float = 0.0) -> Any:
    for key in keys:
        if not isinstance(mapping, dict) or key not in mapping:
            return default
        mapping = mapping[key]
    return mapping


def _weighted(rows: List[Tuple[float, float]]) -> float:
    """Mean of ``value`` weighted by ``weight`` over ``(weight, value)`` rows."""
    total = sum(weight for weight, _ in rows)
    return sum(weight * value for weight, value in rows) / total if total else 0.0


# --------------------------------------------------------------------------- PATSY


def patsy_config(workload: str):
    """Newest-default presets only; the one override is the flush policy
    ``write_burst`` exists to exercise."""
    if workload == "write_burst":
        config = sun4_280_config(scale=0.02)
        return replace(config, flush=replace(config.flush, policy="nvram"))
    if workload == "read_hot":
        return sun4_280_config(scale=0.1)
    if workload == "cluster_repl":
        return cluster_config(nodes=4, scale=0.02, replicas=1)
    return sun4_280_config(scale=0.02)  # sprite_mix, and pfs_online's simulated twin


def fault_schedule(span: float) -> List[FaultEvent]:
    """Node 1 crashes a third of the way in; once the repairer has had a
    third of the day to restore full replication, a disk on node 3 fails."""
    return [
        FaultEvent(time=span / 3.0, kind="node_crash", target=1),
        FaultEvent(time=2.0 * span / 3.0, kind="disk_fail", target=6),
    ]


def patsy_day(
    workload: str,
    shape: wl.TraceShape,
    seed: str,
    workdir: Path,
    tracer: Any = None,
) -> Day:
    start = time.perf_counter()
    trace_file = workdir / f"{workload}-{seed}.trace"
    info = wl.write_trace(shape, seed, trace_file)
    built = time.perf_counter()
    simulator = PatsySimulator(patsy_config(workload))
    build_s = time.perf_counter() - built
    if workload == "cluster_repl":
        simulator.inject_faults(fault_schedule(shape.span))
    setup_s = time.perf_counter() - start
    mount_reads = 0.0
    if tracer is not None:
        tracer.bind(simulator.scheduler)
        simulator.mount()
        mount_reads = float(sum(d.stats.reads for d in simulator.drivers))
        tracer.start()
    start = time.perf_counter()
    result = simulator.replay(str(trace_file), trace_name=workload)
    timed_s = time.perf_counter() - start
    if tracer is not None:
        tracer.stop()

    day = Day([info], attempted=info.ops, failed=result.errors, setup_s=setup_s,
              timed_s=timed_s, build_s=build_s)
    if result.errors:
        day.problems.append(f"{result.errors} trace operations raised FileSystemError")
    if result.operations != info.ops:
        day.failed += abs(info.ops - result.operations)
        day.problems.append(f"replayed {result.operations} operations of {info.ops} in the trace")
    day.host = {"ops_per_s": info.ops / timed_s}
    disk_bytes = SECTOR * sum(d.stats.sectors_written for d in simulator.drivers)
    day.sim = patsy_sim_metrics(result, disk_bytes, info.write_bytes)
    day.counters = patsy_counters(result, simulator)
    day.counters["builder.mount_disk_reads"] = mount_reads
    day.counters["trace.span_s"] = info.span_s
    return day


def patsy_sim_metrics(result: SimulationResult, disk_bytes: int, user_bytes: int) -> Dict[str, float]:
    return {
        "sim_mean_ms": 1e3 * result.mean_latency,
        "sim_p99_ms": 1e3 * result.latency.percentile(0.99),
        "sim_elapsed_s": result.simulated_time,
        "write_to_disk_frac": 1.0 - write_saved_frac(result.cache_stats),
        "disk_bytes_per_user_byte": disk_bytes / max(user_bytes, 1),
    }


def cache_counters(cache: Dict[str, Any]) -> Dict[str, float]:
    """The cache and flush counters both worlds keep (``CacheStatistics``)."""
    return {
        "cache.hit_rate": cache.get("hit_rate", 0.0),
        "cache.evictions": cache.get("evictions", 0),
        "cache.allocation_stalls": cache.get("allocation_stalls", 0),
        "cache.nvram_stalls": cache.get("nvram_stalls", 0),
        "cache.victim_scan_steps": cache.get("victim_scan_steps", 0),
        "flush.blocks_written": cache.get("blocks_written", 0),
        "flush.dirty_discarded": cache.get("dirty_blocks_discarded", 0),
        "flush.peak_dirty_bytes": cache.get("peak_dirty_bytes", 0),
        "write_saved_frac": write_saved_frac(cache),
    }


def write_saved_frac(cache: Dict[str, Any]) -> float:
    """Dirtied blocks that died in memory / blocks dirtied."""
    return cache.get("dirty_blocks_discarded", 0) / max(cache.get("blocks_dirtied", 0), 1)


def patsy_counters(result: SimulationResult, simulator: PatsySimulator) -> Dict[str, float]:
    rollup = _get(result.volume_stats, "rollup", default={})
    layout = _get(rollup, "layout", default={})
    cluster = result.cluster_stats
    counters: Dict[str, float] = {
        "sim_p50_ms": 1e3 * result.latency.percentile(0.5),
        "scheduler.switches": float(getattr(simulator.scheduler, "context_switches", 0)),
        "scheduler.cross_node_wakes": _get(cluster, "scheduler", "cross_node_wakes"),
        "scheduler.window_batches": _get(cluster, "scheduler", "window_batches"),
        "flush.policy_flushes": _get(rollup, "flush", "policy_flushes"),
        **cache_counters(result.cache_stats),
    }
    for name in ("disk_reads", "disk_writes", "inodes_written", "index_writes", "cold_read_runs",
                 "coalesced_read_hits", "cleaner_segments_cleaned", "cleaner_blocks_copied"):
        counters[f"layout.{name}"] = layout.get(name, 0)

    disks = [
        disk
        for volume in _get(result.volume_stats, "per_volume", default={}).values()
        for disk in volume.get("disks", {}).values()
    ]
    counters["driver.mean_queue_len"] = max((d["mean_queue_length"] for d in disks), default=0.0)
    counters["driver.utilisation_max"] = max((d["utilisation"] for d in disks), default=0.0)
    counters["driver.mean_response_ms"] = 1e3 * _weighted(
        [(d["operations"], d["mean_response_time"]) for d in disks]
    )
    spindles = _get(result.plugin_reports, "rotational-delay", "disks", default={}).values()
    counters["simdisk.rotational_ms_mean"] = 1e3 * _weighted(
        [(d["requests"], d["mean_rotational_delay"]) for d in spindles]
    )
    buses = _get(result.plugin_reports, "bus", "buses", default={}).values()
    counters["bus.utilisation_max"] = max((b["utilisation"] for b in buses), default=0.0)
    counters["bus.mean_wait_ms"] = 1e3 * _weighted([(b["transfers"], b["mean_wait_time"]) for b in buses])

    nics = [node["nic"] for node in _get(cluster, "per_node", default={}).values() if "nic" in node]
    counters["nic.messages"] = sum(n["messages"] for n in nics)
    counters["nic.bytes_sent"] = sum(n["bytes_sent"] for n in nics)
    counters["nic.utilisation_max"] = max((n["utilisation"] for n in nics), default=0.0)
    counters["nic.mean_wait_ms"] = 1e3 * _weighted([(n["messages"], n["mean_wait_time"]) for n in nics])
    for name in ("replicated_block_writes", "failover_reads", "dropped_replica_writes"):
        counters[f"replication.{name}"] = _get(cluster, "replication", name)
    counters["repairer.repaired_copies"] = _get(cluster, "repairer", "repaired_copies")
    counters["repairer.bytes_copied"] = _get(cluster, "repairer", "bytes_copied")
    counters["repairer.lost_files"] = _get(cluster, "repairer", "lost_files")
    counters["rebalancer.migrations"] = _get(cluster, "rebalancer", "migrations")
    counters["wal.records"] = _get(cluster, "metadata", "wal", "records_appended")
    counters["wal.commits"] = _get(cluster, "metadata", "wal", "commits")
    counters["wal.checkpoints"] = _get(cluster, "metadata", "checkpoints")
    return {name: float(value) for name, value in counters.items()}


# --------------------------------------------------------------------------- PFS


class _Model:
    """The benchmark's own idea of what the file server holds: name → bytes."""

    def __init__(self) -> None:
        self.files: Dict[str, bytearray] = {}

    def write(self, name: str, offset: int, data: bytes) -> None:
        content = self.files.setdefault(name, bytearray())
        if len(content) < offset:
            content.extend(bytes(offset - len(content)))
        content[offset : offset + len(data)] = data

    def snapshot(self) -> Dict[str, bytes]:
        return {name: bytes(content) for name, content in self.files.items()}


def _copy_images(backing: Path, target: Path) -> None:
    """Copy every backing file of a PFS (``<backing>.d<i>``), skipping the
    megabytes nothing was ever written to so the copies stay sparse."""
    chunk = wl.MB
    zeros = bytes(chunk)
    for image in sorted(backing.parent.glob(backing.name + ".*")):
        with open(image, "rb") as source, open(str(target) + image.suffix, "wb") as sink:
            size = 0
            while True:
                block = source.read(chunk)
                if not block:
                    break
                if block != zeros[: len(block)]:
                    sink.seek(size)
                    sink.write(block)
                size += len(block)
            sink.truncate(size)


def _verify_mount(spec: StackSpec, backing: Path, expected: Dict[str, bytes], label: str,
                  problems: List[str]) -> Tuple[int, int, float]:
    """Mount ``backing`` in a fresh PFS and compare every expected file.
    Returns (files read back and compared, files wrong or unreadable, disk
    reads the mount itself cost)."""
    pfs = PegasusFileSystem.from_spec(spec, backing=backing, size_bytes=PFS_BYTES)
    compared = wrong = 0
    try:
        pfs.mount()
        mount_reads = float(sum(d.stats.reads for d in pfs.drivers))
        for name, content in expected.items():
            try:
                data = pfs.read_file("/" + name) if content else b""
                size = pfs.stat("/" + name)["size"]
            except ReproError as error:
                wrong += 1
                problems.append(f"{label}: /{name}: {type(error).__name__}: {error}")
                continue
            compared += 1
            if data != content or size != len(content):
                wrong += 1
                first = next((i for i, (a, b) in enumerate(zip(data, content)) if a != b),
                             min(len(data), len(content)))
                problems.append(
                    f"{label}: /{name}: {size} bytes on disk, {len(content)} expected, "
                    f"first difference at byte {first}"
                )
    finally:
        pfs.close_backing()
    return compared, wrong, mount_reads


def pfs_day(shape: wl.ScriptShape, seed: str, workdir: Path, tracer: Any = None) -> Day:
    start = time.perf_counter()
    script = workdir / f"pfs_online-{seed}.nfs"
    info = wl.write_script(shape, seed, script)
    ops = wl.read_script(script)
    backing = workdir / f"pfs_online-{seed}.img"
    for stale in workdir.glob(backing.name + "*"):
        stale.unlink()
    spec = StackSpec.from_config(patsy_config("pfs_online"))
    built = time.perf_counter()
    pfs = PegasusFileSystem.from_spec(spec, backing=backing, size_bytes=PFS_BYTES)
    build_s = time.perf_counter() - built
    problems: List[str] = []
    model = _Model()
    try:
        if tracer is not None:
            tracer.bind(pfs.scheduler)
        pfs.format()
        client = NfsLoopbackClient(NfsServer(pfs.fs))
        server = client.server
        dirs = {f"d{i}": client.mkdir(client.root, f"d{i}") for i in range(shape.dirs)}
        handles: Dict[str, Any] = {}
        calls = [op for op in ops if op[0] != "prefill"]
        for op in ops:
            if op[0] != "prefill":
                break
            directory, leaf = op[1].split("/")
            handles[op[1]] = client.create(dirs[directory], leaf)
            data = wl.payload(op[4], int(op[3]))
            client.write(handles[op[1]], 0, data)
            model.write(op[1], 0, data)
        pfs.sync()
        prefill_calls = dict(server.per_procedure)
        setup_s = time.perf_counter() - start

        last_sync = max(i for i, op in enumerate(calls) if op[0] == "sync")
        synced: Dict[str, bytes] = {}
        latencies: List[int] = []
        failed = 0
        paused = 0.0
        clock = time.perf_counter_ns
        if tracer is not None:
            tracer.start()
        start = time.perf_counter()
        for index, op in enumerate(calls):
            kind = op[0]
            if kind == "sync":
                try:
                    pfs.sync()
                except ReproError as error:
                    failed += 1
                    problems.append(f"call {index}: sync: {type(error).__name__}: {error}")
                if index == last_sync:
                    # What a crash right now must preserve: copy the disks
                    # while later calls are still only in memory.
                    pause = time.perf_counter()
                    synced = model.snapshot()
                    _copy_images(backing, workdir / f"pfs_online-{seed}.synced")
                    paused += time.perf_counter() - pause
                continue
            name = op[1]
            directory, leaf = name.split("/")
            began = clock()
            try:
                if kind == "write":
                    data = wl.payload(op[4], int(op[3]))
                    client.write(handles[name], int(op[2]), data)
                    model.write(name, int(op[2]), data)
                elif kind == "read":
                    offset, length = int(op[2]), int(op[3])
                    data = client.read(handles[name], offset, length)
                    if data != bytes(model.files[name][offset : offset + length]):
                        failed += 1
                        problems.append(f"call {index}: READ /{name} @{offset}+{length} returned other bytes")
                elif kind == "getattr":
                    if client.getattr(handles[name])["size"] != len(model.files[name]):
                        failed += 1
                        problems.append(f"call {index}: GETATTR /{name} reports the wrong size")
                elif kind == "lookup":
                    handles[name] = client.lookup(dirs[directory], leaf)
                elif kind == "create":
                    handles[name] = client.create(dirs[directory], leaf)
                    model.files[name] = bytearray()
                elif kind == "remove":
                    client.remove(dirs[directory], leaf)
                    del model.files[name], handles[name]
                elif kind == "rename":
                    new_directory, new_leaf = op[2].split("/")
                    client.rename(dirs[directory], leaf, dirs[new_directory], new_leaf)
                    model.files[op[2]] = model.files.pop(name)
                    handles[op[2]] = handles.pop(name)
            except ReproError as error:  # NfsError: a non-OK reply (ERR_IO, ERR_NOSPC, ...)
                failed += 1
                problems.append(f"call {index}: {kind.upper()} /{name}: {error}")
            latencies.append(clock() - began)
        timed_s = time.perf_counter() - start - paused
        if tracer is not None:
            tracer.stop()

        stats = pfs.statistics()
        disk_bytes = SECTOR * sum(d.stats.sectors_written for d in pfs.drivers)
        served = {
            name: count - prefill_calls.get(name, 0) for name, count in server.per_procedure.items()
        }
        copied = float(getattr(pfs.datamover, "bytes_copied", 0))
        pfs.unmount()
    finally:
        pfs.close_backing()

    # Durability on real bytes.  The unchanged program fails both checks
    # (README.md, expected failures), so a damaged file is listed by path and
    # lowers ``success_rate`` but is not a ``failed`` operation.
    final = model.snapshot()
    findings: List[str] = []
    compared_a, wrong_a, mount_reads = _verify_mount(spec, backing, final, "after unmount", findings)
    _, wrong_b, _ = _verify_mount(
        spec, workdir / f"pfs_online-{seed}.synced", synced, "as of the last sync", findings
    )
    for image in workdir.glob(f"pfs_online-{seed}.*.d*"):
        image.unlink()  # or the kernel keeps writing them back under the next day

    latencies.sort()
    day = Day([info], attempted=len(latencies) + len(final) + len(synced), failed=failed,
              setup_s=setup_s, timed_s=timed_s, problems=problems, mismatched=wrong_a + wrong_b,
              findings=findings, build_s=build_s)
    if len(latencies) != info.ops:
        day.failed += 1
        day.problems.append(f"issued {len(latencies)} calls of {info.ops} in the script")
    cache = stats.get("cache", {})
    day.host = {
        "ops_per_s": len(latencies) / timed_s,
        "pfs_op_us_p50": latencies[len(latencies) // 2] / 1e3,
        "pfs_op_us_p99": latencies[min(len(latencies) * 99 // 100, len(latencies) - 1)] / 1e3,
        "pfs_mb_per_s": (info.read_bytes + info.write_bytes) / 1e6 / timed_s,
    }
    day.sim = {
        "write_to_disk_frac": 1.0 - write_saved_frac(cache),
        "disk_bytes_per_user_byte": disk_bytes / max(info.write_bytes, 1),
    }
    day.counters = {
        **cache_counters(cache),
        "layout.disk_reads": _get(stats, "layout", "disk_reads"),
        "layout.disk_writes": _get(stats, "layout", "disk_writes"),
        "driver.mean_queue_len": _get(stats, "driver", "mean_queue_length"),
        "scheduler.switches": float(getattr(pfs.scheduler, "context_switches", 0)),
        "datamover.bytes_copied": copied,
        "builder.mount_disk_reads": mount_reads,
        "pfs.files_verified": float(compared_a),
        "pfs.live_files": float(len(final)),
        "pfs.remount_mismatches": float(wrong_a),
        "pfs.sync_copy_mismatches": float(wrong_b),
    }
    for name in ("getattr", "lookup", "read", "write", "create", "remove", "rename"):
        day.counters[f"nfs.{name}"] = float(served.get(name, 0))
    return day


def pfs_twin(script: Path, workdir: Path) -> Day:
    """A day's op script replayed through PATSY on the same StackSpec: the
    simulated clock of ``pfs_online`` (one spec, two worlds), which the
    driver's contract wants from every workload.  Not timed."""
    trace = workdir / (script.stem + ".twin.trace")
    info = wl.script_as_trace(script, trace)
    simulator = PatsySimulator(patsy_config("pfs_online"))
    result = simulator.replay(str(trace), trace_name="pfs_online-twin")
    failed = result.errors + abs(result.operations - info.ops)
    twin = Day([info], attempted=info.ops, failed=failed, setup_s=0.0, timed_s=0.0)
    if failed:
        twin.problems.append(f"{failed} operations of the simulated twin failed or were not replayed")
    disk_bytes = SECTOR * sum(d.stats.sectors_written for d in simulator.drivers)
    twin.sim = patsy_sim_metrics(result, disk_bytes, info.write_bytes)
    return twin
