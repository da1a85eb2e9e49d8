"""Textual reports: the paper's figures as printable tables and ASCII plots."""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from repro.analysis.cdf import fraction_at_or_below
from repro.units import human_time

__all__ = [
    "format_mean_latency_table",
    "format_latency_cdf_table",
    "format_policy_comparison",
    "format_per_client_latency_table",
    "format_replacement_comparison",
    "format_volume_table",
    "format_cluster_table",
    "ascii_cdf_plot",
]


def format_mean_latency_table(
    table: Mapping[str, Mapping[str, float]], title: str = "Figure 5: mean file-system latencies"
) -> str:
    """Render the Figure 5 table: traces as rows, policies as columns."""
    policies: list[str] = []
    for row in table.values():
        for policy in row:
            if policy not in policies:
                policies.append(policy)
    header = ["trace"] + policies
    widths = [max(len(h), 18) for h in header]
    lines = [title, ""]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for trace, row in table.items():
        cells = [trace.ljust(widths[0])]
        for index, policy in enumerate(policies, start=1):
            value = row.get(policy)
            text = human_time(value) if value is not None else "-"
            cells.append(text.ljust(widths[index]))
        lines.append("  ".join(cells))
    return "\n".join(lines)


def format_latency_cdf_table(
    latencies_by_policy: Mapping[str, Sequence[float]],
    thresholds: Optional[Sequence[float]] = None,
    title: str = "cumulative fraction of operations completed within ...",
) -> str:
    """Render a CDF comparison: one row per latency threshold, one column per policy."""
    if thresholds is None:
        thresholds = (0.002, 0.005, 0.010, 0.017, 0.030, 0.060, 0.120, 0.250, 0.500, 1.0)
    policies = list(latencies_by_policy)
    header = ["latency <="] + policies
    widths = [max(len(h), 14) for h in header]
    lines = [title, ""]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for threshold in thresholds:
        cells = [human_time(threshold).ljust(widths[0])]
        for index, policy in enumerate(policies, start=1):
            fraction = fraction_at_or_below(latencies_by_policy[policy], threshold)
            cells.append(f"{fraction * 100:6.1f}%".ljust(widths[index]))
        lines.append("  ".join(cells))
    return "\n".join(lines)


def format_policy_comparison(results: Mapping[str, object], trace_name: str = "") -> str:
    """One-line-per-policy summary of a Figure 2-4 style comparison.

    ``results`` maps policy name to
    :class:`~repro.patsy.simulator.SimulationResult`.
    """
    lines = [f"trace {trace_name}" if trace_name else "policy comparison", ""]
    header = f"{'policy':<22} {'mean':>10} {'median':>10} {'p95':>10} {'writes':>8} {'saved':>7} {'hit%':>6}"
    lines.append(header)
    lines.append("-" * len(header))
    for policy, result in results.items():
        latency = result.latency
        cache = result.cache_stats
        lines.append(
            f"{policy:<22} {human_time(latency.mean_latency()):>10} "
            f"{human_time(latency.percentile(0.5)):>10} {human_time(latency.percentile(0.95)):>10} "
            f"{result.blocks_written_to_disk:>8} {result.write_savings_blocks:>7} "
            f"{cache.get('hit_rate', 0.0) * 100:>5.1f}%"
        )
    return "\n".join(lines)


def format_per_client_latency_table(
    per_client: Mapping[int, Mapping[str, float]],
    title: str = "per-client latency percentiles",
) -> str:
    """One row per client: operation count, mean, p50/p95/p99.

    ``per_client`` is the mapping produced by
    :meth:`repro.patsy.stats.LatencyRecorder.per_client_summary` (also on
    :meth:`repro.patsy.simulator.SimulationResult.per_client_latency`);
    the sharded recorders make these percentiles free, which is what
    exposes the fairness effects behind the paper's Figure 2-4 CDFs.
    """
    lines = [title, ""]
    header = f"{'client':>8} {'ops':>9} {'mean':>10} {'median':>10} {'p95':>10} {'p99':>10}"
    lines.append(header)
    lines.append("-" * len(header))
    for client in sorted(per_client):
        stats = per_client[client]
        lines.append(
            f"{client:>8} {int(stats.get('operations', 0)):>9} "
            f"{human_time(stats.get('mean_latency', 0.0)):>10} "
            f"{human_time(stats.get('median_latency', 0.0)):>10} "
            f"{human_time(stats.get('p95_latency', 0.0)):>10} "
            f"{human_time(stats.get('p99_latency', 0.0)):>10}"
        )
    return "\n".join(lines)


def format_replacement_comparison(
    cache_stats_by_policy: Mapping[str, Mapping[str, object]],
    title: str = "replacement-policy ablation",
) -> str:
    """One line per replacement policy: hit rate plus the adaptive-policy
    counters (ghost hits, adaptations, amortised victim-selection cost).

    ``cache_stats_by_policy`` maps policy name to a ``cache_stats`` snapshot
    (:meth:`repro.core.cache.CacheStatistics.snapshot`, as found in
    :attr:`repro.patsy.simulator.SimulationResult.cache_stats`).
    """
    lines = [title, ""]
    header = (
        f"{'policy':<8} {'hit%':>6} {'lookups':>9} {'evictions':>10} "
        f"{'ghost-hits':>11} {'adaptations':>12} {'scan/evict':>11}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    ordered = sorted(
        cache_stats_by_policy.items(),
        key=lambda item: -float(item[1].get("hit_rate", 0.0)),
    )
    for policy, stats in ordered:
        evictions = int(stats.get("evictions", 0))
        steps = int(stats.get("victim_scan_steps", 0))
        per_eviction = steps / evictions if evictions else 0.0
        lines.append(
            f"{policy:<8} {float(stats.get('hit_rate', 0.0)) * 100:>5.1f}% "
            f"{int(stats.get('lookups', 0)):>9} {evictions:>10} "
            f"{int(stats.get('ghost_hits', 0)):>11} "
            f"{int(stats.get('policy_adaptations', 0)):>12} "
            f"{per_eviction:>11.2f}"
        )
    return "\n".join(lines)


def format_volume_table(
    volume_stats: Mapping[str, object],
    title: str = "storage-array volumes",
) -> str:
    """Per-volume written/utilisation/queue table plus an array rollup.

    ``volume_stats`` is :attr:`repro.patsy.simulator.SimulationResult.volume_stats`
    (``{"per_volume": {...}, "rollup": {...}}``).  One row per volume:
    blocks written, mean disk utilisation/queue length/response time over
    the volume's disks.  The rollup lines aggregate the whole array, with
    the hit rate of the cache all its volumes share.
    """
    per_volume = volume_stats.get("per_volume", {}) if volume_stats else {}
    rollup = volume_stats.get("rollup", {}) if volume_stats else {}
    if not per_volume:
        return "(no per-volume statistics)"
    lines = [title, ""]
    header = (
        f"{'volume':<8} {'disks':>5} {'written':>8} "
        f"{'disk-util%':>11} {'queue':>7} {'resp':>10}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for name in sorted(per_volume):
        entry = per_volume[name]
        disks = entry.get("disks", {})
        n_disks = max(len(disks), 1)
        utilisation = sum(d.get("utilisation", 0.0) for d in disks.values()) / n_disks
        queue = sum(d.get("mean_queue_length", 0.0) for d in disks.values()) / n_disks
        response = sum(d.get("mean_response_time", 0.0) for d in disks.values()) / n_disks
        written = entry.get("layout", {}).get("blocks_written", 0)
        lines.append(
            f"{name:<8} {len(disks):>5} {written:>8} "
            f"{utilisation * 100:>10.1f}% {queue:>7.2f} {human_time(response):>10}"
        )
    if rollup:
        lines.append("-" * len(header))
        lines.append(
            f"{'array':<8} {rollup.get('disks', 0):>5} "
            f"{rollup.get('blocks_written', 0):>8} "
            f"{rollup.get('mean_disk_utilisation', 0.0) * 100:>10.1f}% "
            f"{'':>7} {'':>10}"
        )
        lines.append(
            f"placement={rollup.get('placement', '?')} "
            f"volumes={rollup.get('volumes', 0)} buses={rollup.get('buses', 0)} "
            f"disk-ops={rollup.get('disk_operations', 0)} "
            f"cache-hit={rollup.get('cache_hit_rate', 0.0) * 100:.1f}%"
        )
        layout_rollup = rollup.get("layout", {})
        if layout_rollup.get("cleaner_read_runs"):
            lines.append(
                f"cleaner: read-runs={layout_rollup['cleaner_read_runs']} "
                f"blocks-copied={layout_rollup.get('cleaner_blocks_copied', 0)} "
                f"candidate-scans={layout_rollup.get('cleaner_candidate_scans', 0)}"
            )
    return "\n".join(lines)


def format_cluster_table(
    cluster_stats: Mapping[str, object],
    title: str = "cluster nodes",
) -> str:
    """Per-node disk/cache/NIC table plus rebalancer counters.

    ``cluster_stats`` is :attr:`repro.patsy.simulator.SimulationResult.cluster_stats`
    (``{"nodes": N, "per_node": {...}, "rebalancer": {...}}``, produced for
    multi-node cluster runs).  One row per node: its volumes, disk
    operations and utilisation, cache hit rate of its shard, and — for
    remote nodes — the NIC's traffic and utilisation.  The rebalancer line
    summarises the migration activity.
    """
    per_node = cluster_stats.get("per_node", {}) if cluster_stats else {}
    if not per_node:
        return "(no per-node statistics: single-machine run)"
    lines = [title, ""]
    header = (
        f"{'node':<7} {'volumes':>8} {'disk-ops':>9} {'disk-util%':>11} "
        f"{'hit%':>6} {'nic-msgs':>9} {'nic-MB':>8} {'nic-util%':>10}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    # Numeric order: a plain string sort puts node10 before node2.
    for name in sorted(
        per_node, key=lambda key: int("".join(filter(str.isdigit, key)) or 0)
    ):
        entry = per_node[name]
        nic = entry.get("nic")
        hit = entry.get("cache_hit_rate")
        lines.append(
            f"{name:<7} {len(entry.get('volumes', [])):>8} "
            f"{entry.get('disk_operations', 0):>9} "
            f"{entry.get('mean_disk_utilisation', 0.0) * 100:>10.1f}% "
            f"{(hit * 100 if hit is not None else 0.0):>5.1f}% "
            f"{(nic['messages'] if nic else 0):>9} "
            f"{(nic['bytes_sent'] / (1024 * 1024) if nic else 0.0):>8.1f} "
            f"{(nic['utilisation'] * 100 if nic else 0.0):>9.1f}%"
        )
    placement = cluster_stats.get("placement", {})
    if placement:
        lines.append("-" * len(header))
        lines.append(
            f"placement={placement.get('inner', '?')} "
            f"nodes={cluster_stats.get('nodes', 0)} "
            f"volumes/node={placement.get('volumes_per_node', 0)} "
            f"displaced-files={placement.get('displaced_files', 0)}"
        )
    rebalancer = cluster_stats.get("rebalancer")
    if rebalancer:
        lines.append(
            f"rebalancer: rounds={rebalancer.get('rounds', 0)} "
            f"migrations={rebalancer.get('migrations', 0)} "
            f"blocks-copied={rebalancer.get('blocks_copied', 0)} "
            f"skipped={rebalancer.get('migrations_skipped', 0)}"
        )
    replication = cluster_stats.get("replication")
    if replication:
        line = (
            f"replication: replicas={replication.get('replicas', 0)} "
            f"files={replication.get('replicated_files', 0)} "
            f"failover-reads={replication.get('failover_reads', 0)} "
            f"under-replicated={replication.get('under_replicated_files', 0)}"
        )
        repairer = cluster_stats.get("repairer")
        if repairer:
            line += (
                f" repaired={repairer.get('repaired_copies', 0)}"
                f"+{repairer.get('promoted_files', 0)}p"
                f" repair-MB={repairer.get('bytes_copied', 0) / (1024 * 1024):.1f}"
            )
        lines.append(line)
    faults = cluster_stats.get("faults")
    if faults:
        lines.append(
            f"faults: events={faults.get('events_applied', 0)} "
            f"dead-volumes={len(faults.get('dead_volumes', []))} "
            f"dead-nodes={len(faults.get('dead_nodes', []))} "
            f"partitioned={len(faults.get('unreachable_volumes', []))}"
        )
    return "\n".join(lines)


def ascii_cdf_plot(
    latencies_by_series: Mapping[str, Sequence[float]],
    width: int = 64,
    height: int = 16,
    max_latency: Optional[float] = None,
    title: str = "cumulative distribution of file-system latencies",
) -> str:
    """A rough ASCII rendering of one or more latency CDFs.

    The x axis is latency (linear, 0 .. ``max_latency``); the y axis is the
    cumulative fraction of operations completed.  Each series is drawn with
    its own marker character.
    """
    markers = "*o+x#@%&"
    series = list(latencies_by_series.items())
    if not series:
        return "(no data)"
    if max_latency is None:
        peaks = [max(values) for _, values in series if values]
        max_latency = max(peaks) if peaks else 1.0
    if max_latency <= 0:
        max_latency = 1.0
    grid = [[" "] * width for _ in range(height)]
    for index, (name, values) in enumerate(series):
        if not values:
            continue
        marker = markers[index % len(markers)]
        for column in range(width):
            latency = max_latency * (column + 1) / width
            fraction = fraction_at_or_below(values, latency)
            row = height - 1 - int(round(fraction * (height - 1)))
            grid[row][column] = marker
    lines = [title, ""]
    for row_index, row in enumerate(grid):
        fraction_label = 1.0 - row_index / (height - 1)
        lines.append(f"{fraction_label:4.2f} |" + "".join(row))
    lines.append("     +" + "-" * width)
    lines.append(f"      0{' ' * (width - 12)}{human_time(max_latency):>10}")
    legend = "  ".join(
        f"{markers[index % len(markers)]} = {name}" for index, (name, _) in enumerate(series)
    )
    lines.append("      " + legend)
    return "\n".join(lines)
