"""Cluster scaling and skew rebalancing: throughput from 1 to 4 nodes.

Two experiments above the storage array:

1. **Scaling** — a disk-bound workload (op rate far above what one node's
   spindles can serve) replayed over 1, 2, 3 and 4 nodes of two disks /
   two volumes each.  Node 0 is the front end; every other node's volumes
   are reached over simulated network links (per-NIC queueing, bandwidth,
   latency).  Aggregate throughput must grow monotonically: the spindles
   gained must beat the network latency paid.

2. **Rebalancing** — the same cluster under a pathologically *skewed*
   workload: every file lives in one directory, so directory-affinity
   placement piles the whole load onto one volume of one node.  With the
   skew monitor off the cluster performs like a single overloaded machine;
   with it on, hot files migrate online (copy-forward through the cache,
   atomic routing flip) and both throughput and tail latency must improve
   measurably.

Results land in ``BENCH_cluster.json`` at the repository root so CI can
track the scaling curve and the rebalancing win per PR.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from benchmarks.conftest import BENCH_SEED, BENCH_TRACE_SCALE, run_once
from repro.analysis.report import format_cluster_table
from repro.config import cluster_config
from repro.patsy.simulator import PatsySimulator
from repro.patsy.workload import WorkloadProfile, generate_workload
from repro.units import KB

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_cluster.json"

NODE_STEPS = (1, 2, 3, 4)


def scaling_workload():
    profile = WorkloadProfile(
        name="cluster-scaling",
        duration=60.0 * max(BENCH_TRACE_SCALE, 0.1) / 0.4,
        num_clients=12,
        read_fraction=0.7,
        stat_fraction=1.0,
        stat_burst=1,
        initial_files=300,
        mean_file_size=32 * KB,
        large_file_fraction=0.05,
        large_file_size=256 * KB,
        # Short enough that four nodes are disk-bound too (about 870 ops/s
        # offered, they serve about 600): a step that absorbs the whole
        # offered load measures the trace, not the spindles.
        mean_think_time=0.05,
        intra_op_gap=0.01,
        overwrite_fraction=0.2,
        delete_fraction=0.1,
        hot_read_fraction=0.2,
        hot_set_size=20,
    )
    return generate_workload(profile, seed=BENCH_SEED)


def skewed_workload():
    """Everything in one directory: directory-affinity placement turns the
    whole trace into single-volume load — the rebalancer's worst case."""
    profile = WorkloadProfile(
        name="cluster-skew",
        duration=60.0 * max(BENCH_TRACE_SCALE, 0.1) / 0.4,
        num_clients=12,
        read_fraction=0.75,
        stat_fraction=1.0,
        stat_burst=1,
        initial_files=120,
        directory_count=1,
        mean_file_size=32 * KB,
        mean_think_time=0.25,
        intra_op_gap=0.01,
        overwrite_fraction=0.2,
        delete_fraction=0.05,
        hot_read_fraction=0.4,
        hot_set_size=30,
    )
    return generate_workload(profile, seed=BENCH_SEED)


def _cluster(nodes: int, placement: str, rebalance: bool):
    config = cluster_config(
        nodes=nodes,
        scale=0.001,
        seed=BENCH_SEED,
        volumes_per_node=2,
        disks_per_node=2,
        buses_per_node=1,
        placement=placement,
        rebalance=rebalance,
    )
    if rebalance:
        config = replace(
            config,
            cluster=replace(
                config.cluster,
                rebalance_interval=2.0,
                imbalance_threshold=1.5,
                max_migrations_per_round=8,
            ),
        )
    return config


def _row(result, **extra):
    return dict(
        {
            "operations": result.operations,
            "errors": result.errors,
            "simulated_time": result.simulated_time,
            "throughput_ops_per_s": result.operations / result.simulated_time,
            "mean_latency": result.mean_latency,
            "p99_latency": result.latency.percentile(0.99),
        },
        **extra,
    )


def run_cluster_benchmarks():
    scaling_trace = scaling_workload()
    scaling_rows = []
    last_result = None
    for nodes in NODE_STEPS:
        config = _cluster(nodes, placement="hash", rebalance=False)
        result = PatsySimulator(config).replay(scaling_trace, trace_name=f"{nodes}-node")
        scaling_rows.append(_row(result, nodes=nodes))
        last_result = result

    skew_trace = skewed_workload()
    skew_rows = {}
    for rebalance in (False, True):
        config = _cluster(NODE_STEPS[-1], placement="directory", rebalance=rebalance)
        result = PatsySimulator(config).replay(skew_trace, trace_name="skew")
        label = "rebalance-on" if rebalance else "rebalance-off"
        extra = {"rebalance": rebalance}
        if rebalance:
            rebalancer = result.cluster_stats["rebalancer"]
            extra["migrations"] = rebalancer["migrations"]
            extra["blocks_copied"] = rebalancer["blocks_copied"]
        skew_rows[label] = (_row(result, **extra), result)
    return scaling_rows, skew_rows, last_result


def test_cluster_scaling_and_rebalancing(benchmark):
    scaling_rows, skew_rows, full_cluster = run_once(benchmark, run_cluster_benchmarks)
    print()
    header = f"{'nodes':>6} {'sim-time':>10} {'ops/s':>9} {'mean-lat':>10} {'p99':>10}"
    print(header)
    print("-" * len(header))
    for row in scaling_rows:
        print(
            f"{row['nodes']:>6} {row['simulated_time']:>9.1f}s "
            f"{row['throughput_ops_per_s']:>9.1f} {row['mean_latency'] * 1000:>8.1f}ms "
            f"{row['p99_latency'] * 1000:>8.1f}ms"
        )
    print()
    print(format_cluster_table(full_cluster.cluster_stats, title="4-node cluster (scaling run)"))
    print()
    off, off_result = skew_rows["rebalance-off"]
    on, on_result = skew_rows["rebalance-on"]
    print("skewed directory-affinity workload, 4 nodes:")
    for label, row in (("rebalance-off", off), ("rebalance-on", on)):
        print(
            f"  {label:<14} ops/s={row['throughput_ops_per_s']:>7.1f} "
            f"mean={row['mean_latency'] * 1000:>7.1f}ms p99={row['p99_latency'] * 1000:>8.1f}ms"
            + (f" migrations={row['migrations']}" if "migrations" in row else "")
        )
    print()
    print(format_cluster_table(on_result.cluster_stats, title="4-node cluster (rebalance on)"))

    assert all(row["errors"] == 0 for row in scaling_rows)
    assert off["errors"] == 0 and on["errors"] == 0
    # Contract 1: aggregate throughput grows monotonically from 1 to 4
    # nodes — each node's spindles must add real parallel service over the
    # network, not noise.
    throughputs = [row["throughput_ops_per_s"] for row in scaling_rows]
    for slower, faster in zip(throughputs, throughputs[1:]):
        assert faster > slower * 1.1, f"cluster scaling stalled: {throughputs}"
    # Contract 2: under skew, online rebalancing buys a measurable win on
    # *both* axes — throughput and tail latency.
    assert on["migrations"] > 0
    assert on["throughput_ops_per_s"] > off["throughput_ops_per_s"] * 1.2, (
        f"rebalancing did not lift throughput: {on['throughput_ops_per_s']:.1f} "
        f"vs {off['throughput_ops_per_s']:.1f}"
    )
    assert on["p99_latency"] < off["p99_latency"] * 0.8, (
        f"rebalancing did not cut the tail: {on['p99_latency']:.3f}s "
        f"vs {off['p99_latency']:.3f}s"
    )

    RESULT_PATH.write_text(
        json.dumps(
            {
                "scaling": scaling_rows,
                "skew": {label: row for label, (row, _res) in skew_rows.items()},
            },
            indent=2,
        )
        + "\n"
    )
