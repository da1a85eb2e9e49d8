"""Storage-array scaling: aggregate throughput from 1 to 10 disks.

The paper's evaluation machine is a Sun 4/280 with ten HP 97560 disks on
three SCSI buses (Section 5.1).  This benchmark drives a deliberately
disk-bound workload (an op rate far above what one 1996 disk can serve)
through growing slices of that machine — 1, 2, 5 and the full 10 disks of
the ``sun4_280`` preset — and measures aggregate throughput: operations
divided by the simulated time the run needed to absorb them.  With the
storage array routing files over per-volume layouts, cache shards and
flush daemons, adding spindles must increase throughput monotonically;
the run also prints the per-volume table for the full machine.

Results land in ``BENCH_array.json`` at the repository root so CI can
track the scaling curve per PR.
"""

from __future__ import annotations

import json
from pathlib import Path

from benchmarks.conftest import BENCH_SEED, BENCH_TRACE_SCALE, run_once
from repro.analysis.report import format_volume_table
from repro.config import sun4_280_config
from repro.patsy.simulator import PatsySimulator
from repro.patsy.workload import WorkloadProfile, generate_workload
from repro.units import KB

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_array.json"

#: (disks, volumes, buses) steps up to the full Sun 4/280 complement.
STEPS = ((1, 1, 1), (2, 2, 1), (5, 5, 2), (10, 5, 3))


def scaling_workload():
    profile = WorkloadProfile(
        name="array-scaling",
        duration=60.0 * max(BENCH_TRACE_SCALE, 0.1) / 0.4,
        num_clients=12,
        read_fraction=0.7,
        stat_fraction=1.0,
        stat_burst=1,
        initial_files=300,
        mean_file_size=32 * KB,
        large_file_fraction=0.05,
        large_file_size=256 * KB,
        # Short enough that the full machine is disk-bound too (about 870
        # ops/s offered, 10 disks serve about 640): a step that absorbs the
        # whole offered load measures the trace, not the disks.
        mean_think_time=0.05,
        intra_op_gap=0.01,
        overwrite_fraction=0.2,
        delete_fraction=0.1,
        hot_read_fraction=0.2,
        hot_set_size=20,
    )
    return generate_workload(profile, seed=BENCH_SEED)


def run_scaling():
    trace = scaling_workload()
    rows = []
    last_result = None
    for disks, volumes, buses in STEPS:
        config = sun4_280_config(
            scale=0.001, seed=BENCH_SEED, volumes=volumes, num_disks=disks, buses=buses
        )
        result = PatsySimulator(config).replay(trace, trace_name=f"{disks}-disk")
        rows.append(
            {
                "disks": disks,
                "volumes": volumes,
                "buses": buses,
                "operations": result.operations,
                "errors": result.errors,
                "simulated_time": result.simulated_time,
                "throughput_ops_per_s": result.operations / result.simulated_time,
                "mean_latency": result.mean_latency,
                "cache_hit_rate": result.cache_stats["hit_rate"],
            }
        )
        last_result = result
    return rows, last_result


def test_array_scaling_throughput_monotonic(benchmark):
    rows, full_machine = run_once(benchmark, run_scaling)
    print()
    header = f"{'disks':>6} {'vols':>5} {'buses':>6} {'sim-time':>10} {'ops/s':>9} {'mean-lat':>10}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['disks']:>6} {row['volumes']:>5} {row['buses']:>6} "
            f"{row['simulated_time']:>9.1f}s {row['throughput_ops_per_s']:>9.1f} "
            f"{row['mean_latency'] * 1000:>8.1f}ms"
        )
    print()
    print(format_volume_table(full_machine.volume_stats, title="sun4_280 (10 disks, 5 volumes)"))

    assert all(row["errors"] == 0 for row in rows)
    # The contract: aggregate throughput grows monotonically from 1 to 10
    # disks — each step must add real parallel service, not noise.
    throughputs = [row["throughput_ops_per_s"] for row in rows]
    for slower, faster in zip(throughputs, throughputs[1:]):
        assert faster > slower * 1.1, f"scaling stalled: {throughputs}"
    # Per-volume stats exist for the full machine (5 volumes, 2 disks each).
    per_volume = full_machine.volume_stats["per_volume"]
    assert len(per_volume) == 5
    assert all(len(entry["disks"]) == 2 for entry in per_volume.values())

    RESULT_PATH.write_text(json.dumps({"steps": rows}, indent=2) + "\n")
