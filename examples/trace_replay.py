#!/usr/bin/env python3
"""Trace-driven simulation from a trace file (the Patsy workflow).

Shows the full off-line loop the paper describes: obtain a trace (here a
synthetic Sprite-like workload written to disk in the Sprite text format),
read it back through the Sprite trace reader, replay it on a configured
Patsy simulator, and print the per-interval and plug-in statistics,
including the disk-queue and rotational-delay histograms.

Run with:  python examples/trace_replay.py [trace-name] [scale] [--full-hardware] [--volumes N]
           python examples/trace_replay.py --nodes 4   # 4-node cluster replay
"""

import argparse
import tempfile
from dataclasses import replace
from pathlib import Path

from repro import PatsySimulator, sprite_like_trace
from repro.analysis.report import format_cluster_table
from repro.cli import add_cluster_flags, add_stack_flags, cluster_replay_config
from repro.config import FlushConfig, sprite_server_config, sun4_280_config
from repro.patsy.sprite import load_sprite_trace
from repro.patsy.stats import DiskQueuePlugin, RotationalDelayPlugin
from repro.patsy.traces import load_trace, operation_mix, save_trace
from repro.units import human_time


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", nargs="?", default="2a")
    parser.add_argument("scale", nargs="?", type=float, default=0.25)
    add_stack_flags(parser)
    add_cluster_flags(parser)
    args = parser.parse_args()
    trace_name, scale = args.trace, args.scale

    # 1. Generate a workload and store it as an on-disk trace file.
    records = sprite_like_trace(trace_name, scale=scale, seed=11)
    trace_path = Path(tempfile.mktemp(suffix=".trace"))
    save_trace(records, trace_path)
    print(f"wrote {len(records)} records to {trace_path}")
    print("operation mix:", operation_mix(records))

    # 2. Read it back (the same path a converted real Sprite/Coda trace takes).
    replayable = load_trace(trace_path)

    # 3. Configure a simulator close to the paper's Sprite server and replay.
    if args.nodes > 1:
        # N-node cluster replay: node 0 is the front end, files home by
        # directory across every node's volumes, the rebalancer runs.
        config = cluster_replay_config(args, seed=11)
    elif args.full_hardware:
        # The paper machine as a storage array: per-volume layouts, cache
        # shards and flush daemons via the sun4_280 preset.
        config = sun4_280_config(scale=0.25, seed=11, volumes=args.volumes)
    else:
        config = sprite_server_config(scale=0.25, seed=11)
    config = replace(config, flush=FlushConfig(policy="ups"))
    simulator = PatsySimulator(config)
    result = simulator.replay(replayable, trace_name=trace_name)

    print(f"\nsimulated {result.simulated_time:.0f} seconds of trace time, "
          f"{result.operations} operations, {result.errors} errors")
    print(f"mean latency {human_time(result.mean_latency)}, "
          f"95th percentile {human_time(result.latency.percentile(0.95))}")
    print("\nper-interval means (the paper reports every 15 minutes):")
    for report in result.latency.interval_reports:
        print(
            f"  [{report['start']:7.1f}s - {report['end']:7.1f}s] "
            f"{report['operations']:5d} ops, mean {human_time(report['mean_latency'])}"
        )

    if result.cluster_stats:
        print()
        print(format_cluster_table(result.cluster_stats))

    print("\nplug-in statistics histograms:")
    print(DiskQueuePlugin().histogram(simulator).to_ascii(label="disk queue length"))
    print()
    print(RotationalDelayPlugin().histogram(simulator).to_ascii(label="rotational delay (s)"))

    trace_path.unlink(missing_ok=True)


if __name__ == "__main__":
    main()
