#!/usr/bin/env python3
"""One StackSpec, two worlds: the assembly layer in one page.

The paper's claim is that a simulator and a file system are the same
components under different helper bindings.  The assembly layer makes that
claim a one-liner: describe the stack once with a ``StackSpec`` — here what
the ``sun4_280_config`` preset returns, the paper's Sun 4/280 evaluation
machine, ten HP 97560 disks on three SCSI buses carved into five volumes —
then hand that one object to both constructors:

1. replay a synthetic trace through ``PatsySimulator(spec)``
   (simulated disks, no data pointers), and
2. mount ``PegasusFileSystem(spec)`` (memory-backed drivers, real bytes)
   and store real data on the same five-volume array.

Run with:  python examples/one_spec_two_worlds.py [--full-hardware] [--volumes N]

This example *is* the full-hardware demo — the flags pick how many volumes
the sun4_280 preset's ten disks are carved into (``--full-hardware`` is
accepted for symmetry with the other examples and is the default here).
"""

import argparse

from repro import PatsySimulator, PegasusFileSystem, StackSpec, sun4_280_config
from repro.analysis.report import format_volume_table
from repro.cli import add_stack_flags
from repro.patsy.workload import WorkloadProfile, generate_workload
from repro.units import MB, human_time


def main() -> None:
    args = add_stack_flags(argparse.ArgumentParser(description=__doc__)).parse_args()
    # The stack, described once: cache shards, flush daemons + governor,
    # per-volume LFS + cleaners, hash placement over the volumes.
    spec = sun4_280_config(scale=0.002, seed=42, volumes=args.volumes)
    print("spec:", f"{spec.num_disks} disks / {spec.num_buses} buses /",
          f"{spec.num_volumes} volumes, layout={spec.layout.kind}")
    print("manifest round-trip:", StackSpec.from_dict(spec.to_dict()) == spec)
    print()

    # --- world 1: the off-line simulator -----------------------------------
    print("=== Patsy: the same spec, simulated ===")
    simulator = PatsySimulator(spec)
    trace = generate_workload(
        WorkloadProfile(name="demo", duration=120.0, num_clients=4,
                        initial_files=30, directory_count=10),
        seed=42,
    )
    result = simulator.replay(trace, trace_name="one-spec-demo")
    print(f"operations   : {result.operations}")
    print(f"mean latency : {human_time(result.mean_latency)}")
    print(f"hit rate     : {result.cache_stats['hit_rate'] * 100:.1f}%")
    print()
    print(format_volume_table(result.volume_stats))
    print()

    # --- world 2: the on-line file system ----------------------------------
    print("=== PFS: the same spec, storing real bytes ===")
    pfs = PegasusFileSystem(spec, size_bytes=40 * MB)
    pfs.format()
    pfs.mkdir("/home")
    for i in range(8):
        pfs.write_file(f"/home/file{i}.txt", f"file {i} on a 5-volume array\n".encode())
    print("read back :", pfs.read_file("/home/file3.txt").decode().strip())
    print("cache     :", type(pfs.cache).__name__, f"({len(pfs.cache.shards)} shards)")
    print("layout    :", repr(pfs.layout))
    pfs.unmount()  # flushes every shard through its volume's sub-layout
    busy = sum(1 for sub in pfs.layout.sublayouts if sub.stats.blocks_written > 0)
    print(f"volumes written by 8 files: {busy}/{spec.num_volumes}")


if __name__ == "__main__":
    main()
