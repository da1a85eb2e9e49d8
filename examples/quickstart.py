#!/usr/bin/env python3
"""Quickstart: the same component library as an on-line FS and as a simulator.

This is the smallest end-to-end tour of the reproduction:

1. instantiate PFS (the on-line Pegasus file system) on an in-memory disk,
   store and read back real data through the NFS-style front-end;
2. instantiate Patsy (the off-line simulator) from the same components and
   replay a tiny hand-written trace on simulated HP 97560 hardware;
3. print the measurements the simulator collected.

Run with:  python examples/quickstart.py [--full-hardware] [--volumes N]

``--full-hardware`` swaps the single-disk stack for the paper's Sun 4/280
(ten disks, three buses, N volumes) in *both* worlds via the sun4_280
preset.
"""

import argparse

from repro import PegasusFileSystem, PatsySimulator, TraceRecord
from repro.cli import add_stack_flags, stack_config
from repro.pfs.nfs import NfsLoopbackClient, NfsServer
from repro.units import KB, human_time


def online_file_system(args) -> None:
    print("=== PFS: the on-line instantiation ===")
    # Memory-backed disk(s), segmented LFS, 30s update policy: the very
    # stack PATSY simulates below (with --full-hardware, the ten-disk array).
    pfs = PegasusFileSystem(stack_config(args))
    pfs.format()
    pfs.mkdir("/home")
    pfs.write_file("/home/hello.txt", b"hello, cut-and-paste world\n")
    print("read back:", pfs.read_file("/home/hello.txt").decode().strip())

    # The same data is reachable through the NFS-style front-end.
    server = NfsServer(pfs.fs, num_threads=2)
    client = NfsLoopbackClient(server)
    home = client.lookup(client.root, "home")
    handle = client.lookup(home, "hello.txt")
    print("over NFS :", client.read(handle, 0, 100).decode().strip())
    print("statfs   :", client.statfs())
    pfs.unmount()
    print()


def offline_simulator(args) -> None:
    print("=== Patsy: the off-line instantiation ===")
    simulator = PatsySimulator(stack_config(args))
    trace = [
        TraceRecord(0.0, 0, "mkdir", "/project"),
        TraceRecord(0.1, 0, "open", "/project/report.txt"),
        TraceRecord(0.2, 0, "write", "/project/report.txt", offset=0, size=16 * KB),
        TraceRecord(0.6, 0, "read", "/project/report.txt", offset=0, size=16 * KB),
        TraceRecord(0.8, 0, "close", "/project/report.txt"),
        TraceRecord(1.0, 1, "read", "/archive/old-data.bin", offset=0, size=64 * KB),
        TraceRecord(2.0, 0, "unlink", "/project/report.txt"),
    ]
    result = simulator.replay(trace, trace_name="quickstart")
    print(f"operations      : {result.operations}")
    print(f"mean latency    : {human_time(result.mean_latency)}")
    print(f"cache hit rate  : {result.cache_stats['hit_rate'] * 100:.1f}%")
    print(f"blocks written  : {result.blocks_written_to_disk}")
    print(f"write savings   : {result.write_savings_blocks} blocks died in memory")
    print()
    print(result.latency.describe())


if __name__ == "__main__":
    parser = add_stack_flags(argparse.ArgumentParser(description=__doc__))
    arguments = parser.parse_args()
    online_file_system(arguments)
    offline_simulator(arguments)
