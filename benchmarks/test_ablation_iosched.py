"""Ablation: disk-queue scheduling policy (FCFS vs. C-LOOK vs. SCAN-EDF).

The production driver uses C-LOOK (Section 3); this ablation shows why —
under a random-access load with a deep queue, positional ordering beats
first-come-first-served on total seek distance and mean response time.
"""

import random

from benchmarks.conftest import run_once
from repro.assembly.registry import registry
from repro.core.scheduler import Scheduler
from repro.core.clock import VirtualClock
from repro.patsy.bus import ScsiBus
from repro.patsy.diskspec import HP97560
from repro.patsy.simdisk import SimulatedDisk
from repro.patsy.simdriver import SimulatedDiskDriver

NUM_REQUESTS = 150


def run_policy(policy_name: str, request_seed: int = 42) -> dict:
    scheduler = Scheduler(clock=VirtualClock(), seed=9)
    bus = ScsiBus(scheduler)
    disk = SimulatedDisk(scheduler, HP97560, bus)
    driver = SimulatedDiskDriver(
        scheduler, disk, bus, io_scheduler=registry.create("iosched", policy_name)
    )
    rng = random.Random(request_seed)
    sectors = [rng.randrange(0, disk.num_sectors - 64) for _ in range(NUM_REQUESTS)]

    def client(sector):
        yield from driver.read(sector, 8)

    threads = [scheduler.spawn(client, sector) for sector in sectors]
    for thread in threads:
        scheduler.run_until_complete(thread)
    return {
        "mean_response": driver.stats.mean_response_time(),
        "total_seek_time": disk.stats.total_seek_time,
        "makespan": scheduler.now,
    }


def run_all_policies():
    return {name: run_policy(name) for name in registry.names("iosched")}


def test_ablation_io_scheduler(benchmark):
    results = run_once(benchmark, run_all_policies)
    print()
    for name, stats in results.items():
        print(
            f"{name:>6}: mean response={stats['mean_response'] * 1000:7.2f} ms  "
            f"total seek={stats['total_seek_time'] * 1000:8.1f} ms  "
            f"makespan={stats['makespan'] * 1000:8.1f} ms"
        )
    # Positional scheduling (C-LOOK, the production policy) spends less time
    # seeking than FCFS under a deep random queue.
    assert results["clook"]["total_seek_time"] < results["fcfs"]["total_seek_time"]
    assert results["clook"]["makespan"] <= results["fcfs"]["makespan"] * 1.02
