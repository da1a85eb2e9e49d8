"""Ablation: greedy vs cost-benefit cleaning on hot-and-cold data.

Sprite LFS's case for cost-benefit cleaning (Rosenblum & Ousterhout §5) is
a *hot-and-cold* workload: a small fraction of the data takes most of the
writes while the rest sits still.  Greedy always cleans the emptiest
segment — which is usually a hot segment whose remaining live blocks were
about to die anyway, so it copies data just ahead of its overwrite and
must come back again.  Cost-benefit weighs utilisation against age
(``(1-u) * (1 + age/age_scale) / (1+u)``): cold segments get cleaned once
at moderate utilisation and then stay compact, which lowers the blocks
copied per new block written (the cleaner's write amplification).

This benchmark reproduces that divergence on a real (byte-moving) LFS:
~20% hot blocks taking 90% of the writes, interleaved with cold data so
segments mix both, under continuous space pressure.  Cost-benefit must
measurably beat greedy on write amplification — the ROADMAP open item.
"""

from __future__ import annotations

import random

from benchmarks.conftest import run_once
from repro.assembly.registry import registry
from repro.core.blocks import CacheBlock
from repro.core.clock import VirtualClock
from repro.core.inode import FileKind
from repro.core.scheduler import Scheduler
from repro.core.storage.cleaner import CleanerDaemon
from repro.core.storage.lfs import LogStructuredLayout
from repro.core.storage.volume import LocalVolume
from repro.pfs.diskfile import MemoryBackedDiskDriver
from repro.units import KB, MB

SEED = 1
FILE_BLOCKS = 220
HOT_FRACTION = 0.2
HOT_WRITE_PROB = 0.9
ROUNDS = 400
BATCH = 4


def drive(scheduler, target, *args):
    return scheduler.run_until_complete(scheduler.spawn(target, *args))


def payload_block():
    return CacheBlock(0, 4 * KB, with_data=True)


def run_cleaner_experiment(policy_name: str) -> dict:
    rng = random.Random(SEED)
    scheduler = Scheduler(clock=VirtualClock(), seed=SEED)
    driver = MemoryBackedDiskDriver(scheduler, size_bytes=2 * MB)
    volume = LocalVolume([driver], block_size=4 * KB)
    layout = LogStructuredLayout(
        scheduler, volume, block_size=4 * KB, segment_blocks=8, simulated=False
    )
    drive(scheduler, layout.format)
    drive(scheduler, layout.mount)
    daemon = CleanerDaemon(
        scheduler, layout, registry.create("cleaner", policy_name), low_water=0.22, high_water=0.32
    )
    inode = layout.allocate_inode(FileKind.REGULAR)
    hot_count = int(FILE_BLOCKS * HOT_FRACTION)

    def sleep(seconds: float):
        def body():
            yield from scheduler.sleep(seconds)

        drive(scheduler, body)

    # Initial load: every block once, in shuffled order so segments mix hot
    # and cold data (the condition under which cleaning has to copy).
    order = list(range(FILE_BLOCKS))
    rng.shuffle(order)
    for index in range(0, FILE_BLOCKS, BATCH):
        drive(
            scheduler,
            layout.write_file_blocks,
            inode,
            [(bn, payload_block()) for bn in order[index : index + BATCH]],
        )
    sleep(20.0)

    new_blocks = 0
    for _round in range(ROUNDS):
        chosen = set()
        for _ in range(BATCH):
            if rng.random() < HOT_WRITE_PROB:
                chosen.add(rng.randrange(hot_count))
            else:
                chosen.add(hot_count + rng.randrange(FILE_BLOCKS - hot_count))
        drive(
            scheduler,
            layout.write_file_blocks,
            inode,
            [(bn, payload_block()) for bn in sorted(chosen)],
        )
        new_blocks += len(chosen)
        sleep(1.0)
        if layout.free_segment_fraction < daemon.low_water:
            drive(scheduler, daemon.clean_until, daemon.high_water)

    return {
        "policy": policy_name,
        "segments_cleaned": daemon.segments_cleaned,
        "blocks_copied": daemon.blocks_copied,
        "new_blocks": new_blocks,
        "write_amplification": daemon.blocks_copied / max(new_blocks, 1),
        "free_fraction": layout.free_segment_fraction,
    }


def run_both():
    return {name: run_cleaner_experiment(name) for name in ("greedy", "cost-benefit")}


def test_cost_benefit_beats_greedy_on_hot_and_cold_data(benchmark):
    results = run_once(benchmark, run_both)
    print()
    for name, stats in results.items():
        print(
            f"{name:>14}: cleaned={stats['segments_cleaned']:3d} segments, "
            f"copied={stats['blocks_copied']:4d} live blocks for "
            f"{stats['new_blocks']} new -> write amp {stats['write_amplification']:.3f}"
        )
    greedy = results["greedy"]
    cost_benefit = results["cost-benefit"]
    # Both must have survived the pressure loop with the cleaner working.
    assert greedy["segments_cleaned"] > 0 and cost_benefit["segments_cleaned"] > 0
    assert greedy["free_fraction"] > 0.05 and cost_benefit["free_fraction"] > 0.05
    # The divergence the Sprite model predicts: cost-benefit copies
    # measurably fewer live blocks per new block written (>= 5% here;
    # observed ~10-23% across seeds).
    assert (
        cost_benefit["write_amplification"] < greedy["write_amplification"] * 0.95
    ), f"no divergence: {results}"
