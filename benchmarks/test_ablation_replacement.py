"""Ablation: cache replacement policies, classic and adaptive.

Section 2 lists RR, LFU, SLRU, LRU-K and "adaptive" policies as drop-in
replacements for the base cache's LRU lists; the event-driven subsystem in
:mod:`repro.core.replacement` adds the adaptive ones (CLOCK, 2Q, ARC).
This benchmark replays the same skewed (hot-set) read workload under every
policy and compares hit rates plus the adaptive-policy counters (ghost
hits, adaptations, amortised victim-selection cost).

The workload keeps a stable hot set (``large_file_fraction=0`` — a single
512 KB "hot" file would be bigger than the whole 48-block cache and no
policy could hold it).
"""

from dataclasses import replace

from benchmarks.conftest import BENCH_SEED, run_once
from repro.analysis.report import format_replacement_comparison
from repro.config import CacheConfig, small_test_config
from repro.core.replacement import POLICY_NAMES
from repro.patsy.simulator import PatsySimulator
from repro.patsy.workload import WorkloadProfile, generate_workload
from repro.units import KB


PROFILE = WorkloadProfile(
    name="replacement-ablation",
    duration=240.0,
    num_clients=3,
    mean_think_time=0.8,
    read_fraction=0.85,
    initial_files=120,
    hot_set_size=10,
    hot_read_fraction=0.8,
    mean_file_size=16 * KB,
    large_file_fraction=0.0,
)


def run_replacement(policy: str) -> dict:
    spec = replace(
        small_test_config(seed=BENCH_SEED),
        cache=CacheConfig(size_bytes=48 * 4096, replacement=policy),
    )
    simulator = PatsySimulator(spec)
    result = simulator.replay(generate_workload(PROFILE, seed=BENCH_SEED))
    return result.cache_stats


def run_all():
    return {name: run_replacement(name) for name in POLICY_NAMES}


def test_ablation_replacement_policies(benchmark):
    stats = run_once(benchmark, run_all)
    print()
    print(format_replacement_comparison(stats))
    hit_rates = {name: s["hit_rate"] for name, s in stats.items()}
    # Every policy must achieve a non-degenerate hit rate on a strongly
    # skewed workload, and the default (LRU) should not lose badly to random.
    assert all(rate > 0.02 for rate in hit_rates.values())
    assert max(hit_rates.values()) > 0.10
    assert hit_rates["lru"] >= hit_rates["random"] - 0.05
    # The adaptive policies must clear the threshold on their own.
    assert max(hit_rates["arc"], hit_rates["2q"]) > 0.10
    # The ghost lists actually see reuse on this workload.
    assert stats["arc"]["ghost_hits"] > 0
    # Victim selection is O(1): a handful of list nodes examined per
    # eviction, not a scan over the resident blocks.
    for name, s in stats.items():
        if s["evictions"]:
            assert s["victim_scan_steps"] / s["evictions"] < 4.0, name
