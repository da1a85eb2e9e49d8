"""Ablation: cache replacement policies, the baseline and the adaptive one.

Section 2 lists RR, LFU, SLRU, LRU-K and "adaptive" policies as drop-in
replacements for the base cache's LRU lists.  The component matrix
(``benchmarks/components_matrix.py``, ``BENCH_components.json``) measured
all of them and kept LRU and ARC.  This benchmark replays one skewed
(hot-set) read workload under every registered policy and compares mean
latency and hit rate plus ARC's counters (ghost hits, adaptations,
amortised victim-selection cost); the ordering must be the one the matrix
records on this row (``ablation/replacement``) at this seed.

The workload keeps a stable hot set (``large_file_fraction=0`` — a single
512 KB "hot" file would be bigger than the whole 48-block cache and no
policy could hold it).
"""

from dataclasses import replace

from benchmarks.conftest import BENCH_SEED, ranking, recorded_ranking, run_once
from repro.analysis.report import format_replacement_comparison
from repro.assembly.registry import registry
from repro.config import CacheConfig, small_test_config
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
    return dict(result.cache_stats, sim_mean_ms=1e3 * result.mean_latency)


def run_all():
    return {name: run_replacement(name) for name in registry.names("replacement")}


def test_ablation_replacement_policies(benchmark):
    stats = run_once(benchmark, run_all)
    print()
    print(format_replacement_comparison(stats))
    for metric in ("sim_mean_ms", "hit_rate"):
        assert ranking(stats, metric) == recorded_ranking("ablation/replacement", metric), metric
    # The ghost lists actually see reuse on this workload.
    assert stats["arc"]["ghost_hits"] > 0
    # Victim selection is O(1): a handful of list nodes examined per
    # eviction, not a scan over the resident blocks.
    for name, s in stats.items():
        if s["evictions"]:
            assert s["victim_scan_steps"] / s["evictions"] < 4.0, name
