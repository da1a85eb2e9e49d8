"""Policy comparison across access patterns: hotset, zipf, scan, loop.

The replacement ablation replays one skewed workload; this benchmark runs
every registered policy against the four synthetic access patterns of
:mod:`repro.patsy.workload` and prints a pattern x policy hit-rate matrix.
The patterns are chosen to stress different policy properties:

* ``hotset`` — plain skew; every reasonable policy does fine,
* ``zipf``   — heavier tail than hotset; frequency information helps,
* ``scan``   — hot-set reuse interleaved with one-shot sweeps; ghost-list
  policies (ARC) resist the pollution,
* ``loop``   — cyclic reuse larger than the cache; LRU's pathological
  case.

On each pattern the ordering by mean latency and by hit rate must be the
one the component matrix (``BENCH_components.json``) records on that
pattern's row, ``pattern/<name>``, at this seed.
"""

from dataclasses import replace

from benchmarks.conftest import BENCH_SEED, ranking, recorded_ranking, run_once
from repro.assembly.registry import registry
from repro.config import CacheConfig, small_test_config
from repro.patsy.simulator import PatsySimulator
from repro.patsy.workload import ACCESS_PATTERNS, WorkloadProfile, generate_workload
from repro.units import KB


def make_profile(pattern: str) -> WorkloadProfile:
    return WorkloadProfile(
        name=f"policy-comparison-{pattern}",
        duration=180.0,
        num_clients=3,
        mean_think_time=0.8,
        read_fraction=0.9,
        initial_files=60,
        hot_set_size=8,
        hot_read_fraction=0.7,
        mean_file_size=16 * KB,
        large_file_fraction=0.0,
        access_pattern=pattern,
    )


def run_pattern(pattern: str) -> dict:
    measured = {}
    trace = generate_workload(make_profile(pattern), seed=BENCH_SEED)
    for policy in registry.names("replacement"):
        spec = replace(
            small_test_config(seed=BENCH_SEED),
            cache=CacheConfig(size_bytes=40 * 4096, replacement=policy),
        )
        simulator = PatsySimulator(spec)
        result = simulator.replay(trace)
        measured[policy] = {
            "hit_rate": result.cache_stats["hit_rate"],
            "sim_mean_ms": 1e3 * result.mean_latency,
        }
    return measured


def run_all():
    return {pattern: run_pattern(pattern) for pattern in ACCESS_PATTERNS}


def test_policy_comparison_across_patterns(benchmark):
    matrix = run_once(benchmark, run_all)
    policies = registry.names("replacement")
    print()
    header = f"{'pattern':<8}" + "".join(f"{policy:>9}" for policy in policies)
    print(header)
    print("-" * len(header))
    for pattern, measured in matrix.items():
        print(f"{pattern:<8}" + "".join(f"{measured[p]['hit_rate'] * 100:>8.1f}%" for p in policies))
    for pattern, measured in matrix.items():
        for metric in ("sim_mean_ms", "hit_rate"):
            assert ranking(measured, metric) == recorded_ranking(f"pattern/{pattern}", metric), (
                pattern, metric)
    # The skewed patterns must show real caching at this cache size.
    assert max(m["hit_rate"] for m in matrix["hotset"].values()) > 0.10
    assert max(m["hit_rate"] for m in matrix["zipf"].values()) > 0.10
