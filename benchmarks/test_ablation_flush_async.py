"""Ablation (Section 5.2 lesson): synchronous vs. asynchronous cache flushing.

"In our original system, the thread that needed a cache block was also the
one that initiated a cache flush and waited for the flush to complete ...
The obvious solution was to make the flush policy an a-synchronous
operation."  This benchmark replays the same write-heavy workload with the
flush daemon enabled and disabled and compares the latency experienced by
the foreground operations: under UPS, where the daemon serves allocation
pressure, and under NVRAM, where it drains the buffer for writers at its
limit.
"""

from dataclasses import replace

from benchmarks.conftest import BENCH_SEED, run_once
from repro.config import small_test_config
from repro.patsy.simulator import PatsySimulator
from repro.patsy.workload import WorkloadProfile, generate_workload
from repro.units import KB


PROFILE = WorkloadProfile(
    name="flush-ablation",
    duration=120.0,
    num_clients=4,
    mean_think_time=1.0,
    read_fraction=0.4,
    mean_file_size=32 * KB,
    delete_fraction=0.2,
    overwrite_fraction=0.2,
)


def run_variant(asynchronous: bool, policy: str = "ups"):
    config = small_test_config(seed=BENCH_SEED)
    config = replace(config, flush=replace(config.flush, policy=policy, asynchronous=asynchronous))
    simulator = PatsySimulator(config)
    records = generate_workload(PROFILE, seed=BENCH_SEED)
    return simulator.replay(records, trace_name=f"{policy} async={asynchronous}")


def run_both(policy: str = "ups"):
    return {
        "synchronous": run_variant(False, policy),
        "asynchronous": run_variant(True, policy),
    }


def print_results(results) -> None:
    print()
    for name, result in results.items():
        print(
            f"{name:>12}: mean={result.mean_latency * 1000:.3f} ms  "
            f"p95={result.latency.percentile(0.95) * 1000:.3f} ms  "
            f"allocation stalls={result.cache_stats['allocation_stalls']}  "
            f"nvram stalls={result.cache_stats['nvram_stalls']}"
        )


def test_ablation_asynchronous_flush(benchmark):
    results = run_once(benchmark, run_both)
    sync_result = results["synchronous"]
    async_result = results["asynchronous"]
    print_results(results)
    assert sync_result.errors == 0 and async_result.errors == 0
    # Under UPS the daemon runs strictly on demand (daemon_low_water=0), so
    # in this cache-exhausted regime every stalled allocation pays a daemon
    # wakeup round trip and the asynchronous variant carries a modest
    # constant overhead over flushing inline.  The bound guards against
    # that overhead regressing into something structural.
    assert async_result.mean_latency <= sync_result.mean_latency * 1.25


def test_ablation_asynchronous_nvram_drain(benchmark):
    results = run_once(benchmark, run_both, "nvram")
    sync_result = results["synchronous"]
    async_result = results["asynchronous"]
    print_results(results)
    assert sync_result.errors == 0 and async_result.errors == 0
    assert async_result.cache_stats["nvram_stalls"] > 0
    # The writer at the limit waits for the drain daemon's batch instead of
    # writing one file after another itself.
    assert async_result.mean_latency <= sync_result.mean_latency
