"""The Patsy simulator and the delayed-write experiments (integration level)."""

from pathlib import Path

import pytest

from repro.config import FlushConfig, small_test_config
from repro.core.scheduler import Delay
from repro.errors import ConfigurationError, TraceError
from repro.patsy.experiments import (
    EXPERIMENT_POLICIES,
    experiment_config,
    run_policy_comparison,
)
from repro.patsy.simulator import PatsySimulator
from repro.patsy.synthetic import sprite_like_trace
from repro.patsy.traces import TraceRecord
from repro.patsy.workload import WorkloadProfile, generate_workload
from repro.units import KB


def tiny_trace():
    return [
        TraceRecord(0.0, 0, "mkdir", "/work"),
        TraceRecord(0.1, 0, "open", "/work/a"),
        TraceRecord(0.2, 0, "write", "/work/a", offset=0, size=8 * KB),
        TraceRecord(0.4, 0, "read", "/work/a", offset=0, size=8 * KB),
        TraceRecord(0.5, 0, "close", "/work/a"),
        TraceRecord(0.6, 1, "stat", "/existing/old.dat"),
        TraceRecord(0.8, 1, "read", "/existing/old.dat", offset=0, size=16 * KB),
        TraceRecord(1.0, 1, "unlink", "/work/a"),
    ]


def test_simulator_replays_tiny_trace():
    simulator = PatsySimulator(small_test_config())
    result = simulator.replay(tiny_trace(), trace_name="tiny")
    assert result.operations == len(tiny_trace())
    assert result.errors == 0
    assert result.trace_name == "tiny"
    assert result.simulated_time >= 1.0
    assert result.mean_latency > 0.0
    assert result.cache_stats["lookups"] > 0


def test_simulator_rejects_empty_trace():
    simulator = PatsySimulator(small_test_config())
    with pytest.raises(TraceError):
        simulator.replay([])


def test_simulator_materializes_pre_existing_files():
    simulator = PatsySimulator(small_test_config())
    simulator.replay(tiny_trace())
    assert simulator.client.stats.files_materialized >= 1


def test_simulator_statistics_plugins():
    """The paper's plug-in reports are the disk models' and buses' own
    counters; the cache's are ``cache_stats``, the drivers' ``volume_stats``."""
    simulator = PatsySimulator(small_test_config())
    result = simulator.replay(tiny_trace())
    assert set(result.plugin_reports) == {"rotational-delay", "bus"}
    disks = result.plugin_reports["rotational-delay"]["disks"]
    assert sum(d["requests"] for d in disks.values()) > 0
    buses = result.plugin_reports["bus"]["buses"]
    assert sum(b["transfers"] for b in buses.values()) > 0


def test_simulator_interval_reports():
    simulator = PatsySimulator(small_test_config(), report_interval=60.0)
    profile = WorkloadProfile(name="interval", duration=180.0, num_clients=2, initial_files=10)
    result = simulator.replay(generate_workload(profile, seed=1))
    # 60-second reporting interval over three minutes: at least two intervals.
    assert len(result.latency.interval_reports) >= 2


def test_simulator_max_time_cutoff():
    simulator = PatsySimulator(small_test_config())
    records = [TraceRecord(float(i), 0, "stat", "/f") for i in range(20)]
    result = simulator.replay(records, max_time=5.0)
    assert result.operations <= 7


def test_read_latency_anatomy():
    """Cache hits complete well under 2 ms; cold reads pay seek + rotation."""
    simulator = PatsySimulator(small_test_config())
    records = []
    for i in range(20):
        records.append(TraceRecord(i * 1.0, 0, "read", "/cold/file%d" % i, offset=0, size=4 * KB))
    # Re-read the same files: now they are cache hits.
    for i in range(20):
        records.append(TraceRecord(40.0 + i * 1.0, 0, "read", "/cold/file%d" % i, offset=0, size=4 * KB))
    result = simulator.replay(records)
    latencies = result.latency.latencies("read")
    cold, warm = latencies[:20], latencies[20:]
    assert sum(warm) / len(warm) < 0.002, "cached reads must complete within ~2ms"
    assert sum(cold) / len(cold) > 0.004, "cold reads must pay disk time"


def test_experiment_config_policies():
    for name in EXPERIMENT_POLICIES:
        config = experiment_config(name)
        assert config.flush.policy in {"periodic", "ups", "nvram"}
    with pytest.raises(ConfigurationError):
        experiment_config("write-through")


def test_policy_comparison_reproduces_paper_ordering():
    """The Section 5.1 shape on a scaled-down trace 1a:

    * UPS writes nothing and saves the most dirty data,
    * the 30-second policy writes the most among the delay policies,
    * UPS mean latency is no worse than the 30-second baseline,
    * whole-file NVRAM flushing is no worse than partial-file flushing.
    """
    results = run_policy_comparison("1a", trace_scale=0.4, seed=2)
    ups = results["ups"]
    write_delay = results["write-delay"]
    whole = results["nvram-whole-file"]
    partial = results["nvram-partial-file"]

    assert ups.blocks_written_to_disk == 0
    assert write_delay.blocks_written_to_disk > 0
    assert ups.write_savings_blocks >= write_delay.write_savings_blocks
    assert ups.mean_latency <= write_delay.mean_latency * 1.10
    assert whole.mean_latency <= partial.mean_latency * 1.05
    for result in results.values():
        assert result.errors == 0
        assert result.operations > 100


def test_nvram_bottleneck_on_write_heavy_trace():
    """On the 1b-like trace the NVRAM fills and forces extra writes."""
    results = run_policy_comparison(
        "1b", policies=["write-delay", "nvram-whole-file"], trace_scale=0.3, seed=1
    )
    nvram = results["nvram-whole-file"]
    write_delay = results["write-delay"]
    assert nvram.cache_stats["nvram_stalls"] > 0
    assert nvram.blocks_written_to_disk >= write_delay.blocks_written_to_disk * 0.8


def test_same_trace_different_policies_same_operation_count():
    trace = sprite_like_trace("6", scale=0.2, seed=3)
    results = run_policy_comparison("6", policies=["ups", "write-delay"], trace_scale=0.2, seed=3)
    counts = {r.operations for r in results.values()}
    assert len(counts) == 1
    assert counts.pop() == len(trace)


def test_read_hot_keeps_resuming_sleepers_in_place(tmp_path, monkeypatch):
    """The event loop's short cut is alive on the workload it was made for
    (the 1/50-size ``read_hot`` day of ``benchmarks/e2e``): most sleeps end
    before anything else is due, so they are resumed in place — the same
    number of them on every replay.  A daemon that is always runnable would
    switch the short cut off without failing anything else."""
    e2e = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
    monkeypatch.syspath_prepend(str(e2e))
    import measure
    import workloads

    trace = tmp_path / "read_hot.trace"
    workloads.write_trace(workloads.SHAPES["read_hot"].scaled(0.02), "2.0", trace)
    delays = 0
    construct = Delay.__init__

    def counted(self, seconds):
        nonlocal delays
        delays += 1
        construct(self, seconds)

    monkeypatch.setattr(Delay, "__init__", counted)
    resumed = []
    for _ in range(2):
        delays = 0
        simulator = PatsySimulator(measure.patsy_config("read_hot"))
        result = simulator.replay(str(trace))
        resumed.append(result.stream_stats["direct_resumes"])
        assert resumed[-1] == simulator.scheduler.direct_resumes
        assert 0 < delays <= simulator.scheduler.context_switches
        assert 2 * resumed[-1] >= delays
    assert resumed[0] == resumed[1]
