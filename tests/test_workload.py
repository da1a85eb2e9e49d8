"""Synthetic workload generation and the Sprite trace stand-ins."""

import pytest

from repro.errors import ConfigurationError
from repro.patsy.synthetic import SPRITE_PROFILES, SPRITE_TRACE_NAMES, sprite_like_trace
from repro.patsy.traces import operation_mix, trace_duration
from repro.patsy.workload import SyntheticWorkloadGenerator, WorkloadProfile, generate_workload


def small_profile(**overrides):
    base = dict(
        name="test",
        duration=60.0,
        num_clients=3,
        mean_think_time=1.0,
        read_fraction=0.5,
        initial_files=10,
    )
    base.update(overrides)
    return WorkloadProfile(**base)


def test_generation_is_deterministic():
    profile = small_profile()
    first = generate_workload(profile, seed=3)
    second = generate_workload(profile, seed=3)
    assert first == second
    third = generate_workload(profile, seed=4)
    assert third != first


def test_records_sorted_and_within_duration():
    records = generate_workload(small_profile(), seed=1)
    assert records, "the generator must produce work"
    times = [r.timestamp for r in records]
    assert times == sorted(times)
    assert times[-1] <= 60.0


def test_all_clients_active():
    records = generate_workload(small_profile(), seed=2)
    assert {record.client for record in records} == {0, 1, 2}


def test_operation_mix_contains_expected_ops():
    records = generate_workload(small_profile(), seed=5)
    mix = operation_mix(records)
    assert mix.get("open", 0) > 0
    assert mix.get("read", 0) > 0
    assert mix.get("write", 0) > 0
    assert mix.get("close", 0) > 0


def test_overwrite_and_delete_behaviour_present():
    profile = small_profile(
        duration=200.0, read_fraction=0.2, delete_fraction=0.5, overwrite_fraction=0.4,
        rewrite_delay=5.0,
    )
    records = generate_workload(profile, seed=7)
    mix = operation_mix(records)
    assert mix.get("unlink", 0) > 0 or mix.get("truncate", 0) > 0


def test_read_fraction_influences_mix():
    heavy_read = generate_workload(small_profile(read_fraction=0.9, duration=120.0), seed=1)
    heavy_write = generate_workload(small_profile(read_fraction=0.1, duration=120.0), seed=1)
    read_ratio = operation_mix(heavy_read).get("read", 0) / max(len(heavy_read), 1)
    write_ratio = operation_mix(heavy_write).get("write", 0) / max(len(heavy_write), 1)
    assert read_ratio > operation_mix(heavy_write).get("read", 0) / max(len(heavy_write), 1)
    assert write_ratio > operation_mix(heavy_read).get("write", 0) / max(len(heavy_read), 1)


def test_profile_validation():
    with pytest.raises(ConfigurationError):
        WorkloadProfile(duration=-1)
    with pytest.raises(ConfigurationError):
        WorkloadProfile(read_fraction=1.5)


def test_profile_scaled():
    profile = small_profile().scaled(0.5)
    assert profile.duration == pytest.approx(30.0)
    with pytest.raises(ConfigurationError):
        small_profile().scaled(0.0)


def test_sprite_trace_names_have_profiles():
    assert set(SPRITE_TRACE_NAMES) == set(SPRITE_PROFILES)
    assert "1a" in SPRITE_PROFILES and "1b" in SPRITE_PROFILES and "5" in SPRITE_PROFILES


def test_sprite_like_trace_generation_and_scaling():
    full = sprite_like_trace("1a", scale=0.2, seed=0)
    assert full
    assert trace_duration(full) <= SPRITE_PROFILES["1a"].duration * 0.2 + 1.0


def test_sprite_like_trace_unknown_name():
    with pytest.raises(ConfigurationError):
        sprite_like_trace("99")


def test_write_heavy_traces_have_more_write_volume():
    normal = sprite_like_trace("1a", scale=0.2, seed=1)
    heavy = sprite_like_trace("1b", scale=0.2, seed=1)

    def write_bytes(records):
        return sum(r.size for r in records if r.op == "write")

    assert write_bytes(heavy) > write_bytes(normal)


# ---------------------------------------------------------------- access patterns


def read_paths(records):
    seen = []
    for record in records:
        if record.op == "open" and "existing-" in record.path and record.path not in seen:
            seen.append(record.path)
    return seen


def existing_read_counts(records):
    counts = {}
    for record in records:
        if record.op == "read" and "existing-" in record.path:
            counts[record.path] = counts.get(record.path, 0) + 1
    return counts


def test_access_pattern_validation():
    with pytest.raises(ConfigurationError):
        small_profile(access_pattern="belady")
    with pytest.raises(ConfigurationError):
        small_profile(access_pattern="zipf", zipf_alpha=0.0)


def test_zipf_pattern_skews_toward_low_ranks():
    profile = small_profile(
        duration=300.0, read_fraction=0.95, initial_files=40,
        access_pattern="zipf", zipf_alpha=1.1,
    )
    counts = existing_read_counts(generate_workload(profile, seed=5))
    by_index = {int(path.split("existing-")[1][:4]): count for path, count in counts.items()}
    head = sum(count for index, count in by_index.items() if index < 8)
    tail = sum(count for index, count in by_index.items() if index >= 8)
    # Rank 0-7 of 40 files absorb well over half the Zipf(1.1) reads.
    assert head > tail


def test_loop_pattern_cycles_through_population():
    profile = small_profile(
        duration=120.0, num_clients=1, read_fraction=1.0, initial_files=6,
        access_pattern="loop",
    )
    records = generate_workload(profile, seed=2)
    indices = [
        int(r.path.split("existing-")[1][:4]) for r in records if r.op == "open"
    ]
    assert len(indices) > 6
    # A single client visits files in strict cyclic order.
    for position in range(1, len(indices)):
        assert indices[position] == (indices[position - 1] + 1) % 6


def test_scan_pattern_mixes_hot_set_and_sweeps():
    profile = small_profile(
        duration=300.0, read_fraction=0.95, initial_files=30,
        access_pattern="scan", hot_set_size=4, hot_read_fraction=0.5,
    )
    records = generate_workload(profile, seed=3)
    counts = existing_read_counts(records)
    by_index = {int(path.split("existing-")[1][:4]): count for path, count in counts.items()}
    # The sweeps reach far beyond the hot set...
    assert any(index >= profile.hot_set_size for index in by_index)
    # ...while the hot set keeps absorbing repeated reads.
    hot = sum(count for index, count in by_index.items() if index < profile.hot_set_size)
    assert hot > 0
