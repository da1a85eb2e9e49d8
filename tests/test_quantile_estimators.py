"""Streaming quantile estimation: the log-bucket latency shards and the
recorder's constant-memory behaviour past its exact window."""

import math
import random

import pytest

from repro.analysis.cdf import downsample_cdf, percentile_from_cdf
from repro.errors import InvalidArgument
from repro.patsy.stats import Histogram, LatencyRecorder


def exact_percentile(values, fraction):
    ordered = sorted(values)
    index = min(int(math.ceil(fraction * len(ordered))) - 1, len(ordered) - 1)
    return ordered[max(index, 0)]


DISTRIBUTIONS = {
    "uniform": lambda rng: rng.uniform(0.001, 0.5),
    "exponential": lambda rng: rng.expovariate(100.0),
    "lognormal": lambda rng: math.exp(rng.gauss(-5.0, 1.0)),
}


@pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
@pytest.mark.parametrize("fraction", [0.5, 0.95, 0.99])
def test_shard_quantile_within_two_percent(name, fraction):
    rng = random.Random(13)
    values = [DISTRIBUTIONS[name](rng) for _ in range(30_000)]
    recorder = LatencyRecorder(exact_window=64)  # force the streaming path
    for i, value in enumerate(values):
        recorder.record(i * 0.001, "read", value)
    assert not recorder.window_is_exact
    exact = exact_percentile(values, fraction)
    assert recorder.percentile(fraction) == pytest.approx(exact, rel=0.02)


def test_recorder_memory_is_constant_past_the_window():
    recorder = LatencyRecorder(exact_window=256)
    for i in range(10_000):
        recorder.record(i * 0.01, "read", 0.001 * (1 + i % 7), client=i % 4)
    assert recorder.count == 10_000
    assert recorder.retained_samples == 256
    assert not recorder.window_is_exact
    # Shards exist per op and per client, independent of the sample count.
    assert set(recorder.op_shards) == {"read"}
    assert recorder.client_ids() == [0, 1, 2, 3]


def test_fraction_below_bucket_range_is_non_negative():
    recorder = LatencyRecorder(exact_window=0)  # force the streaming path
    for i in range(100):
        recorder.record(i * 0.001, "read", 1.01e-9)
    fraction = recorder.fraction_completed_within(1e-10)
    assert 0.0 <= fraction <= 1.0


def test_recorder_zero_latencies():
    recorder = LatencyRecorder(exact_window=4)
    for i in range(100):
        recorder.record(i * 0.001, "stat", 0.0)
    recorder.record(1.0, "read", 0.5)
    assert recorder.percentile(0.5) == 0.0
    assert recorder.percentile(1.0) == pytest.approx(0.5, rel=0.02)
    assert recorder.fraction_completed_within(0.0) == pytest.approx(100 / 101, rel=1e-6)


def test_recorder_streaming_cdf_monotone_and_complete():
    rng = random.Random(5)
    recorder = LatencyRecorder(exact_window=32)
    for i in range(5_000):
        recorder.record(i * 0.001, "read", rng.expovariate(100.0))
    cdf = recorder.cdf(points=100)
    assert len(cdf) <= 100
    values = [point[0] for point in cdf]
    fractions = [point[1] for point in cdf]
    assert values == sorted(values)
    assert fractions == sorted(fractions)
    assert fractions[-1] == pytest.approx(1.0)
    # helpers consume the streaming CDF directly; an undownsampled CDF keeps
    # the full bucket resolution (one bucket = 2% in value).
    fine = recorder.cdf(points=4096)
    assert percentile_from_cdf(fine, 0.5) == pytest.approx(recorder.percentile(0.5), rel=0.05)
    assert len(downsample_cdf(cdf, 10)) <= 10


def test_recorder_per_client_summary_consistent_across_paths():
    rng = random.Random(9)
    exact = LatencyRecorder(exact_window=100_000)
    streaming = LatencyRecorder(exact_window=64)
    for i in range(8_000):
        latency = rng.expovariate(100.0)
        client = i % 3
        exact.record(i * 0.001, "read", latency, client)
        streaming.record(i * 0.001, "read", latency, client)
    exact_summary = exact.per_client_summary()
    stream_summary = streaming.per_client_summary()
    assert set(exact_summary) == set(stream_summary) == {0, 1, 2}
    for client in exact_summary:
        assert stream_summary[client]["operations"] == exact_summary[client]["operations"]
        assert stream_summary[client]["mean_latency"] == pytest.approx(
            exact_summary[client]["mean_latency"]
        )
        assert stream_summary[client]["p95_latency"] == pytest.approx(
            exact_summary[client]["p95_latency"], rel=0.02
        )


def test_recorder_latencies_reconstruction_preserves_distribution():
    rng = random.Random(21)
    values = [rng.uniform(0.001, 0.1) for _ in range(4_000)]
    recorder = LatencyRecorder(exact_window=16)
    for i, value in enumerate(values):
        recorder.record(i * 0.001, "read", value)
    reconstructed = recorder.latencies()
    assert len(reconstructed) == len(values)
    assert sum(reconstructed) == pytest.approx(sum(values), rel=0.02)
    assert exact_percentile(reconstructed, 0.9) == pytest.approx(
        exact_percentile(values, 0.9), rel=0.02
    )


def test_histogram_rejects_unsorted_bounds_without_copy():
    with pytest.raises(InvalidArgument):
        Histogram(bucket_bounds=[3.0, 1.0, 2.0])
    with pytest.raises(InvalidArgument):
        Histogram(bucket_bounds=[])


def test_histogram_arithmetic_bucket_lookup_matches_bisect():
    from bisect import bisect_right

    linear = Histogram(low=0.0, high=10.0, buckets=10)
    logarithmic = Histogram(low=0.001, high=10.0, buckets=40, log_scale=True)
    rng = random.Random(17)
    probes = [rng.uniform(-1.0, 12.0) for _ in range(500)]
    probes += list(linear.bounds) + list(logarithmic.bounds) + [0.0, 10.0, 1e-9]
    for value in probes:
        assert linear._bucket_index(value) == bisect_right(linear.bounds, value)
        if value > 0:
            assert logarithmic._bucket_index(value) == bisect_right(
                logarithmic.bounds, value
            )
