"""Streaming replay: parity with materialised replay, trace iterators,
client scanning and the demultiplexer's bounded buffering."""

import io

import pytest

from repro.config import small_test_config
from repro.errors import TraceError
from repro.patsy.coda import iter_coda_trace, load_coda_trace
from repro.patsy.simulator import PatsySimulator
from repro.patsy.sprite import iter_sprite_trace, load_sprite_trace
from repro.patsy.synthetic import sprite_like_trace
from repro.patsy.traces import (
    TraceRecord,
    iter_trace,
    iter_trace_tuples,
    load_trace,
    save_trace,
    scan_trace_clients,
    stream_synthesize_missing_times,
    synthesize_missing_times,
)


def replay_trace(seed=5, scale=0.12):
    trace = sprite_like_trace("1a", scale=scale, seed=seed)
    trace.sort(key=lambda record: record.timestamp)
    return trace


# --------------------------------------------------------------------------- parity


def test_streaming_replay_matches_materialised_byte_for_byte():
    trace = replay_trace()
    materialised = PatsySimulator(small_test_config(seed=5)).replay(trace, trace_name="t")
    streaming = PatsySimulator(small_test_config(seed=5)).replay_stream(trace, trace_name="t")
    assert streaming.operations == materialised.operations
    assert streaming.errors == materialised.errors
    assert streaming.cache_stats["hit_rate"] == materialised.cache_stats["hit_rate"]
    assert streaming.blocks_written_to_disk == materialised.blocks_written_to_disk
    # Not just close: the whole summary (latency means, percentiles,
    # per-client shards) is byte-identical because the streaming demux
    # presents the scheduler with the same execution.
    assert streaming.latency.summary() == materialised.latency.summary()
    assert streaming.summary() == materialised.summary()
    assert streaming.latency.interval_reports == materialised.latency.interval_reports


def test_streaming_replay_from_path_matches_materialised(tmp_path):
    trace_path = tmp_path / "trace.tsv"
    save_trace(replay_trace(), trace_path)
    materialised = PatsySimulator(small_test_config(seed=5)).replay(str(trace_path))
    streaming = PatsySimulator(small_test_config(seed=5)).replay_stream(str(trace_path))
    assert streaming.latency.summary() == materialised.latency.summary()
    assert streaming.summary() == materialised.summary()
    assert streaming.stream_stats["records_replayed"] == materialised.operations


def test_streaming_replay_discovery_mode_runs_every_operation():
    trace = replay_trace()
    baseline = PatsySimulator(small_test_config(seed=5)).replay(trace)

    def generate():
        yield from trace

    discovered = PatsySimulator(small_test_config(seed=5)).replay(generate())
    assert discovered.operations == baseline.operations
    assert discovered.errors == baseline.errors
    assert discovered.stream_stats["clients"] == len({r.client for r in trace})


def test_streaming_replay_bounded_buffering():
    trace = replay_trace()
    result = PatsySimulator(small_test_config(seed=5)).replay_stream(trace)
    assert 0 < result.stream_stats["peak_buffered_records"] < len(trace)


def test_streaming_replay_rejects_empty_trace():
    simulator = PatsySimulator(small_test_config())
    with pytest.raises(TraceError):
        simulator.replay_stream([])
    with pytest.raises(TraceError):
        PatsySimulator(small_test_config()).replay(iter([]))


def test_streaming_replay_honours_max_time():
    trace = replay_trace()
    cutoff = trace[len(trace) // 2].timestamp
    materialised = PatsySimulator(small_test_config(seed=5)).replay(trace, max_time=cutoff)
    streaming = PatsySimulator(small_test_config(seed=5)).replay_stream(trace, max_time=cutoff)
    assert streaming.operations == materialised.operations
    assert streaming.latency.summary() == materialised.latency.summary()


def test_per_client_latency_surfaced_in_summary():
    result = PatsySimulator(small_test_config(seed=5)).replay(replay_trace())
    per_client = result.summary()["per_client_latency"]
    assert set(per_client) == {record.client for record in replay_trace()}
    for stats in per_client.values():
        assert stats["operations"] > 0
        assert stats["median_latency"] <= stats["p95_latency"] <= stats["p99_latency"]
    assert sum(stats["operations"] for stats in per_client.values()) == result.operations


# --------------------------------------------------------------------------- trace iterators


def test_iter_trace_matches_load_trace(tmp_path):
    trace_path = tmp_path / "trace.tsv"
    records = replay_trace(scale=0.05)
    save_trace(records, trace_path)
    assert list(iter_trace(trace_path)) == load_trace(trace_path)


def test_iter_trace_tuples_matches_records(tmp_path):
    trace_path = tmp_path / "trace.tsv"
    records = replay_trace(scale=0.05)
    save_trace(records, trace_path)
    loaded = load_trace(trace_path)
    tuples = list(iter_trace_tuples(trace_path))
    assert len(tuples) == len(loaded)
    for parsed, record in zip(tuples, loaded):
        assert parsed == (
            record.timestamp,
            record.client,
            record.op,
            record.path,
            record.offset,
            record.size,
            record.path2,
        )


def test_scan_trace_clients(tmp_path):
    trace_path = tmp_path / "trace.tsv"
    records = replay_trace(scale=0.05)
    save_trace(records, trace_path)
    assert scan_trace_clients(trace_path) == sorted({r.client for r in records})


def test_stream_synthesize_missing_times_matches_batch():
    for name in ("1a", "1b", "5"):
        records = sprite_like_trace(name, scale=0.05, seed=3)
        records.sort(key=lambda record: record.timestamp)
        assert list(stream_synthesize_missing_times(records)) == synthesize_missing_times(
            records
        )


def test_stream_synthesize_reopen_keeps_abandoned_bracket():
    # A re-open without a close abandons the first bracket; its records must
    # still come through (matching the batch behaviour) instead of vanishing.
    records = [
        TraceRecord(0.0, 0, "open", "/f"),
        TraceRecord(0.5, 0, "read", "/f", size=10),
        TraceRecord(1.0, 0, "open", "/f"),
        TraceRecord(1.5, 0, "read", "/f", size=10),
        TraceRecord(2.0, 0, "close", "/f"),
    ]
    streamed = list(stream_synthesize_missing_times(records))
    assert len(streamed) == len(records)
    assert streamed == synthesize_missing_times(records)


def test_demux_early_finishing_client_does_not_buffer_the_tail():
    # Client 1's only record is at the very start; once it is done, its
    # final pull must not drag the whole remaining trace into memory.
    records = [TraceRecord(0.0, 1, "stat", "/early")]
    records += [
        TraceRecord(0.001 * (i + 1), 0, "stat", f"/f{i % 7}") for i in range(2_000)
    ]
    result = PatsySimulator(small_test_config(seed=2)).replay_stream(records)
    assert result.operations == len(records)
    assert result.stream_stats["peak_buffered_records"] < 100


def test_stream_synthesize_handles_unclosed_bracket():
    records = [
        TraceRecord(0.0, 0, "open", "/f"),
        TraceRecord(0.0, 0, "read", "/f", size=10),
        TraceRecord(1.0, 1, "stat", "/g"),
    ]
    streamed = list(stream_synthesize_missing_times(records))
    assert sorted(streamed, key=lambda r: (r.timestamp, r.client)) == sorted(
        synthesize_missing_times(records), key=lambda r: (r.timestamp, r.client)
    )


SPRITE_TEXT = """
0.000 host1.100 open /usr/data/file1 0 0
0.100 host1.100 read /usr/data/file1 0 8192
0.200 host1.100 close /usr/data/file1
0.500 host2.200 create /tmp/scratch
0.600 host2.200 write /tmp/scratch 0 4096
0.700 host2.200 remove /tmp/scratch
"""

CODA_TEXT = """
0.000 clientA vol7 open /doc/report 0 0
0.250 clientA vol7 read /doc/report 0 1024
0.500 clientA vol7 close /doc/report
"""


def test_iter_sprite_trace_matches_load(tmp_path):
    path = tmp_path / "sprite.trace"
    path.write_text(SPRITE_TEXT)
    assert list(iter_sprite_trace(path)) == load_sprite_trace(path)
    assert list(iter_sprite_trace(io.StringIO(SPRITE_TEXT))) == load_sprite_trace(
        io.StringIO(SPRITE_TEXT)
    )


def test_iter_coda_trace_matches_load(tmp_path):
    path = tmp_path / "coda.trace"
    path.write_text(CODA_TEXT)
    assert list(iter_coda_trace(path)) == load_coda_trace(path)


def test_streaming_replay_of_sprite_iterator(tmp_path):
    path = tmp_path / "sprite.trace"
    path.write_text(SPRITE_TEXT)
    result = PatsySimulator(small_test_config(seed=1)).replay(iter_sprite_trace(path))
    assert result.operations == len(load_sprite_trace(path))
    assert result.errors == 0
