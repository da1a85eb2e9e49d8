"""Trace replay: every source through one per-client pull, the trace
iterators, client scanning, missing-time synthesis and bounded buffering."""

import io

import pytest

import repro.patsy.simulator as simulator_module
import repro.patsy.traces as traces_module
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
    scan_trace_client_counts,
    synthesize_missing_times,
)


def replay_trace(seed=5, scale=0.12):
    trace = sprite_like_trace("1a", scale=scale, seed=seed)
    trace.sort(key=lambda record: record.timestamp)
    return trace


def saved_trace(tmp_path, records):
    """``records`` written to a trace file and read back: the path, and the
    records as the file holds them (timestamps rounded to microseconds)."""
    path = tmp_path / "trace.tsv"
    save_trace(records, path)
    return path, load_trace(path)


def replay_counting_buffered(monkeypatch, simulator, path):
    """Replay the trace at ``path``; returns the result and the most records
    the replay had read from the file but not yet executed."""
    peak = 0

    def counting_iter_trace(source):
        nonlocal peak
        for pulled, record in enumerate(iter_trace(source), start=1):
            peak = max(peak, pulled - simulator.latency.count)
            yield record

    monkeypatch.setattr(simulator_module, "iter_trace", counting_iter_trace)
    return simulator.replay(path), peak


# --------------------------------------------------------------------------- sources


def test_streaming_replay_matches_materialised_byte_for_byte(tmp_path):
    path, trace = saved_trace(tmp_path, replay_trace())

    def replay(source):
        return PatsySimulator(small_test_config(seed=5)).replay(source, trace_name="t")

    # A list and a path name their clients up front: the same threads start
    # in the same order and the whole summary (latency means, percentiles,
    # per-client shards) and every interval report are byte-identical.
    from_list = replay(trace)
    from_path = replay(str(path))
    assert from_path.summary() == from_list.summary()
    assert from_path.latency.interval_reports == from_list.latency.interval_reports
    # An open stream and a generator do not: a client's thread starts when
    # its first record is pulled.  The two agree with each other, and replay
    # every operation the list does.
    with open(path, encoding="utf-8") as stream:
        from_stream = replay(stream)
    from_generator = replay(record for record in trace)
    assert from_stream.summary() == from_generator.summary()
    assert from_generator.operations == from_list.operations == len(trace)
    assert from_generator.errors == from_list.errors


def test_streaming_replay_from_path_matches_materialised(tmp_path):
    path, trace = saved_trace(tmp_path, replay_trace(scale=0.05))
    from_list = PatsySimulator(small_test_config(seed=5)).replay(trace, max_time=20.0)
    from_path = PatsySimulator(small_test_config(seed=5)).replay(path, max_time=20.0)
    assert 0 < from_path.operations < len(trace)
    assert from_path.summary() == from_list.summary()


def test_streaming_replay_discovery_mode_runs_every_operation():
    trace = replay_trace()

    def generate():
        yield from trace

    discovered = PatsySimulator(small_test_config(seed=5)).replay(generate())
    assert discovered.operations == len(trace)
    assert set(discovered.per_client_latency()) == {r.client for r in trace}


def test_streaming_replay_bounded_buffering(tmp_path, monkeypatch):
    path, trace = saved_trace(tmp_path, replay_trace())
    simulator = PatsySimulator(small_test_config(seed=5))
    result, peak = replay_counting_buffered(monkeypatch, simulator, path)
    assert result.operations == len(trace)
    assert 0 < peak < len(trace) // 4


def test_streaming_replay_rejects_empty_trace(tmp_path):
    empty, _ = saved_trace(tmp_path, [])
    for source in ([], str(empty), io.StringIO(""), iter([])):
        with pytest.raises(TraceError, match="empty"):
            PatsySimulator(small_test_config()).replay(source)


def test_streaming_replay_honours_max_time():
    trace = replay_trace()
    cutoff = trace[len(trace) // 2].timestamp
    for source in (trace, iter(trace)):
        result = PatsySimulator(small_test_config(seed=5)).replay(source, max_time=cutoff)
        assert result.operations == sum(1 for r in trace if r.timestamp <= cutoff)


def test_replay_of_known_clients_ignores_how_they_interleave():
    # Each client replays its own records in their order; with the clients
    # known up front, where the trace puts one client's records relative to
    # another's changes what is parked, not what is replayed.
    trace = replay_trace(scale=0.05)
    by_client = sorted(trace, key=lambda record: record.client)
    assert by_client != trace
    interleaved = PatsySimulator(small_test_config(seed=5)).replay(trace)
    grouped = PatsySimulator(small_test_config(seed=5)).replay(by_client)
    assert grouped.summary() == interleaved.summary()


def test_replay_rejects_a_client_going_back_in_time(tmp_path):
    records = [
        TraceRecord(0.0, 0, "create", "/f"),
        TraceRecord(0.5, 1, "stat", "/"),
        TraceRecord(5.0, 0, "write", "/f", size=4096),
        TraceRecord(1.0, 0, "read", "/f", size=4096),
        TraceRecord(6.0, 0, "close", "/f"),
    ]
    path, _ = saved_trace(tmp_path, records)
    for source in (str(path), records, (record for record in records)):
        with pytest.raises(TraceError, match=r"client 0: record at t=1\.0 "):
            PatsySimulator(small_test_config()).replay(source)


def test_replay_closes_the_trace_file(tmp_path, monkeypatch):
    # No client pulls past its last record, so the reader never reaches the
    # end of the file by itself.
    path, trace = saved_trace(tmp_path, replay_trace(scale=0.05))
    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(traces_module, "open", recording_open, raising=False)
    result = PatsySimulator(small_test_config(seed=5)).replay(path)
    assert result.operations == len(trace)
    assert opened and all(stream.closed for stream in opened)


def test_per_client_latency_surfaced_in_summary():
    result = PatsySimulator(small_test_config(seed=5)).replay(replay_trace())
    per_client = result.summary()["per_client_latency"]
    assert set(per_client) == {record.client for record in replay_trace()}
    for stats in per_client.values():
        assert stats["operations"] > 0
        assert stats["median_latency"] <= stats["p95_latency"] <= stats["p99_latency"]
    assert sum(stats["operations"] for stats in per_client.values()) == result.operations


def test_demux_early_finishing_client_does_not_buffer_the_tail(tmp_path, monkeypatch):
    # Client 1's only record is at the very start; once it is done, its
    # final pull must not drag the whole remaining trace into memory.
    records = [TraceRecord(0.0, 1, "stat", "/early")]
    records += [
        TraceRecord(0.001 * (i + 1), 0, "stat", f"/f{i % 7}") for i in range(2_000)
    ]
    path, _ = saved_trace(tmp_path, records)
    simulator = PatsySimulator(small_test_config(seed=2))
    result, peak = replay_counting_buffered(monkeypatch, simulator, path)
    assert result.operations == len(records)
    assert peak < 100


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
    counts = scan_trace_client_counts(trace_path)
    assert sorted(counts) == sorted({r.client for r in records})
    assert counts == {c: sum(1 for r in records if r.client == c) for c in counts}


# --------------------------------------------------------------------------- missing times


def test_synthesize_missing_times_keeps_every_record_in_time_order():
    for name in ("1a", "1b", "5"):
        records = sprite_like_trace(name, scale=0.05, seed=3)
        records.sort(key=lambda record: record.timestamp)
        fixed = list(synthesize_missing_times(records))
        times = [record.timestamp for record in fixed]
        assert times == sorted(times)
        # Only timestamps move: every record comes out once.
        def untimed(trace):
            return sorted(
                (r.client, r.op, r.path, r.offset, r.size, r.path2) for r in trace
            )

        assert untimed(fixed) == untimed(records)


def test_stream_synthesize_reopen_keeps_abandoned_bracket():
    # A re-open without a close abandons the first bracket; its records pass
    # through unadjusted instead of vanishing, and the second bracket's
    # untimed read is spaced between its open and close.
    records = [
        TraceRecord(0.0, 0, "open", "/f"),
        TraceRecord(0.5, 0, "read", "/f", size=10),
        TraceRecord(1.0, 0, "open", "/f"),
        TraceRecord(1.0, 0, "read", "/f", size=10),
        TraceRecord(2.0, 0, "close", "/f"),
    ]
    streamed = list(synthesize_missing_times(records))
    assert streamed == [
        records[0],
        records[1],
        records[2],
        records[3].shifted(0.5),
        records[4],
    ]


def test_stream_synthesize_handles_unclosed_bracket():
    # At the end of the trace an unclosed bracket passes through unadjusted,
    # in time order with what is still held back, and behind the records of
    # its own timestamp that were released before it (the tie order).
    records = [
        TraceRecord(0.0, 0, "open", "/f"),
        TraceRecord(0.0, 0, "read", "/f", size=10),
        TraceRecord(0.0, 1, "stat", "/g"),
        TraceRecord(1.0, 1, "stat", "/g"),
    ]
    streamed = list(synthesize_missing_times(records))
    assert streamed == [records[2], records[0], records[1], records[3]]


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
    records = list(iter_sprite_trace(path))
    assert [r.op for r in records] == ["open", "read", "close", "create", "write", "unlink"]
    assert list(iter_sprite_trace(io.StringIO(SPRITE_TEXT))) == records
    assert load_sprite_trace(io.StringIO(SPRITE_TEXT)) == records


def test_iter_coda_trace_matches_load(tmp_path):
    path = tmp_path / "coda.trace"
    path.write_text(CODA_TEXT)
    records = list(iter_coda_trace(path))
    assert [r.path for r in records] == ["/vol.vol7/doc/report"] * 3
    assert load_coda_trace(io.StringIO(CODA_TEXT)) == records


def test_streaming_replay_of_sprite_iterator(tmp_path):
    path = tmp_path / "sprite.trace"
    path.write_text(SPRITE_TEXT)
    result = PatsySimulator(small_test_config(seed=1)).replay(iter_sprite_trace(path))
    assert result.operations == len(load_sprite_trace(path))
    assert result.errors == 0
