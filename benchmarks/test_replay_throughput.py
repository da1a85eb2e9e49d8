"""Replay-pipeline throughput: streaming loader + constant-memory recorder
vs the pre-streaming (materialise-everything) pipeline on a 1M-op trace.

The measured pipeline is the measurement hot path of a trace replay: parse
every record of an on-disk trace, group it per client, feed every operation
into the latency recorder and produce the end-of-run summary (mean, p50,
p95, p99, per-operation means).  The *legacy* side reproduces the pre-PR
implementation verbatim — one sample object (``_LegacySample``) per operation,
full-list sorts for every percentile; the *streaming* side is the current
code: tuple-parsing trace iteration into the log-bucketed
:class:`LatencyRecorder`.

The summaries and retained-object counts land in ``BENCH_replay.json`` at
the repository root (they repeat exactly); seconds, ops/s, speedup and the
traced memory peak go to the git-ignored ``BENCH_replay.host.json``, which
``check_replay_baseline.py`` gates on (opt-in).  The legacy-over-streaming
speedup is recorded there and not asserted: a ratio of two host timings, it
reads 1.3x to 3.5x on unchanged code with the machine's load.  Asserted
invariants:

* recorder memory is O(1) in the trace length (retained sample objects are
  identical for a 100k-op and a 1M-op run),
* streaming summary statistics agree with the exact legacy ones within the
  2% bucket resolution.
"""

from __future__ import annotations

import gc
import math
import time
import tracemalloc
from pathlib import Path

from benchmarks.conftest import run_once, write_results
from repro.patsy.stats import LatencyRecorder
from repro.patsy.traces import TraceReader, iter_trace_tuples

TRACE_OPS = 1_000_000
NUM_CLIENTS = 8

_OPS = ("open", "read", "read", "write", "stat", "write", "read", "close")
_BASE_LATENCY = {
    "open": 0.0021,
    "close": 0.0004,
    "read": 0.0043,
    "write": 0.0061,
    "stat": 0.0012,
}


def synthetic_latency(op: str, size: int, index: int) -> float:
    """Deterministic per-operation latency (no RNG in the timed loop)."""
    return _BASE_LATENCY[op] + (size & 4095) * 1e-8 + ((index * 2654435761) & 1023) * 2e-6


def write_trace(path: Path, operations: int) -> None:
    with open(path, "w", encoding="utf-8") as stream:
        stream.write("# repro-trace v1: timestamp\tclient\top\tpath\toffset\tsize\tpath2\n")
        chunk: list[str] = []
        for i in range(operations):
            op = _OPS[i & 7]
            chunk.append(
                f"{i * 0.001:.6f}\t{i % NUM_CLIENTS}\t{op}\t/data/f{i % 512}\t"
                f"{(i & 63) * 4096}\t{(i % 17) * 1024}\t"
            )
            if len(chunk) == 10_000:
                stream.write("\n".join(chunk) + "\n")
                chunk.clear()
        if chunk:
            stream.write("\n".join(chunk) + "\n")


# --------------------------------------------------------------------------- the pre-PR pipeline


class _LegacySample:
    __slots__ = ("start_time", "op", "latency", "client")

    def __init__(self, start_time, op, latency, client):
        self.start_time = start_time
        self.op = op
        self.latency = latency
        self.client = client


class _LegacyRecorder:
    """The pre-streaming LatencyRecorder, reproduced faithfully: one sample
    object per operation, percentiles by sorting the full latency list."""

    def __init__(self, report_interval: float = 900.0):
        self.report_interval = report_interval
        self.samples = []
        self.interval_reports = []
        self._interval_start = 0.0
        self._interval_samples = []

    def record(self, start_time, op, latency, client=0):
        sample = _LegacySample(start_time, op, latency, client)
        self.samples.append(sample)
        while start_time >= self._interval_start + self.report_interval:
            self._close_interval()
        self._interval_samples.append(sample)

    def finish(self):
        if self._interval_samples:
            self._close_interval()

    def _close_interval(self):
        samples = self._interval_samples
        latencies = [s.latency for s in samples]
        self.interval_reports.append(
            {
                "start": self._interval_start,
                "end": self._interval_start + self.report_interval,
                "operations": len(samples),
                "mean_latency": sum(latencies) / len(latencies) if latencies else 0.0,
            }
        )
        self._interval_samples = []
        self._interval_start += self.report_interval

    def latencies(self, op=None):
        if op is None:
            return [sample.latency for sample in self.samples]
        return [sample.latency for sample in self.samples if sample.op == op]

    def percentile(self, fraction, op=None):
        values = sorted(self.latencies(op))
        if not values:
            return 0.0
        index = min(int(math.ceil(fraction * len(values))) - 1, len(values) - 1)
        return values[max(index, 0)]

    def per_operation_means(self):
        ops = sorted({sample.op for sample in self.samples})
        means = {}
        for op in ops:
            values = self.latencies(op)
            means[op] = sum(values) / len(values) if values else 0.0
        return means

    def summary(self):
        values = self.latencies()
        return {
            "operations": len(self.samples),
            "mean_latency": sum(values) / len(values) if values else 0.0,
            "median_latency": self.percentile(0.5),
            "p95_latency": self.percentile(0.95),
            "p99_latency": self.percentile(0.99),
            "per_operation": self.per_operation_means(),
        }


def run_legacy_pipeline(trace_path: Path):
    """Materialise the trace, group per client, record, summarise — the
    pre-streaming pipeline, a whole-trace list sorted per client."""
    with open(trace_path, "r", encoding="utf-8") as stream:
        records = list(TraceReader(stream))
    streams: dict[int, list] = {}
    for record in records:
        streams.setdefault(record.client, []).append(record)
    for stream_records in streams.values():
        stream_records.sort(key=lambda record: record.timestamp)
    recorder = _LegacyRecorder()
    index = 0
    for client in sorted(streams):
        for record in streams[client]:
            recorder.record(
                record.timestamp,
                record.op,
                synthetic_latency(record.op, record.size, index),
                client,
            )
            index += 1
    recorder.finish()
    summary = recorder.summary()
    return summary, len(recorder.samples)


def run_streaming_pipeline(trace_path: Path, max_ops: int | None = None):
    """Stream the trace straight into the constant-memory recorder."""
    recorder = LatencyRecorder()
    record = recorder.record
    index = 0
    for timestamp, client, op, _path, _offset, size, _path2 in iter_trace_tuples(trace_path):
        record(timestamp, op, synthetic_latency(op, size, index), client)
        index += 1
        if max_ops is not None and index >= max_ops:
            break
    recorder.finish()
    return recorder.summary(), recorder.retained_samples


def compare_pipelines(trace_path: Path):
    # Pause the cyclic GC for the timed sections: when this benchmark runs
    # late in the full suite the accumulated live heap makes collection
    # pauses dominate the streaming loop's steady tuple allocation, skewing
    # the ratio by tens of percent between runs.
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        legacy_summary, legacy_retained = run_legacy_pipeline(trace_path)
        legacy_seconds = time.perf_counter() - start

        gc.collect()
        start = time.perf_counter()
        streaming_summary, streaming_retained = run_streaming_pipeline(trace_path)
        streaming_seconds = time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()

    # O(1)-memory check: a 10x shorter replay retains exactly as many
    # verbatim sample objects as the full one.
    _, short_retained = run_streaming_pipeline(trace_path, max_ops=TRACE_OPS // 10)

    tracemalloc.start()
    run_streaming_pipeline(trace_path, max_ops=TRACE_OPS // 10)
    _, traced_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    report = {
        "trace_ops": legacy_summary["operations"],
        "legacy": {"retained_sample_objects": legacy_retained},
        "streaming": {
            "retained_sample_objects": streaming_retained,
            "retained_at_tenth_length": short_retained,
        },
        "legacy_summary": {k: v for k, v in legacy_summary.items() if k != "per_operation"},
        "streaming_summary": {
            k: v for k, v in streaming_summary.items() if k != "per_operation"
        },
    }
    host = {
        "legacy": {
            "seconds": round(legacy_seconds, 3),
            "ops_per_sec": round(legacy_summary["operations"] / legacy_seconds),
        },
        "streaming": {
            "seconds": round(streaming_seconds, 3),
            "ops_per_sec": round(streaming_summary["operations"] / streaming_seconds),
            "peak_tracemalloc_bytes": traced_peak,
        },
        "speedup": round(legacy_seconds / streaming_seconds, 2),
    }
    return report, host


def test_replay_throughput(benchmark, tmp_path):
    trace_path = tmp_path / "replay-1m.tsv"
    write_trace(trace_path, TRACE_OPS)

    report, host = run_once(benchmark, compare_pipelines, trace_path)

    write_results("replay", report, host)
    print()
    print(
        f"legacy:    {host['legacy']['ops_per_sec']:>9} ops/s  "
        f"({report['legacy']['retained_sample_objects']} sample objects)"
    )
    print(
        f"streaming: {host['streaming']['ops_per_sec']:>9} ops/s  "
        f"({report['streaming']['retained_sample_objects']} sample objects, "
        f"peak traced {host['streaming']['peak_tracemalloc_bytes'] / 1e6:.1f} MB)"
    )
    print(f"speedup:   {host['speedup']}x  -> BENCH_replay.host.json")

    assert report["trace_ops"] == TRACE_OPS
    # The pre-PR-2 recorder+loader is the exact reference below, not a speed
    # to beat: host["speedup"] is a ratio of two host timings and is only
    # recorded (the host gate is benchmarks/check_replay_baseline.py).
    # Recorder memory is O(1) in trace length: the verbatim-sample count is
    # capped and does not grow between a 100k-op and a 1M-op replay.
    legacy_retained = report["legacy"]["retained_sample_objects"]
    streaming = report["streaming"]
    assert legacy_retained == TRACE_OPS
    assert streaming["retained_sample_objects"] <= LatencyRecorder.DEFAULT_EXACT_WINDOW
    assert streaming["retained_sample_objects"] == streaming["retained_at_tenth_length"]
    # Summary statistics: mean is exact, quantiles within the 2% bucket width.
    legacy_summary = report["legacy_summary"]
    streaming_summary = report["streaming_summary"]
    assert streaming_summary["operations"] == legacy_summary["operations"]
    # Means are computed from exact running sums; only float summation order
    # differs between the pipelines.
    assert math.isclose(
        streaming_summary["mean_latency"], legacy_summary["mean_latency"], rel_tol=1e-9
    )
    for key in ("median_latency", "p95_latency", "p99_latency"):
        assert abs(streaming_summary[key] - legacy_summary[key]) <= 0.02 * legacy_summary[key]
