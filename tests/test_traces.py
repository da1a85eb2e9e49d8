"""Trace records, readers/writers, missing-time synthesis and the Sprite/Coda
parsers."""

import io

import pytest

from repro.errors import TraceError
from repro.patsy.coda import load_coda_trace
from repro.patsy.sprite import SpriteTraceReader, load_sprite_trace
from repro.patsy.traces import (
    TraceReader,
    TraceRecord,
    TraceWriter,
    load_trace,
    operation_mix,
    save_trace,
    synthesize_missing_times,
    trace_duration,
)


def sample_records():
    return [
        TraceRecord(0.0, 0, "open", "/a"),
        TraceRecord(0.5, 0, "read", "/a", offset=0, size=4096),
        TraceRecord(1.0, 0, "close", "/a"),
        TraceRecord(0.2, 1, "stat", "/b"),
        TraceRecord(2.0, 1, "unlink", "/b"),
    ]


def test_record_validation():
    with pytest.raises(TraceError):
        TraceRecord(0.0, 0, "frobnicate", "/x")
    with pytest.raises(TraceError):
        TraceRecord(-1.0, 0, "read", "/x")
    with pytest.raises(TraceError):
        TraceRecord(0.0, 0, "read", "/x", size=-1)


def test_record_shifted():
    record = TraceRecord(1.0, 0, "read", "/x", size=10)
    shifted = record.shifted(2.5)
    assert shifted.timestamp == 3.5 and shifted.size == 10


def test_writer_reader_roundtrip(tmp_path):
    path = tmp_path / "trace.tsv"
    records = sample_records()
    assert save_trace(records, path) == len(records)
    loaded = load_trace(path)
    assert loaded == records


def test_reader_from_stream():
    stream = io.StringIO()
    TraceWriter(stream).write_all(sample_records())
    stream.seek(0)
    assert list(TraceReader(stream)) == sample_records()


def test_reader_rejects_malformed_lines():
    with pytest.raises(TraceError):
        TraceReader.parse_line("not\tenough\tfields", 1)


def test_trace_duration_and_mix():
    records = sample_records()
    assert trace_duration(records) == pytest.approx(2.0)
    mix = operation_mix(records)
    assert mix["read"] == 1 and mix["open"] == 1
    assert trace_duration([]) == 0.0


def test_synthesize_missing_times_spreads_operations():
    records = [
        TraceRecord(10.0, 0, "open", "/f"),
        TraceRecord(10.0, 0, "read", "/f", size=100),
        TraceRecord(10.0, 0, "read", "/f", offset=100, size=100),
        TraceRecord(13.0, 0, "close", "/f"),
    ]
    fixed = list(synthesize_missing_times(records))
    reads = [r for r in fixed if r.op == "read"]
    assert reads[0].timestamp == pytest.approx(11.0)
    assert reads[1].timestamp == pytest.approx(12.0)


SPRITE_TEXT = """
# a tiny sprite-like trace
0.000 host1.100 open /usr/data/file1 0 0
0.100 host1.100 read /usr/data/file1 0 8192
0.200 host1.100 close /usr/data/file1
0.500 host2.200 create /tmp/scratch
0.600 host2.200 write /tmp/scratch 0 4096
0.700 host2.200 remove /tmp/scratch
1.000 host1.100 rename /usr/data/file1 /usr/data/file2
"""


def test_sprite_reader_parses_ops_and_clients():
    records = list(SpriteTraceReader(io.StringIO(SPRITE_TEXT)))
    assert len(records) == 7
    assert records[0].op == "open"
    assert records[1].size == 8192
    assert records[5].op == "unlink"  # "remove" mapped
    assert records[6].op == "rename" and records[6].path2 == "/usr/data/file2"
    assert records[0].client != records[3].client


def test_sprite_reader_rejects_unknown_op():
    with pytest.raises(TraceError):
        list(SpriteTraceReader(io.StringIO("0.0 c1 teleport /x")))


def test_load_sprite_trace_from_file(tmp_path):
    path = tmp_path / "sprite.trace"
    path.write_text(SPRITE_TEXT)
    records = load_sprite_trace(path)
    assert len(records) == 7


CODA_TEXT = """
0.000 clientA vol7 open /doc/report 0 0
0.250 clientA vol7 read /doc/report 0 1024
0.500 clientA vol7 close /doc/report
"""


def test_coda_reader_folds_volume_into_path():
    records = load_coda_trace(io.StringIO(CODA_TEXT))
    assert records[0].path == "/vol.vol7/doc/report"
    assert records[1].size == 1024


def test_coda_reader_requires_volume_field():
    with pytest.raises(TraceError):
        load_coda_trace(io.StringIO("0.0 c open /x\n"))
