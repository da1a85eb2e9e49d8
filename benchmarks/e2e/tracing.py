"""Spans at the layer boundaries, recorded from the benchmark's own files.

For the duration of one traced day the public methods at each layer
boundary are replaced by timing wrappers; the originals are put back
afterwards.  The program's threads are generators driven by a cooperative
scheduler, so a wrapper times every resume → yield *step* of the call it
wraps, not the call's wall extent: between two steps some other thread
runs, and that time is not this call's.

While a step runs, the wrappers on its ``yield from`` chain are entered
outermost first and left innermost first, which makes one global stack of
open steps exact even though hundreds of threads interleave.  From it:

* ``host_self_s`` of a layer — its steps' host time minus the time of the
  steps nested inside them (another layer's work);
* ``sim_self_s`` — simulated time between a span's first resume and its
  return, minus the same for its child spans: where the operation *waited*;
* host time inside no span at all is the scheduler's (event loop, replay
  threads, trace parsing).

A call into the layer the caller is already in (a routing facade handing
to the concrete class, ``read`` handing to ``submit``) opens no new span.
A target that no longer exists is listed in :attr:`Tracer.absent`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: layer, module, class, methods.  Subclasses that override a method are
#: wrapped too (layouts and volumes are abstract at the named class).
TARGETS: List[Tuple[str, str, str, Tuple[str, ...]]] = [
    ("client", "repro.core.client", "AbstractClientInterface",
     ("open", "close", "create", "read", "write", "truncate_path", "fsync", "read_file",
      "write_file", "mkdir", "rmdir", "readdir", "unlink", "rename", "symlink", "stat", "sync")),
    ("nfs", "repro.pfs.nfs", "NfsClientInterface",
     ("nfs_getattr", "nfs_setattr", "nfs_lookup", "nfs_create", "nfs_mkdir", "nfs_remove",
      "nfs_rmdir", "nfs_rename", "nfs_readdir", "nfs_read", "nfs_write")),
    ("cache", "repro.core.cache", "BlockCache",
     ("lookup", "allocate", "mark_dirty", "invalidate", "invalidate_file")),
    ("flush", "repro.core.cache", "BlockCache",
     ("flush_block", "flush_file", "flush_oldest", "flush_all")),
    ("layout", "repro.core.storage.layout", "StorageLayout",
     ("read_file_block", "write_file_blocks", "read_inode", "write_inode", "release_blocks",
      "checkpoint")),
    ("volume", "repro.core.storage.volume", "Volume", ("read_run", "write_run", "flush")),
    # The service loop is where a driver (and the disk and bus models under
    # it) spends its host time; submit/read/write are where callers wait.
    ("driver", "repro.core.driver", "DiskDriver", ("submit", "read", "write", "_service_loop")),
    ("nic", "repro.core.cluster.network", "Nic", ("send",)),
    ("wal", "repro.core.metadata.wal", "WriteAheadLog", ("append", "maybe_sync")),
    ("recorder", "repro.patsy.stats", "LatencyRecorder", ("record", "finish")),
    ("datamover", "repro.core.datamover", "DataMover", ("copy_in", "copy_out", "charge")),
]

LAYERS = tuple(dict.fromkeys(layer for layer, _, _, _ in TARGETS))

#: spans kept verbatim for the Chrome trace (a day opens up to a million);
#: the per-layer totals always cover every span.
SPAN_CAP = 200_000


class LayerTotals:
    __slots__ = ("name", "calls", "host_self", "sim_self", "root_sim", "roots")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.host_self = 0.0
        self.sim_self = 0.0
        #: simulated duration (not self time) summed over spans with no parent.
        self.root_sim = 0.0
        self.roots = 0

    def frozen(self) -> "LayerTotals":
        copy = LayerTotals(self.name)
        for field in self.__slots__:
            setattr(copy, field, getattr(self, field))
        return copy


class _Span:
    __slots__ = ("totals", "parent", "host_start", "sim_start", "child_sim", "index")

    def __init__(self, totals: LayerTotals, parent: Optional["_Span"], host: float, sim: float, index: int):
        self.totals = totals
        self.parent = parent
        self.host_start = host
        self.sim_start = sim
        self.child_sim = 0.0
        self.index = index


def _family(cls: type) -> Iterator[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _family(sub)


class Tracer:
    """Collects spans for one traced day."""

    def __init__(self) -> None:
        self.layers: Dict[str, LayerTotals] = {name: LayerTotals(name) for name in LAYERS}
        self.absent: List[str] = []
        #: spans of the timed region, filled in by :meth:`stop`.
        self.spans: List[Tuple[str, int, float, float, float, float, int]] = []
        self._live_spans: List[Tuple[str, int, float, float, float, float, int]] = []
        self.opened = 0
        self.opened_in_region = 0
        self._stack: List[list] = []  # [span, step start, host time of nested steps]
        self._patched: List[Tuple[type, str, Any]] = []
        self._now: Callable[[], float] = lambda: 0.0
        self._epoch = perf_counter()

    # ------------------------------------------------------------------ installation

    def bind(self, scheduler: Any) -> None:
        """Read simulated time from the traced stack's ``scheduler``."""
        self._now = lambda: scheduler.now

    def start(self) -> None:
        """The timed region begins: forget what set-up did.  Spans still
        open (the drivers' service loops) keep collecting from here on."""
        for totals in self.layers.values():
            totals.calls = 0
            totals.host_self = totals.sim_self = totals.root_sim = 0.0
            totals.roots = 0
        self._live_spans.clear()
        self.opened = 0
        self._epoch = perf_counter()

    def stop(self) -> None:
        """The timed region is over: what the layers collected so far is the
        result, whatever unmounting and verification do afterwards."""
        self.layers = {name: totals.frozen() for name, totals in self.layers.items()}
        self.spans = list(self._live_spans)
        self.opened_in_region = self.opened

    def install(self) -> None:
        """Wrap the targets.  Call after the program has built one stack (so
        every concrete class is imported) and before the traced one is built
        (so threads started by constructors run the wrappers)."""
        for layer, module_name, class_name, methods in TARGETS:
            try:
                cls = getattr(importlib.import_module(module_name), class_name)
            except (ImportError, AttributeError):
                self.absent.extend(f"{layer}:{class_name}.{method}" for method in methods)
                continue
            for method in methods:
                owners = [k for k in _family(cls) if inspect.isfunction(vars(k).get(method))
                          and not getattr(vars(k)[method], "__isabstractmethod__", False)]
                if not owners:
                    self.absent.append(f"{layer}:{class_name}.{method}")
                for owner in owners:
                    original = vars(owner)[method]
                    self._patched.append((owner, method, original))
                    setattr(owner, method, self._wrap(original, self.layers[layer]))

    def uninstall(self) -> None:
        while self._patched:
            owner, method, original = self._patched.pop()
            setattr(owner, method, original)

    # ------------------------------------------------------------------ spans

    def _open(self, totals: LayerTotals) -> _Span:
        parent = self._stack[-1][0] if self._stack else None
        totals.calls += 1
        self.opened += 1
        return _Span(totals, parent, perf_counter(), self._now(), self.opened)

    def _close(self, span: _Span) -> None:
        sim_end = self._now()
        duration = sim_end - span.sim_start
        span.totals.sim_self += duration - span.child_sim
        if span.parent is not None:
            span.parent.child_sim += duration
        else:
            span.totals.root_sim += duration
            span.totals.roots += 1
        if len(self._live_spans) < SPAN_CAP:
            self._live_spans.append((
                span.totals.name, span.parent.index if span.parent is not None else 0,
                span.host_start - self._epoch, perf_counter() - self._epoch,
                span.sim_start, sim_end, span.index,
            ))

    def _wrap(self, fn: Callable, totals: LayerTotals) -> Callable:
        stack = self._stack
        open_span, close_span = self._open, self._close

        def leave(frame: list) -> None:
            elapsed = perf_counter() - frame[1]
            stack.pop()
            totals.host_self += elapsed - frame[2]
            if stack:
                stack[-1][2] += elapsed

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced(*args: Any, **kwargs: Any):
                if stack and stack[-1][0].totals is totals:
                    return (yield from fn(*args, **kwargs))
                generator = fn(*args, **kwargs)
                span = open_span(totals)
                value: Any = None
                pending: Optional[BaseException] = None
                try:
                    while True:
                        frame = [span, perf_counter(), 0.0]
                        stack.append(frame)
                        try:
                            if pending is None:
                                item = generator.send(value)
                            else:
                                error, pending = pending, None
                                item = generator.throw(error)
                        except StopIteration as stop:
                            return stop.value
                        finally:
                            leave(frame)
                        try:
                            value = yield item
                        except GeneratorExit:
                            generator.close()
                            raise
                        except BaseException as error:  # delivered to the wrapped call
                            pending = error
                finally:
                    close_span(span)

        else:

            @functools.wraps(fn)
            def traced(*args: Any, **kwargs: Any):
                if stack and stack[-1][0].totals is totals:
                    return fn(*args, **kwargs)
                span = open_span(totals)
                frame = [span, perf_counter(), 0.0]
                stack.append(frame)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(frame)
                    close_span(span)

        return traced

    # ------------------------------------------------------------------ results

    def host_in_spans(self) -> float:
        return sum(totals.host_self for totals in self.layers.values())

    def write_chrome_trace(self, path: Path) -> None:
        """Host-clock spans in the Chrome trace-event format (load in
        ``chrome://tracing`` or Perfetto): one row per layer, the simulated
        start/end and the parent span in ``args``."""
        rows = {name: index for index, name in enumerate(LAYERS, start=1)}
        events: List[dict] = [
            {"ph": "M", "pid": 1, "tid": tid, "name": "thread_name", "args": {"name": name}}
            for name, tid in rows.items()
        ]
        for layer, parent, start, end, sim_start, sim_end, index in self.spans:
            events.append({
                "ph": "X", "pid": 1, "tid": rows[layer], "name": layer, "id": index,
                "ts": round(start * 1e6, 3), "dur": round((end - start) * 1e6, 3),
                "args": {"parent": parent, "sim_start_s": sim_start, "sim_end_s": sim_end},
            })
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
