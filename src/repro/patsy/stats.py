"""Plug-in statistics objects and constant-memory latency measurement.

"Detailed internal measurements are provided by plug-in statistics objects.
These plug-in statistics can be activated when the simulator is started and
they can provide standard statistics output with or without histograms.
Some of the standard detailed statistics objects include histograms of disk
queue sizes, cache statistics, and disk rotational delay statistics."

The plug-ins below read counters that the core components already maintain
(driver queue samples, disk model rotational delays, cache statistics, bus
contention) and turn them into report dictionaries and ASCII histograms.

The :class:`LatencyRecorder` is the "general simulation class" measurement
store: per-operation latencies, means, percentiles and CDFs, reported every
15 minutes of simulation time and for the whole run.  Memory is constant in
the number of operations: latencies land in fixed-size log-bucketed
histograms (one global, one per operation type, one per client), an exact
prefix window keeps small runs bit-exact, and quantiles beyond the window
come from histogram interpolation (bucket ratio 1.02, so relative error is
bounded by 2%).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_right
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.cdf import downsample_cdf
from repro.errors import InvalidArgument
from repro.units import human_time

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.patsy.simulator import PatsySimulator

__all__ = [
    "Histogram",
    "LatencyRecorder",
    "LatencyShard",
    "StatisticsPlugin",
    "DiskQueuePlugin",
    "RotationalDelayPlugin",
    "CachePlugin",
    "BusPlugin",
    "DEFAULT_PLUGINS",
]


class Histogram:
    """A fixed-bucket histogram (linear or logarithmic buckets).

    Generated (linear / log-scale) geometries locate buckets arithmetically
    in O(1); explicitly supplied bounds fall back to a ``bisect`` lookup.
    """

    def __init__(
        self,
        bucket_bounds: Optional[Sequence[float]] = None,
        low: float = 0.0,
        high: float = 1.0,
        buckets: int = 20,
        log_scale: bool = False,
    ):
        self._kind = "explicit"
        self._low = low
        self._inv_step = 0.0
        self._log_low = 0.0
        self._inv_log_ratio = 0.0
        if bucket_bounds is not None:
            bounds = list(bucket_bounds)
            # Validate sortedness pairwise instead of building a sorted copy.
            if not bounds or any(
                bounds[i] > bounds[i + 1] for i in range(len(bounds) - 1)
            ):
                raise InvalidArgument("histogram bucket bounds must be sorted and non-empty")
            self.bounds = bounds
        elif log_scale:
            if low <= 0:
                raise InvalidArgument("log-scale histograms need a positive lower bound")
            ratio = (high / low) ** (1.0 / buckets)
            self.bounds = [low * ratio**i for i in range(1, buckets + 1)]
            if ratio > 1.0:
                self._kind = "log"
                self._log_low = math.log(low)
                self._inv_log_ratio = 1.0 / math.log(ratio)
        else:
            step = (high - low) / buckets
            self.bounds = [low + step * i for i in range(1, buckets + 1)]
            if step > 0:
                self._kind = "linear"
                self._inv_step = 1.0 / step
        self.counts = [0] * (len(self.bounds) + 1)  # last bucket = overflow
        self.total = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def _bucket_index(self, value: float) -> int:
        """Index of the bucket for ``value``: the number of bounds <= value
        (identical to ``bisect_right``), computed arithmetically when the
        bucket geometry allows it."""
        bounds = self.bounds
        kind = self._kind
        if kind == "linear":
            guess = int((value - self._low) * self._inv_step)
        elif kind == "log":
            if value <= 0:
                return 0
            guess = int((math.log(value) - self._log_low) * self._inv_log_ratio)
        else:
            return bisect_right(bounds, value)
        n = len(bounds)
        if guess < 0:
            guess = 0
        elif guess > n:
            guess = n
        # The arithmetic guess can be off by one at bucket edges because of
        # floating-point rounding; nudge it until it matches bisect_right.
        while guess < n and bounds[guess] <= value:
            guess += 1
        while guess > 0 and bounds[guess - 1] > value:
            guess -= 1
        return guess

    def add(self, value: float) -> None:
        index = self._bucket_index(value)
        self.counts[index] += 1
        self.total += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def add_all(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def to_ascii(self, width: int = 40, label: str = "") -> str:
        """Render the histogram as text (one row per bucket)."""
        lines = [f"histogram {label} (n={self.total}, mean={self.mean:.6g})"]
        peak = max(self.counts) if self.total else 1
        lower = 0.0
        for index, count in enumerate(self.counts):
            if index < len(self.bounds):
                upper_text = f"{self.bounds[index]:.4g}"
            else:
                upper_text = "inf"
            bar = "#" * int(round(width * count / peak)) if peak else ""
            lines.append(f"  [{lower:>10.4g}, {upper_text:>10}) {count:>8} {bar}")
            if index < len(self.bounds):
                lower = self.bounds[index]
        return "\n".join(lines)


# --------------------------------------------------------------------------- streaming quantiles

#: shared log-bucket geometry for every latency shard: buckets span
#: [1 ns, ~21 000 s] with a 2% geometric step, so quantile interpolation is
#: accurate to ~2% anywhere a simulated latency can land.  Exact zeros (an
#: operation completing without consuming virtual time) are counted apart.
_BUCKET_RATIO = 1.02
_BUCKET_LOW = 1e-9
_NBUCKETS = 1536
_log = math.log
_LOG_LOW = _log(_BUCKET_LOW)
_LOG_RATIO = math.log(_BUCKET_RATIO)
_INV_LOG_RATIO = 1.0 / _LOG_RATIO
_TOP_BUCKET = _NBUCKETS - 1


def _bucket_value(index: int, frac: float = 0.5) -> float:
    """Representative value inside bucket ``index`` (geometric position)."""
    return _BUCKET_LOW * math.exp(_LOG_RATIO * (index + frac))


class LatencyShard:
    """Constant-memory latency aggregate: count, sum, min/max and a
    fixed-size log-bucketed histogram.  One shard exists per recorder, per
    operation type and per client; all three share a single bucket-index
    computation per recorded latency."""

    __slots__ = ("n", "total", "zeros", "minv", "maxv", "counts")

    def __init__(self) -> None:
        self.n = 0
        self.total = 0.0
        self.zeros = 0
        self.minv = math.inf
        self.maxv = -math.inf
        self.counts = [0] * _NBUCKETS

    # -- aggregate views -----------------------------------------------------

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0

    @property
    def min(self) -> float:
        return self.minv if self.n else 0.0

    @property
    def max(self) -> float:
        return self.maxv if self.n else 0.0

    def quantile(self, fraction: float) -> float:
        """The ``fraction``-th quantile, interpolated geometrically inside
        the containing bucket (relative error bounded by the bucket ratio)."""
        if self.n == 0:
            return 0.0
        if not (0.0 <= fraction <= 1.0):
            raise InvalidArgument("percentile fraction must be in [0, 1]")
        # Rank semantics match the exact path: the k-th smallest value with
        # k = clamp(ceil(fraction * n), 1, n).
        rank = int(math.ceil(fraction * self.n))
        rank = min(max(rank, 1), self.n)
        if rank <= self.zeros:
            return 0.0
        remaining = rank - self.zeros
        counts = self.counts
        for index in range(_NBUCKETS):
            count = counts[index]
            if count == 0:
                continue
            if remaining <= count:
                value = _bucket_value(index, remaining / count)
                return min(max(value, self.minv), self.maxv)
            remaining -= count
        return self.maxv  # pragma: no cover - ranks always land in a bucket

    def fraction_at_or_below(self, threshold: float) -> float:
        if self.n == 0:
            return 0.0
        if threshold < 0.0:
            return 0.0
        covered = self.zeros
        if threshold > 0.0:
            edge = (math.log(threshold) - _LOG_LOW) * _INV_LOG_RATIO
            if edge < 0.0:
                edge = 0.0  # below bucket 0: no partial-bucket coverage
            whole = int(edge)
            if whole > _NBUCKETS:
                whole = _NBUCKETS
            counts = self.counts
            for index in range(whole):
                covered += counts[index]
            if whole < _NBUCKETS:
                covered += counts[whole] * (edge - whole)
        if threshold >= self.maxv:
            return 1.0
        return min(covered / self.n, 1.0)

    def cdf(self, points: int = 200) -> List[Tuple[float, float]]:
        """(latency, cumulative fraction) pairs from the occupied buckets."""
        if self.n == 0:
            return []
        pairs: List[Tuple[float, float]] = []
        cumulative = 0
        if self.zeros:
            cumulative = self.zeros
            pairs.append((0.0, cumulative / self.n))
        counts = self.counts
        for index in range(_NBUCKETS):
            count = counts[index]
            if count == 0:
                continue
            cumulative += count
            value = min(_bucket_value(index, 1.0), self.maxv)
            pairs.append((value, cumulative / self.n))
        return downsample_cdf(pairs, points)

    def reconstructed_values(self) -> List[float]:
        """An ascending latency list with this shard's distribution (bucket
        midpoints repeated by count) — for plotting code that wants raw
        values.  O(n) transient output, O(1) retained state."""
        values = [0.0] * self.zeros
        counts = self.counts
        for index in range(_NBUCKETS):
            count = counts[index]
            if count:
                values.extend([min(max(_bucket_value(index), self.minv), self.maxv)] * count)
        return values

    def summary(self) -> dict:
        return {
            "operations": self.n,
            "mean_latency": self.mean,
            "median_latency": self.quantile(0.5),
            "p95_latency": self.quantile(0.95),
            "p99_latency": self.quantile(0.99),
        }


# --------------------------------------------------------------------------- the recorder


class LatencyRecorder:
    """Collects per-operation latencies and summarises them.

    This is the measurement half of the paper's "general simulation class":
    it "measures how long it takes before an operation completes", reports
    every 15 minutes of simulation time, and for the overall simulation.

    Memory is constant in the number of recorded operations.  The first
    ``exact_window`` latencies are additionally kept verbatim; while the
    whole run fits in that window every query (percentiles, CDFs, fraction
    thresholds) is answered exactly, which keeps small unit-test runs
    bit-identical to the pre-streaming recorder.  Past the window, answers
    come from the fixed-size log-bucketed shards (<= 2% relative error).
    """

    #: how many leading samples are kept verbatim for exact small-run answers.
    DEFAULT_EXACT_WINDOW = 8192

    def __init__(
        self,
        report_interval: float = 900.0,
        exact_window: int = DEFAULT_EXACT_WINDOW,
    ):
        self.report_interval = report_interval
        self.exact_window = exact_window
        self.interval_reports: List[dict] = []
        self._interval_start = 0.0
        self._interval_end = report_interval
        self._interval_count = 0
        self._interval_sum = 0.0
        #: global aggregate plus one shard per operation type and per client.
        self.overall = LatencyShard()
        self.op_shards: Dict[str, LatencyShard] = {}
        self.client_shards: Dict[int, LatencyShard] = {}
        #: exact (latency, op, client) prefix; capped at ``exact_window``.
        self._window: List[Tuple[float, str, int]] = []

    # -- recording ---------------------------------------------------------------

    def record(self, start_time: float, op: str, latency: float, client: int = 0) -> None:
        # One bucket-index computation feeds the global, per-op and
        # per-client shards: this is the replay hot path, kept unrolled —
        # looping over a shard tuple costs ~15% of the 1M-op pipeline
        # benchmark's streaming throughput.
        if latency > 0.0:
            index = int((_log(latency) - _LOG_LOW) * _INV_LOG_RATIO)
            if index < 0:
                index = 0
            elif index > _TOP_BUCKET:
                index = _TOP_BUCKET
        else:
            index = -1
        shard = self.overall
        shard.n += 1
        shard.total += latency
        if latency < shard.minv:
            shard.minv = latency
        if latency > shard.maxv:
            shard.maxv = latency
        if index >= 0:
            shard.counts[index] += 1
        else:
            shard.zeros += 1
        try:
            shard = self.op_shards[op]
        except KeyError:
            shard = self.op_shards[op] = LatencyShard()
        shard.n += 1
        shard.total += latency
        if latency < shard.minv:
            shard.minv = latency
        if latency > shard.maxv:
            shard.maxv = latency
        if index >= 0:
            shard.counts[index] += 1
        else:
            shard.zeros += 1
        try:
            shard = self.client_shards[client]
        except KeyError:
            shard = self.client_shards[client] = LatencyShard()
        shard.n += 1
        shard.total += latency
        if latency < shard.minv:
            shard.minv = latency
        if latency > shard.maxv:
            shard.maxv = latency
        if index >= 0:
            shard.counts[index] += 1
        else:
            shard.zeros += 1
        # Interval reports: close any interval(s) the clock has passed.
        if start_time >= self._interval_end:
            while start_time >= self._interval_end:
                self._close_interval()
        self._interval_count += 1
        self._interval_sum += latency
        window = self._window
        if len(window) < self.exact_window:
            window.append((latency, op, client))

    def finish(self) -> None:
        """Close the trailing reporting interval."""
        if self._interval_count:
            self._close_interval()

    def _close_interval(self) -> None:
        count = self._interval_count
        self.interval_reports.append(
            {
                "start": self._interval_start,
                "end": self._interval_start + self.report_interval,
                "operations": count,
                "mean_latency": self._interval_sum / count if count else 0.0,
            }
        )
        self._interval_count = 0
        self._interval_sum = 0.0
        self._interval_start += self.report_interval
        self._interval_end = self._interval_start + self.report_interval

    # -- introspection ------------------------------------------------------------

    @property
    def count(self) -> int:
        return self.overall.n

    @property
    def window_is_exact(self) -> bool:
        """True while every recorded sample still fits in the exact window."""
        return self.overall.n <= self.exact_window

    @property
    def retained_samples(self) -> int:
        """Number of verbatim samples held (bounded by ``exact_window``);
        the O(1)-memory guarantee the throughput benchmark asserts."""
        return len(self._window)

    def client_ids(self) -> List[int]:
        return sorted(self.client_shards)

    def _shard(self, op: Optional[str]) -> Optional[LatencyShard]:
        if op is None:
            return self.overall
        return self.op_shards.get(op)

    # -- summaries ------------------------------------------------------------------

    def latencies(self, op: Optional[str] = None) -> List[float]:
        """Recorded latencies (exact while the run fits the window; a
        distribution-preserving reconstruction from the shard buckets
        afterwards — suitable for CDF tables and plots)."""
        if self.window_is_exact:
            if op is None:
                return [latency for latency, _, _ in self._window]
            return [
                latency for latency, sample_op, _ in self._window if sample_op == op
            ]
        shard = self._shard(op)
        return shard.reconstructed_values() if shard is not None else []

    def mean_latency(self, op: Optional[str] = None) -> float:
        shard = self._shard(op)
        return shard.mean if shard is not None else 0.0

    def percentile(self, fraction: float, op: Optional[str] = None) -> float:
        shard = self._shard(op)
        if shard is None or shard.n == 0:
            return 0.0
        if not (0.0 <= fraction <= 1.0):
            raise InvalidArgument("percentile fraction must be in [0, 1]")
        if self.window_is_exact:
            values = sorted(self.latencies(op))
            index = min(int(math.ceil(fraction * len(values))) - 1, len(values) - 1)
            return values[max(index, 0)]
        return shard.quantile(fraction)

    def cdf(self, op: Optional[str] = None, points: int = 200) -> List[Tuple[float, float]]:
        """(latency, cumulative fraction) pairs for plotting a CDF."""
        if self.window_is_exact:
            values = sorted(self.latencies(op))
            if not values:
                return []
            pairs = [(value, (i + 1) / len(values)) for i, value in enumerate(values)]
            return downsample_cdf(pairs, points)
        shard = self._shard(op)
        return shard.cdf(points) if shard is not None else []

    def fraction_completed_within(self, latency: float, op: Optional[str] = None) -> float:
        shard = self._shard(op)
        if shard is None or shard.n == 0:
            return 0.0
        if self.window_is_exact:
            values = self.latencies(op)
            if not values:
                return 0.0
            return sum(1 for value in values if value <= latency) / len(values)
        return shard.fraction_at_or_below(latency)

    def per_operation_means(self) -> Dict[str, float]:
        return {op: self.op_shards[op].mean for op in sorted(self.op_shards)}

    def per_client_summary(self) -> Dict[int, dict]:
        """Per-client operation counts, means and latency percentiles
        (the sharded recorders make these free)."""
        if self.window_is_exact:
            by_client: Dict[int, List[float]] = {}
            for latency, _, client in self._window:
                by_client.setdefault(client, []).append(latency)
            out: Dict[int, dict] = {}
            for client in sorted(by_client):
                values = sorted(by_client[client])
                n = len(values)

                def exact(fraction: float) -> float:
                    index = min(int(math.ceil(fraction * n)) - 1, n - 1)
                    return values[max(index, 0)]

                out[client] = {
                    "operations": n,
                    "mean_latency": sum(values) / n,
                    "median_latency": exact(0.5),
                    "p95_latency": exact(0.95),
                    "p99_latency": exact(0.99),
                }
            return out
        return {client: self.client_shards[client].summary() for client in self.client_ids()}

    def summary(self) -> dict:
        return {
            "operations": self.count,
            "mean_latency": self.mean_latency(),
            "median_latency": self.percentile(0.5),
            "p95_latency": self.percentile(0.95),
            "p99_latency": self.percentile(0.99),
            "per_operation": self.per_operation_means(),
        }

    def describe(self) -> str:
        summary = self.summary()
        lines = [
            f"operations: {summary['operations']}",
            f"mean latency: {human_time(summary['mean_latency'])}",
            f"median latency: {human_time(summary['median_latency'])}",
            f"95th percentile: {human_time(summary['p95_latency'])}",
        ]
        for op, mean in summary["per_operation"].items():
            lines.append(f"  {op:>10}: {human_time(mean)}")
        if len(self.client_shards) > 1:
            lines.append("per-client:")
            for client, stats in self.per_client_summary().items():
                lines.append(
                    f"  client {client}: {stats['operations']} ops, "
                    f"mean {human_time(stats['mean_latency'])}, "
                    f"p95 {human_time(stats['p95_latency'])}"
                )
        return "\n".join(lines)


# --------------------------------------------------------------------------- plug-ins


class StatisticsPlugin(ABC):
    """A pluggable statistics collector activated when the simulator starts."""

    name = "abstract"

    @abstractmethod
    def collect(self, simulator: "PatsySimulator") -> dict:
        """Produce this plug-in's report from the simulator's components."""

    def histogram(self, simulator: "PatsySimulator") -> Optional[Histogram]:
        """Optional histogram view (None when not applicable)."""
        return None


class DiskQueuePlugin(StatisticsPlugin):
    """Histogram of disk queue lengths seen by arriving requests."""

    name = "disk-queues"

    def collect(self, simulator: "PatsySimulator") -> dict:
        per_disk = {}
        for driver in simulator.drivers:
            samples = driver.stats.queue_length_samples
            per_disk[driver.name] = {
                "operations": driver.stats.operations,
                "mean_queue_length": driver.stats.mean_queue_length(),
                "max_queue_length": max(samples) if samples else 0,
                "mean_response_time": driver.stats.mean_response_time(),
            }
        return {"disks": per_disk}

    def histogram(self, simulator: "PatsySimulator") -> Histogram:
        histogram = Histogram(bucket_bounds=[0, 1, 2, 4, 8, 16, 32, 64])
        for driver in simulator.drivers:
            histogram.add_all(driver.stats.queue_length_samples)
        return histogram


class RotationalDelayPlugin(StatisticsPlugin):
    """Histogram of rotational delays charged by the disk models."""

    name = "rotational-delay"

    def collect(self, simulator: "PatsySimulator") -> dict:
        per_disk = {}
        for disk in simulator.disks:
            per_disk[disk.name] = {
                "requests": disk.stats.requests,
                "cache_read_hits": disk.stats.cache_read_hits,
                "immediate_writes": disk.stats.immediate_writes,
                "mean_rotational_delay": disk.stats.mean_rotational_delay(),
                "total_seek_time": disk.stats.total_seek_time,
            }
        return {"disks": per_disk}

    def histogram(self, simulator: "PatsySimulator") -> Histogram:
        rotation = simulator.disks[0].spec.rotation_time if simulator.disks else 0.015
        histogram = Histogram(low=0.0, high=rotation, buckets=15)
        for disk in simulator.disks:
            histogram.add_all(disk.stats.rotational_delays)
        return histogram


class CachePlugin(StatisticsPlugin):
    """File-system cache statistics (hit rates, write savings, stalls)."""

    name = "cache"

    def collect(self, simulator: "PatsySimulator") -> dict:
        return {"cache": simulator.cache.stats.snapshot()}


class BusPlugin(StatisticsPlugin):
    """SCSI bus utilisation and contention."""

    name = "bus"

    def collect(self, simulator: "PatsySimulator") -> dict:
        elapsed = max(simulator.scheduler.now, 1e-9)
        buses = {}
        for bus in simulator.buses:
            buses[bus.name] = {
                "transfers": bus.transfers,
                "bytes": bus.bytes_transferred,
                "utilisation": bus.utilisation(elapsed),
                "mean_wait_time": bus.mean_wait_time,
            }
        return {"buses": buses}


DEFAULT_PLUGINS = (DiskQueuePlugin, RotationalDelayPlugin, CachePlugin, BusPlugin)
