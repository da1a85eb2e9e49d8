"""LFS log cleaners.

"The log-cleaner can be replaced and is plugged into the LFS component when
the system starts up."  A cleaner policy decides *which* segments to clean;
the :class:`CleanerDaemon` is the thread that watches the free-segment level
and invokes the policy, copying live blocks forward through the normal log
append path (so cleaning generates ordinary disk traffic that shows up in
the statistics, exactly as in a real LFS).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Generator, Optional, Sequence, Set

from repro.assembly.registry import registry
from repro.core.scheduler import Scheduler, Thread
from repro.core.storage.lfs import LogStructuredLayout, SegmentInfo
from repro.errors import ConfigurationError, StorageError

__all__ = [
    "SegmentCleaner",
    "GreedyCleaner",
    "CostBenefitCleaner",
    "CleanerDaemon",
]


class SegmentCleaner(ABC):
    """Policy choosing which segment to clean next."""

    name = "abstract"

    @abstractmethod
    def choose(self, candidates: Sequence[SegmentInfo], now: float) -> Optional[SegmentInfo]:
        """Pick the best segment to clean (None when nothing is worth it)."""


class GreedyCleaner(SegmentCleaner):
    """Clean the segment with the fewest live blocks."""

    name = "greedy"

    def choose(self, candidates: Sequence[SegmentInfo], now: float) -> Optional[SegmentInfo]:
        if not candidates:
            return None
        return min(candidates, key=lambda info: info.live_blocks)


class CostBenefitCleaner(SegmentCleaner):
    """Rosenblum & Ousterhout's cost-benefit policy (the Sprite LFS model).

    Cleaning a segment costs reading it whole and writing back its live
    fraction (``cost = 1 + u``); it yields ``1 - u`` of a segment of free
    space whose *stability* is predicted by the age of the segment's data
    (cold data stays live, so space reclaimed from an old segment survives
    longer).  The policy maximises::

        benefit / cost = (1 - u) * (1 + age / age_scale) / (1 + u)

    ``age_scale`` is the utilisation-vs-age exchange rate: a segment
    ``age_scale`` seconds old is worth double a fresh one, so cold segments
    get cleaned at *higher* utilisation than hot ones — the behaviour that
    separates cost-benefit from greedy on hot/cold workloads, where greedy
    keeps re-cleaning hot segments whose blocks were about to die anyway
    (see ``benchmarks/test_ablation_cleaner.py``).  The ``1 +`` keeps
    age-zero ties ranked by utilisation, i.e. greedy behaviour until ages
    differentiate.
    """

    name = "cost-benefit"

    def __init__(self, age_scale: float = 30.0):
        if age_scale <= 0:
            raise ConfigurationError("age_scale must be positive")
        self.age_scale = age_scale

    def choose(self, candidates: Sequence[SegmentInfo], now: float) -> Optional[SegmentInfo]:
        if not candidates:
            return None

        def benefit(info: SegmentInfo) -> float:
            utilisation = info.utilisation
            if utilisation >= 1.0:
                return -1.0  # nothing to reclaim at any age
            age = max(now - info.modified_at, 0.0)
            return (1.0 - utilisation) * (1.0 + age / self.age_scale) / (1.0 + utilisation)

        return max(candidates, key=benefit)


class CleanerDaemon:
    """Background thread that keeps the LFS supplied with free segments."""

    def __init__(
        self,
        scheduler: Scheduler,
        layout: LogStructuredLayout,
        policy: SegmentCleaner,
        low_water: float = 0.2,
        high_water: float = 0.4,
        check_interval: float = 5.0,
        node: int = 0,
    ):
        if not (0.0 <= low_water < high_water <= 1.0):
            raise ConfigurationError("cleaner water marks must satisfy 0 <= low < high <= 1")
        self.scheduler = scheduler
        self.layout = layout
        self.policy = policy
        self.low_water = low_water
        self.high_water = high_water
        self.check_interval = check_interval
        self.node = node
        #: segments whose summary block could not be read or decoded: left
        #: unfreed (their live blocks are not known) and never chosen again.
        self.unreadable_segments: Set[int] = set()
        self.thread: Optional[Thread] = None

    def start(self) -> Thread:
        self.thread = self.scheduler.spawn(
            self._run, name="lfs-cleaner", daemon=True, node=self.node
        )
        return self.thread

    def _run(self) -> Generator[Any, Any, None]:
        while True:
            yield from self.scheduler.sleep(self.check_interval)
            if self.layout.free_segment_fraction >= self.low_water:
                continue
            yield from self.clean_until(self.high_water)

    def clean_until(self, target_fraction: float) -> Generator[Any, Any, int]:
        """Clean segments until the free fraction reaches ``target_fraction``.

        Returns the number of segments cleaned.  Also usable synchronously
        (outside the daemon) by tests and by the layout when it runs short.
        The layout counts what was cleaned and copied
        (``LayoutStatistics.cleaner_segments_cleaned`` / ``cleaner_blocks_copied``).
        """
        cleaned = 0
        while self.layout.free_segment_fraction < target_fraction:
            candidates = [
                info
                for info in self.layout.cleaner_candidates(self.scheduler.now)
                if info.index not in self.unreadable_segments
            ]
            victim = self.policy.choose(candidates, self.scheduler.now)
            if victim is None or victim.live_blocks >= victim.capacity:
                break  # a full segment frees nothing: copying it only churns
            try:
                yield from self.layout.clean_segment(victim.index)
            except StorageError:
                self.unreadable_segments.add(victim.index)
                continue
            cleaned += 1
        return cleaned


# "cleaner" factories take no arguments and return a SegmentCleaner, keyed
# by ``LayoutConfig.cleaner_policy``.
registry.register("cleaner", "greedy", GreedyCleaner)
registry.register("cleaner", "cost-benefit", CostBenefitCleaner)
