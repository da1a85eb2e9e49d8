"""Disk-queue scheduling policies.

Disk drivers "can implement disk queue scheduling policies to optimize disk
I/O queue time (e.g. SCAN, C-SCAN, LOOK, C-LOOK) or guarantee real-time
delivery of data through algorithms such as scan-EDF" (Section 3).  The
production driver in the paper uses a combined read/write queue with C-LOOK
(``clook``, the default); ``fcfs`` is the no-scheduling reference the
ablation measures it against, and ``scan-edf`` orders by deadline.  The
component matrix (``BENCH_components.json``) measured LOOK, SCAN and C-SCAN
too: SCAN and C-SCAN were the same code as LOOK and C-LOOK, and LOOK won no
row, so all three were deleted; a derived :class:`IoScheduler` registered
under ``"iosched"`` brings any of them back without a core edit.

A queue scheduler holds pending :class:`~repro.core.driver.IORequest`
objects and, given the current head position (in sectors), decides which
request is serviced next.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, TYPE_CHECKING

from repro.assembly.registry import registry
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.driver import IORequest

__all__ = [
    "IoScheduler",
    "FcfsScheduler",
    "ClookScheduler",
    "ScanEdfScheduler",
]


class IoScheduler(ABC):
    """Orders pending I/O requests for one disk."""

    name = "abstract"

    def __init__(self) -> None:
        self._pending: list["IORequest"] = []

    def add(self, request: "IORequest") -> None:
        self._pending.append(request)

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def pending(self) -> tuple["IORequest", ...]:
        return tuple(self._pending)

    @abstractmethod
    def next(self, head_position: int) -> Optional["IORequest"]:
        """Remove and return the next request to service (None if empty)."""

    def _take(self, request: "IORequest") -> "IORequest":
        self._pending.remove(request)
        return request

    def __repr__(self) -> str:
        return f"{type(self).__name__}(pending={len(self._pending)})"


class FcfsScheduler(IoScheduler):
    """First-come first-served (no reordering)."""

    name = "fcfs"

    def next(self, head_position: int) -> Optional["IORequest"]:
        if not self._pending:
            return None
        return self._pending.pop(0)


class ClookScheduler(IoScheduler):
    """C-LOOK: service requests in ascending order, wrapping to the lowest
    pending sector after the highest one (the production driver's policy)."""

    name = "clook"

    def next(self, head_position: int) -> Optional["IORequest"]:
        if not self._pending:
            return None
        ahead = [r for r in self._pending if r.sector >= head_position]
        pool = ahead if ahead else self._pending
        chosen = min(pool, key=lambda r: r.sector)
        return self._take(chosen)


class ScanEdfScheduler(IoScheduler):
    """SCAN-EDF: earliest deadline first, with SCAN order among requests that
    share the earliest deadline class (Reddy & Wyllie).  Requests without a
    deadline are treated as having an infinite one."""

    name = "scan-edf"

    def __init__(self, deadline_granularity: float = 0.1) -> None:
        super().__init__()
        if deadline_granularity <= 0:
            raise ConfigurationError("deadline granularity must be positive")
        self.deadline_granularity = deadline_granularity

    def next(self, head_position: int) -> Optional["IORequest"]:
        if not self._pending:
            return None
        infinity = float("inf")

        def deadline_class(request: "IORequest") -> float:
            if request.deadline is None:
                return infinity
            return round(request.deadline / self.deadline_granularity)

        earliest = min(deadline_class(r) for r in self._pending)
        batch = [r for r in self._pending if deadline_class(r) == earliest]
        ahead = [r for r in batch if r.sector >= head_position]
        pool = ahead if ahead else batch
        chosen = min(pool, key=lambda r: r.sector)
        return self._take(chosen)


# "iosched" factories take no arguments and return a fresh IoScheduler
# (each disk driver owns its own queue, so instances are never shared).
for _cls in (FcfsScheduler, ClookScheduler, ScanEdfScheduler):
    registry.register("iosched", _cls.name, _cls)
