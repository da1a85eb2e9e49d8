"""Higher-level synchronisation primitives built on scheduler events.

The scheduler itself only knows about events (block / signal).  The
components in the framework need a few richer primitives:

* :class:`Semaphore` / :class:`Mutex` — mutual exclusion (e.g. serialising
  access to the partial LFS segment buffer).
* :class:`Resource` — a counted resource with a FIFO wait queue and queue
  length statistics; the SCSI bus and NVRAM drain logic are built on it.
* :class:`Channel` — an unbounded producer/consumer message queue; simulated
  disks wait on a channel for work to arrive, and the in-process NFS
  transport is a pair of channels.
* :func:`gather` — run a few generators side by side and wait for all of
  them (one client read whose blocks sit on several disks or volumes).

All ``acquire``/``get``-style operations are generator helpers used with
``yield from`` inside scheduler threads.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, Optional, Sequence

from repro.core.scheduler import Event, Scheduler
from repro.errors import SchedulerError

__all__ = ["Event", "Semaphore", "Mutex", "Resource", "Channel", "gather"]


def gather(
    scheduler: Scheduler, jobs: Sequence[Generator[Any, Any, Any]], name: str = "gather"
) -> Generator[Any, Any, list]:
    """``results = yield from gather(scheduler, jobs)``: run the generators
    concurrently and return their results in order once every one is done.

    The first job runs in the calling thread, so a single job costs no
    thread at all; each further job gets a helper thread (on the caller's
    node).  A job that raises does not cut the others short — they may be
    filling buffers the caller still owns — and the first failure is
    re-raised here after all of them have finished.
    """
    results: list = [None] * len(jobs)
    failures: list[BaseException] = []

    def guarded(index: int, job: Generator[Any, Any, Any]) -> Generator[Any, Any, None]:
        try:
            results[index] = yield from job
        except Exception as exc:  # noqa: BLE001 - handed to the caller below
            failures.append(exc)

    helpers = [
        scheduler.spawn(guarded(index, job), name=name)
        for index, job in enumerate(jobs[1:], start=1)
    ]
    if jobs:
        yield from guarded(0, jobs[0])
    for helper in helpers:
        yield from helper.join()
    if failures:
        raise failures[0]
    return results


class Semaphore:
    """A counting semaphore with FIFO wake-up order."""

    def __init__(self, scheduler: Scheduler, value: int = 1, name: str = "semaphore"):
        if value < 0:
            raise ValueError("semaphore initial value must be >= 0")
        self.scheduler = scheduler
        self.name = name
        self._wait_name = f"{name}-wait"
        self._value = value
        self._waiters: Deque[Event] = deque()

    @property
    def value(self) -> int:
        return self._value

    @property
    def waiting(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Generator[Any, Any, None]:
        """``yield from sem.acquire()``: block until a unit is available."""
        if self._value > 0 and not self._waiters:
            self._value -= 1
            return
        gate = self.scheduler.new_event(self._wait_name)
        self._waiters.append(gate)
        yield from gate.wait()

    def release(self) -> None:
        """Release one unit, waking the longest-waiting acquirer if any."""
        if self._waiters:
            gate = self._waiters.popleft()
            gate.signal()
        else:
            self._value += 1

    def __repr__(self) -> str:
        return f"Semaphore({self.name!r}, value={self._value}, waiting={len(self._waiters)})"


class Mutex(Semaphore):
    """A binary semaphore."""

    def __init__(self, scheduler: Scheduler, name: str = "mutex"):
        super().__init__(scheduler, value=1, name=name)

    def locked(self) -> bool:
        return self._value == 0


class Resource:
    """A shared resource with ``capacity`` concurrent users and a FIFO queue.

    This models contention points such as the SCSI-2 bus ("if the connection
    is already in use, the disk driver waits until the connection is released
    again").  The resource keeps running aggregates of the queue lengths seen
    by arrivals so statistics plug-ins can report on contention.
    """

    def __init__(self, scheduler: Scheduler, capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise ValueError("resource capacity must be >= 1")
        self.scheduler = scheduler
        self.capacity = capacity
        self.name = name
        self._wait_name = f"{name}-wait"
        self._in_use = 0
        self._waiters: Deque[Event] = deque()
        self.total_acquisitions = 0
        self.total_wait_time = 0.0
        self.queue_length_sum = 0
        self.max_queue_length = 0

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Generator[Any, Any, None]:
        """``yield from resource.acquire()``: wait for a free slot."""
        queued = len(self._waiters)
        self.queue_length_sum += queued
        if queued > self.max_queue_length:
            self.max_queue_length = queued
        if self._in_use < self.capacity and not queued:
            # Uncontended: no yield happens, so no simulated time can pass
            # and the wait contribution is exactly zero.
            self._in_use += 1
            self.total_acquisitions += 1
            return
        arrived = self.scheduler.now
        gate = self.scheduler.new_event(self._wait_name)
        self._waiters.append(gate)
        yield from gate.wait()
        self._in_use += 1
        self.total_acquisitions += 1
        self.total_wait_time += self.scheduler.now - arrived

    def release(self) -> None:
        if self._in_use <= 0:
            raise SchedulerError(f"release of resource {self.name!r} that is not held")
        self._in_use -= 1
        if self._waiters and self._in_use < self.capacity:
            gate = self._waiters.popleft()
            gate.signal()

    def use(self, duration: float) -> Generator[Any, Any, None]:
        """Acquire, hold for ``duration`` of scheduler time, release."""
        yield from self.acquire()
        try:
            yield from self.scheduler.sleep(duration)
        finally:
            self.release()

    @property
    def mean_wait_time(self) -> float:
        if self.total_acquisitions == 0:
            return 0.0
        return self.total_wait_time / self.total_acquisitions

    @property
    def mean_queue_length(self) -> float:
        if self.total_acquisitions == 0:
            return 0.0
        return self.queue_length_sum / self.total_acquisitions

    def __repr__(self) -> str:
        return (
            f"Resource({self.name!r}, capacity={self.capacity}, "
            f"in_use={self._in_use}, queued={len(self._waiters)})"
        )


class Channel:
    """An unbounded FIFO message queue between threads.

    ``put`` never blocks; ``get`` blocks until a message is available.
    Used by simulated disks (the controller thread waits for I/O requests)
    and by the loop-back NFS transport.
    """

    def __init__(self, scheduler: Scheduler, name: str = "channel"):
        self.scheduler = scheduler
        self.name = name
        self._get_name = f"{name}-get"
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self.total_puts = 0
        self.max_depth = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def empty(self) -> bool:
        return not self._items

    def put(self, item: Any) -> None:
        self._items.append(item)
        self.total_puts += 1
        depth = len(self._items)
        if depth > self.max_depth:
            self.max_depth = depth
        if self._getters:
            gate = self._getters.popleft()
            gate.signal()

    def get(self) -> Generator[Any, Any, Any]:
        """``item = yield from channel.get()``."""
        while not self._items:
            gate = self.scheduler.new_event(self._get_name)
            self._getters.append(gate)
            yield from gate.wait()
        return self._items.popleft()

    def try_get(self) -> Optional[Any]:
        """Non-blocking get; returns ``None`` when the channel is empty."""
        if self._items:
            return self._items.popleft()
        return None

    def __repr__(self) -> str:
        return f"Channel({self.name!r}, depth={len(self._items)})"
