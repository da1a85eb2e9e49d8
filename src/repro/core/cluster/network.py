"""The cluster interconnect: a per-node network interface model.

Modelled exactly like :class:`repro.patsy.bus.ScsiBus` — the *connection*
helper component of Section 3, one level up: a NIC is a capacity-1 resource
that a message holds for its serialisation time (per-message overhead plus
bytes over bandwidth), so concurrent senders queue and the contention shows
up in the latency distributions.  Propagation latency is charged *after*
the NIC is released — the wire is pipelined, only the interface serialises.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.core.scheduler import Delay, Scheduler
from repro.core.sync import Resource
from repro.errors import ConfigurationError
from repro.units import MB

__all__ = ["Nic"]


class Nic:
    """One node's network interface: bandwidth, latency and queueing."""

    def __init__(
        self,
        scheduler: Scheduler,
        name: str = "nic0",
        bandwidth: float = 100 * MB,
        latency: float = 0.0002,
        overhead: float = 0.00005,
    ):
        if bandwidth <= 0:
            raise ConfigurationError("NIC bandwidth must be positive")
        if latency < 0 or overhead < 0:
            raise ConfigurationError("NIC latency/overhead cannot be negative")
        self.scheduler = scheduler
        self.name = name
        self.bandwidth = float(bandwidth)
        self.latency = latency
        self.overhead = overhead
        self._resource = Resource(scheduler, capacity=1, name=name)
        self.bytes_sent = 0
        self.messages = 0
        self.busy_time = 0.0

    # -- timing ------------------------------------------------------------------

    def serialisation_time(self, nbytes: int) -> float:
        return self.overhead + nbytes / self.bandwidth

    # -- use ---------------------------------------------------------------------

    def send(self, nbytes: int) -> Generator[Any, Any, None]:
        """Transmit a message of ``nbytes`` out of this NIC.

        Holds the interface for the serialisation time (queueing behind any
        other sender on this node), then charges the one-way propagation
        latency without holding it.
        """
        yield from self._resource.acquire()
        hold = self.serialisation_time(nbytes)
        try:
            yield Delay(hold)
        except BaseException:
            self._resource.release()
            raise
        # An uninterrupted Delay advances the clock by exactly ``hold``.
        self.busy_time += hold
        self._resource.release()
        self.bytes_sent += nbytes
        self.messages += 1
        if self.latency > 0:
            yield Delay(self.latency)

    # -- statistics ----------------------------------------------------------------

    @property
    def queue_length(self) -> int:
        return self._resource.queue_length

    @property
    def mean_wait_time(self) -> float:
        return self._resource.mean_wait_time

    def utilisation(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` seconds the interface was serialising."""
        if elapsed <= 0:
            return 0.0
        return min(self.busy_time / elapsed, 1.0)

    def snapshot(self) -> dict:
        return {
            "messages": self.messages,
            "bytes_sent": self.bytes_sent,
            "busy_time": self.busy_time,
            "mean_wait_time": self.mean_wait_time,
        }

    def __repr__(self) -> str:
        return f"Nic({self.name!r}, messages={self.messages})"
