"""Data movement helper: real copies for PFS, time charges for Patsy.

"In all cases where data is moved between buffers, the simulator delays the
current thread for the amount of time it would take (based on the system
hardware configuration) to copy the data.  In a real system, a large chunk
of (physical) memory is allocated and divided over all the cache blocks."

The :class:`DataMover` is the helper component that hides this difference
from the rest of the framework: the client interface and file objects call
``copy_in`` / ``copy_out`` and never need to know whether bytes actually
moved.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.core.blocks import CacheBlock
from repro.core.scheduler import Delay
from repro.errors import InvalidArgument

__all__ = ["DataMover"]


class DataMover:
    """Copies data between client buffers and cache blocks.

    Parameters
    ----------
    charge_time:
        When true (simulator), every copy delays the calling thread by
        ``nbytes / bandwidth`` seconds.
    bandwidth:
        Memory copy bandwidth in bytes/second used for the time charge.
    """

    def __init__(self, charge_time: bool, bandwidth: float = 80 * 1024 * 1024):
        if bandwidth <= 0:
            raise InvalidArgument("memory copy bandwidth must be positive")
        self.charge_time = charge_time
        self.bandwidth = float(bandwidth)
        self.bytes_copied = 0
        #: the copy-time command per size; commands are immutable, so reused.
        self._delays: dict[int, Delay] = {}

    def copy_time(self, nbytes: int) -> float:
        return nbytes / self.bandwidth

    def _delay(self, nbytes: int) -> Delay:
        delay = self._delays.get(nbytes)
        if delay is None:
            delay = self._delays[nbytes] = Delay(self.copy_time(nbytes))
        return delay

    def charge(self, nbytes: int) -> Generator[Any, Any, None]:
        """Charge copy time for ``nbytes`` without moving any data (used when
        the simulator has no real payload to copy)."""
        self.bytes_copied += nbytes
        if self.charge_time and nbytes:
            yield self._delay(nbytes)

    def copy_in(
        self, block: CacheBlock, offset: int, data: Optional[bytes]
    ) -> Generator[Any, Any, int]:
        """Copy ``data`` into ``block`` starting at ``offset``.

        ``data`` may be ``None`` in a simulated system (only its length
        matters then, supplied as 0 — callers pass real bytes when they have
        them).  Returns the number of bytes written into the block.
        """
        if data is None:
            return 0
        nbytes = len(data)
        if offset < 0 or offset + nbytes > block.size:
            raise InvalidArgument(
                f"copy_in outside block bounds: offset={offset} len={nbytes} size={block.size}"
            )
        if block.data is not None:
            block.data[offset : offset + nbytes] = data
            block.valid_bytes = max(block.valid_bytes, offset + nbytes)
        self.bytes_copied += nbytes
        if self.charge_time and nbytes:
            yield self._delay(nbytes)
        return nbytes

    def copy_out(
        self, block: CacheBlock, offset: int, length: int
    ) -> Generator[Any, Any, bytes]:
        """Copy ``length`` bytes out of ``block`` starting at ``offset``.

        In a simulated system (no data buffer) a zero-filled placeholder of
        the right length is returned so callers can stay oblivious.
        """
        if offset < 0 or length < 0 or offset + length > block.size:
            raise InvalidArgument(
                f"copy_out outside block bounds: offset={offset} len={length} size={block.size}"
            )
        if block.data is not None:
            payload = bytes(block.data[offset : offset + length])
        else:
            payload = bytes(length)
        self.bytes_copied += length
        if self.charge_time and length:
            yield self._delay(length)
        return payload
