"""Cache blocks and block identities.

A cache block is a fixed-size slot in the file-system block cache.  In an
on-line (PFS) instantiation every slot owns a real data buffer; in a
simulated (Patsy) instantiation the buffer is absent — "the difference
between a simulated cache and a real cache is the lack of a data pointer in
the simulated case" — and data movement is charged as time instead.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional

from repro.errors import CacheError

__all__ = ["BlockId", "BlockState", "CacheBlock"]


class BlockId(NamedTuple):
    """Identity of a cached block: (file identifier, logical block number)."""

    file_id: int
    block_no: int

    def __str__(self) -> str:
        return f"{self.file_id}:{self.block_no}"


class BlockState(enum.Enum):
    """Life-cycle of a cache slot."""

    FREE = "free"
    CLEAN = "clean"
    DIRTY = "dirty"


class CacheBlock:
    """One slot of the file-system block cache."""

    __slots__ = (
        "slot",
        "size",
        "block_id",
        "state",
        "data",
        "valid_bytes",
        "dirty_since",
        "last_access",
        "access_count",
        "access_history",
        "pin_count",
        "busy",
        "read_ahead",
    )

    def __init__(self, slot: int, size: int, with_data: bool):
        self.slot = slot
        self.size = size
        self.block_id: Optional[BlockId] = None
        self.state = BlockState.FREE
        self.data: Optional[bytearray] = bytearray(size) if with_data else None
        #: number of meaningful bytes in the block (for the last partial block
        #: of a file); only used when real data is present.
        self.valid_bytes = 0
        #: scheduler time at which the block first became dirty.
        self.dirty_since: Optional[float] = None
        self.last_access = 0.0
        self.access_count = 0
        #: recent access times, newest last (used by LRU-K replacement).
        self.access_history: list[float] = []
        #: pinned blocks cannot be evicted or reused (I/O in progress).
        self.pin_count = 0
        #: set while a flush of this block is in flight, so that concurrent
        #: flush decisions do not pick it a second time.
        self.busy = False
        #: set on a slot filled by a read issued for another block's miss
        #: (the rest of that call's blocks, the layout's read-ahead) until
        #: somebody references it: that first reference is counted as the
        #: cache miss it would have been without the early fill.
        self.read_ahead = False

    # -- state queries --------------------------------------------------------

    @property
    def is_free(self) -> bool:
        return self.state is BlockState.FREE

    @property
    def is_dirty(self) -> bool:
        return self.state is BlockState.DIRTY

    @property
    def is_clean(self) -> bool:
        return self.state is BlockState.CLEAN

    @property
    def pinned(self) -> bool:
        return self.pin_count > 0

    @property
    def has_data(self) -> bool:
        return self.data is not None

    # -- pinning ----------------------------------------------------------------

    def pin(self) -> None:
        self.pin_count += 1

    def unpin(self) -> None:
        if self.pin_count <= 0:
            raise CacheError(f"unpin of block {self.block_id} that is not pinned")
        self.pin_count -= 1

    # -- bookkeeping --------------------------------------------------------------

    def record_access(self, now: float, history_depth: int = 4) -> None:
        """Record an access for replacement-policy bookkeeping."""
        self.last_access = now
        self.access_count += 1
        self.access_history.append(now)
        if len(self.access_history) > history_depth:
            del self.access_history[0]

    def reset(self) -> None:
        """Return the slot to the FREE state (contents are discarded)."""
        if self.pinned:
            raise CacheError(f"cannot reset pinned block {self.block_id}")
        self.block_id = None
        self.state = BlockState.FREE
        self.dirty_since = None
        self.valid_bytes = 0
        self.access_count = 0
        self.access_history.clear()
        self.busy = False
        self.read_ahead = False
        if self.data is not None:
            # Zero the buffer so stale data never leaks into a new file.
            self.data[:] = bytes(self.size)

    def __repr__(self) -> str:
        return (
            f"CacheBlock(slot={self.slot}, id={self.block_id}, state={self.state.value}, "
            f"pins={self.pin_count})"
        )
