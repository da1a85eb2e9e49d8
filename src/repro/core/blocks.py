"""Cache blocks and block identities.

A cache block is a fixed-size slot in the file-system block cache.  In an
on-line (PFS) instantiation every slot owns a real data buffer; in a
simulated (Patsy) instantiation the buffer is absent — "the difference
between a simulated cache and a real cache is the lack of a data pointer in
the simulated case" — and data movement is charged as time instead.
"""

from __future__ import annotations

import enum
from typing import Any, NamedTuple, Optional

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
        "pin_count",
        "busy",
        "read_ahead",
        "owed",
        "owner",
        "prev",
        "next",
        "segment",
        "home",
    )

    def __init__(self, slot: int, size: int, with_data: bool, owner: Any = None):
        self.slot = slot
        #: the cache (shard) this slot belongs to, for its whole life -- even
        #: when a repair promotion moves the file's home while it is pinned.
        self.owner = owner
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
        #: set on a block a write changed without reading it first:
        #: ``(lo, hi, old_end)`` says the file's old bytes ``[0, old_end)``
        #: of the block are still on disk only, except ``[lo, hi)``, which
        #: writes replaced.  The owed bytes are read in when a read or the
        #: writeback needs them; ``None``: nothing owed.
        self.owed: Optional[tuple[int, int, int]] = None
        #: the block is its own node in its replacement policy's lists:
        #: neighbours, the list holding it (``segment``; ``owner`` is the
        #: shard) and, while it is dirty and parked off them, its ``home``.
        self.prev = self.next = self.segment = self.home = None

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

    def record_access(self, now: float) -> None:
        """Record an access for replacement-policy bookkeeping."""
        self.last_access = now

    def reset(self) -> None:
        """Return the slot to the FREE state (contents are discarded)."""
        if self.pin_count > 0:
            raise CacheError(f"cannot reset pinned block {self.block_id}")
        self.block_id = None
        self.state = BlockState.FREE
        self.dirty_since = None
        self.valid_bytes = 0
        self.busy = False
        self.read_ahead = False
        self.owed = None
        if self.data is not None:
            # Zero the buffer so stale data never leaks into a new file.
            self.data[:] = bytes(self.size)

    def __repr__(self) -> str:
        return (
            f"CacheBlock(slot={self.slot}, id={self.block_id}, state={self.state.value}, "
            f"pins={self.pin_count})"
        )
