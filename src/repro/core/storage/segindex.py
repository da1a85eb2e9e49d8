"""Per-segment summaries for the LSM-style LFS read/cleaner path.

An LFS segment is structurally an SSTable: immutable once sealed,
sequentially written, compacted (cleaned) later.  This module provides the
standard LSM read-path companions for each segment:

* a :class:`BloomFilter` over the segment's ``(owner, logical_block)``
  entries (plus owner-only keys), so consumers can skip segments that
  cannot hold a block without decoding the full summary;
* a sparse ``(owner, logical_block) -> in-segment offset`` index sampled
  every ``sparse_every`` entries;
* live/dead block counters maintained incrementally as the log appends and
  overwrites kill old copies.

A :class:`SegmentIndex` is built incrementally while its segment is the
active head of the log, persisted alongside the segment-summary block when
the segment seals, and discarded when the cleaner frees the segment.

:class:`UtilisationBuckets` is the cleaner-side companion: segments are
tracked in utilisation buckets updated in O(1) on every append/kill, so a
cleaner wakeup selects its victim from a bounded candidate set drawn from
the emptiest buckets instead of rebuilding an O(num_segments) info list.

Everything here is deterministic: hashing is explicit multiplicative
mixing (no interpreter hash randomisation), and bucket iteration follows
dict insertion order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "SegmentIndexConfig",
    "BloomFilter",
    "SegmentIndex",
    "UtilisationBuckets",
]

_MASK64 = (1 << 64) - 1
#: multiplicative mixing constants (splitmix64 / Murmur finalisers).
_MIX1 = 0x9E3779B97F4A7C15
_MIX2 = 0xBF58476D1CE4E5B9
_MIX3 = 0x94D049BB133111EB


def _mix(value: int) -> int:
    """Deterministic 64-bit finaliser (splitmix64)."""
    value = (value + _MIX1) & _MASK64
    value ^= value >> 30
    value = (value * _MIX2) & _MASK64
    value ^= value >> 27
    value = (value * _MIX3) & _MASK64
    return value ^ (value >> 31)


def entry_key(owner: int, logical_block: int, is_inode: bool) -> int:
    """Stable 64-bit key of one segment-summary entry."""
    return _mix((owner << 33) ^ (logical_block << 1) ^ (1 if is_inode else 0))


def owner_key(owner: int) -> int:
    """Stable 64-bit key of an owner (inode number) alone."""
    return _mix((owner << 1) | 1)


@dataclass(frozen=True)
class SegmentIndexConfig:
    """Knobs of the per-segment index machinery (see ``LayoutConfig``)."""

    #: sample every Nth summary entry into the sparse offset index.
    sparse_every: int = 4
    #: bloom filter size, in bits per indexed key.
    bloom_bits: int = 8
    #: cleaner candidate-set bound drawn from the utilisation buckets
    #: (0 = unbounded, i.e. fall back to the full segment scan).
    cleaner_candidates: int = 64
    #: maximum blocks coalesced into one cold-read run (<=1 disables).
    read_coalesce_blocks: int = 8

    def __post_init__(self) -> None:
        if self.sparse_every < 1:
            raise ConfigurationError("sparse_every must be >= 1")
        if self.bloom_bits < 1:
            raise ConfigurationError("bloom_bits must be >= 1")
        if self.cleaner_candidates < 0:
            raise ConfigurationError("cleaner_candidates must be >= 0")
        if self.read_coalesce_blocks < 0:
            raise ConfigurationError("read_coalesce_blocks must be >= 0")


class BloomFilter:
    """A tiny deterministic bloom filter over 64-bit keys.

    ``k`` probe positions are derived from one key by double hashing
    (h1 + i*h2), the textbook construction.  No deletions: entries of a
    sealed segment only ever die, they are never removed from the filter,
    so a stale positive costs a wasted probe while a negative is always
    authoritative.
    """

    __slots__ = ("num_bits", "num_hashes", "_bytes")

    def __init__(self, num_bits: int, num_hashes: int = 4):
        self.num_bits = max(8, num_bits)
        self.num_hashes = max(1, num_hashes)
        #: bit ``i`` lives in byte ``i >> 3`` (the on-disk form), so setting
        #: one costs O(1) instead of reallocating a ``num_bits``-wide int.
        self._bytes = bytearray(self.memory_bytes)

    @property
    def bits(self) -> int:
        """The filter as one integer, bit ``i`` = probe position ``i``."""
        return int.from_bytes(self._bytes, "little")

    def add(self, key: int) -> None:
        h1 = key & _MASK64
        h2 = _mix(key) | 1
        data = self._bytes
        for i in range(self.num_hashes):
            pos = (h1 + i * h2) % self.num_bits
            data[pos >> 3] |= 1 << (pos & 7)

    def may_contain(self, key: int) -> bool:
        h1 = key & _MASK64
        h2 = _mix(key) | 1
        data = self._bytes
        for i in range(self.num_hashes):
            pos = (h1 + i * h2) % self.num_bits
            if not data[pos >> 3] >> (pos & 7) & 1:
                return False
        return True

    def to_bytes(self) -> bytes:
        return bytes(self._bytes)

    @classmethod
    def from_bytes(cls, data: bytes, num_bits: int, num_hashes: int) -> "BloomFilter":
        bloom = cls(num_bits, num_hashes)
        # A section of the wrong length (torn or foreign) must not index out
        # of range: no probe position lies beyond ``num_bits``.
        bloom._bytes[:] = data[: bloom.memory_bytes].ljust(bloom.memory_bytes, b"\0")
        return bloom

    @property
    def memory_bytes(self) -> int:
        return (self.num_bits + 7) // 8


class SegmentIndex:
    """The LSM-style summary of one segment.

    Built incrementally via :meth:`add` while the segment is the active log
    head (one call per appended block, in offset order); sealed segments
    keep it in memory for the cleaner and the read path, and persist it
    next to the segment-summary block.  ``offset`` is the in-segment block
    offset (1-based: offset 0 is the summary block itself).
    """

    __slots__ = ("config", "capacity", "bloom", "sparse", "entries", "live", "dead", "_last_owner")

    def __init__(
        self,
        config: SegmentIndexConfig,
        capacity: int,
        bloom: Optional[BloomFilter] = None,
        sparse: Optional[Dict[Tuple[int, int, bool], int]] = None,
        entries: int = 0,
        live: int = 0,
        dead: int = 0,
    ):
        self.config = config
        self.capacity = capacity
        if bloom is None:
            # Two keys per entry (exact + owner-only).
            bloom = BloomFilter(2 * capacity * config.bloom_bits)
        self.bloom = bloom
        self.sparse: Dict[Tuple[int, int, bool], int] = sparse if sparse is not None else {}
        self.entries = entries
        self.live = live
        self.dead = dead
        self._last_owner: Optional[int] = None

    # ------------------------------------------------------------------ building

    def add(self, owner: int, logical_block: int, is_inode: bool, offset: int) -> None:
        self.bloom.add(entry_key(owner, logical_block, is_inode))
        if owner != self._last_owner:
            # Once per run of one owner's blocks: a repeat sets no new bit.
            self.bloom.add(owner_key(owner))
            self._last_owner = owner
        if self.entries % self.config.sparse_every == 0:
            self.sparse[(owner, logical_block, is_inode)] = offset
        self.entries += 1
        self.live += 1

    def kill(self) -> None:
        """One block of this segment died (overwritten or released)."""
        if self.live > 0:
            self.live -= 1
            self.dead += 1

    # ------------------------------------------------------------------ probing

    def may_contain(self, owner: int, logical_block: int, is_inode: bool = False) -> bool:
        """False means the segment definitely never stored this entry."""
        return self.bloom.may_contain(entry_key(owner, logical_block, is_inode))

    def may_contain_owner(self, owner: int) -> bool:
        """False means no block of this segment ever belonged to ``owner``."""
        return self.bloom.may_contain(owner_key(owner))

    def find(self, owner: int, logical_block: int, is_inode: bool = False) -> Optional[int]:
        """Exact in-segment offset when the entry was sampled, else None
        (None does not imply absence — consult :meth:`may_contain`)."""
        return self.sparse.get((owner, logical_block, is_inode))

    # ------------------------------------------------------------------ accounting

    @property
    def utilisation(self) -> float:
        if self.capacity == 0:
            return 1.0
        return self.live / self.capacity

    @property
    def memory_bytes(self) -> int:
        """Approximate in-core footprint (bloom + sparse dict entries)."""
        return self.bloom.memory_bytes + 40 * len(self.sparse) + 64

    @classmethod
    def rebuild(
        cls,
        config: SegmentIndexConfig,
        capacity: int,
        entries: Iterable[Tuple[int, int, bool]],
        live: int,
    ) -> "SegmentIndex":
        """Reconstruct an index from decoded summary entries (legacy blocks
        persisted without an index section, or a torn index)."""
        index = cls(config, capacity)
        for offset, (owner, logical, is_inode) in enumerate(entries, start=1):
            index.add(owner, logical, is_inode, offset)
        index.live = min(max(live, 0), index.entries)
        index.dead = index.entries - index.live
        return index

    def __repr__(self) -> str:
        return (
            f"SegmentIndex(entries={self.entries} live={self.live} "
            f"dead={self.dead} sparse={len(self.sparse)})"
        )


class UtilisationBuckets:
    """Sealed segments bucketed by live-block utilisation, updated in O(1).

    Bucket ``i`` holds segments whose utilisation falls in
    ``[i/n, (i+1)/n)``; the cleaner draws its bounded candidate set from
    the lowest buckets upward, so the segments greedy would pick are always
    inside the candidate set.  Cost-benefit's age term can in principle
    prefer a fuller-but-older segment outside the bound — the standard
    LSM-compaction approximation, traded for wakeups that no longer scan
    every segment.

    Buckets are plain dicts (insertion-ordered), so candidate iteration is
    deterministic for a deterministic update sequence.
    """

    __slots__ = ("num_buckets", "buckets", "_where")

    def __init__(self, num_buckets: int = 16):
        if num_buckets < 1:
            raise ConfigurationError("need at least one utilisation bucket")
        self.num_buckets = num_buckets
        self.buckets: List[Dict[int, None]] = [dict() for _ in range(num_buckets)]
        self._where: Dict[int, int] = {}

    def bucket_of(self, live: int, capacity: int) -> int:
        if capacity <= 0:
            return self.num_buckets - 1
        return min(self.num_buckets - 1, (live * self.num_buckets) // capacity)

    def insert(self, segment: int, live: int, capacity: int) -> None:
        self.remove(segment)
        bucket = self.bucket_of(live, capacity)
        self.buckets[bucket][segment] = None
        self._where[segment] = bucket

    def remove(self, segment: int) -> None:
        bucket = self._where.pop(segment, None)
        if bucket is not None:
            self.buckets[bucket].pop(segment, None)

    def update(self, segment: int, live: int, capacity: int) -> None:
        """Move ``segment`` to its new bucket; no-op when untracked or the
        bucket is unchanged (the common case — one dict lookup)."""
        current = self._where.get(segment)
        if current is None:
            return
        target = self.bucket_of(live, capacity)
        if target == current:
            return
        self.buckets[current].pop(segment, None)
        self.buckets[target][segment] = None
        self._where[segment] = target

    def __contains__(self, segment: int) -> bool:
        return segment in self._where

    def __len__(self) -> int:
        return len(self._where)

    def candidates(self, limit: int) -> Iterator[int]:
        """Segments from the emptiest buckets upward, at most ``limit``
        (``limit <= 0`` yields every tracked segment)."""
        yielded = 0
        for bucket in self.buckets:
            for segment in bucket:
                yield segment
                yielded += 1
                if limit > 0 and yielded >= limit:
                    return

    def clear(self) -> None:
        for bucket in self.buckets:
            bucket.clear()
        self._where.clear()
