"""Utilisation buckets: the LFS cleaner's bounded candidate set.

Sealed segments are tracked in utilisation buckets updated in O(1) on every
append/kill, so a cleaner wakeup selects its victim from a bounded candidate
set drawn from the emptiest buckets instead of rebuilding an
O(num_segments) info list.  Nothing else is kept per segment: the inode map
gives the address of every block, so no reader ever asks a segment what it
holds.

Bucket iteration follows dict insertion order, so candidate sets are
deterministic.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from repro.errors import ConfigurationError

__all__ = ["UtilisationBuckets"]


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
