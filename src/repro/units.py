"""Units and small numeric helpers used throughout the framework.

Time is expressed in **seconds** (floats) everywhere; sizes in **bytes**
(ints).  These helpers exist so that configuration code reads like the
paper: ``4 * MB`` of NVRAM, ``30 * SECONDS`` update interval, a ``10 * MB``
per second SCSI-2 bus, and so on.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping

# --- sizes -----------------------------------------------------------------

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

#: Default file-system block size (bytes).  Sprite's LFS used 4 KB blocks.
DEFAULT_BLOCK_SIZE = 4 * KB

#: Default disk sector size (bytes).
SECTOR_SIZE = 512

# --- time ------------------------------------------------------------------

MICROSECONDS = 1e-6
MILLISECONDS = 1e-3
SECONDS = 1.0
MINUTES = 60.0
HOURS = 3600.0


def bytes_to_blocks(nbytes: int, block_size: int = DEFAULT_BLOCK_SIZE) -> int:
    """Number of blocks needed to hold ``nbytes`` (rounded up)."""
    if nbytes < 0:
        raise ValueError(f"negative byte count: {nbytes}")
    return (nbytes + block_size - 1) // block_size


def blocks_to_bytes(nblocks: int, block_size: int = DEFAULT_BLOCK_SIZE) -> int:
    """Size in bytes of ``nblocks`` whole blocks."""
    if nblocks < 0:
        raise ValueError(f"negative block count: {nblocks}")
    return nblocks * block_size


def block_span(offset: int, length: int, block_size: int = DEFAULT_BLOCK_SIZE) -> range:
    """Range of logical block numbers touched by a byte extent.

    >>> list(block_span(0, 4096))
    [0]
    >>> list(block_span(4095, 2, block_size=4096))
    [0, 1]
    """
    if offset < 0 or length < 0:
        raise ValueError("offset and length must be non-negative")
    if length == 0:
        return range(0)
    first = offset // block_size
    last = (offset + length - 1) // block_size
    return range(first, last + 1)


def add_counters(mappings: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """Key-by-key sums of counter mappings (a statistics object's ``vars()``,
    a ``snapshot()``), keys in first-seen order; values that are not
    numbers are left out."""
    totals: Dict[str, Any] = {}
    for mapping in mappings:
        for key, value in mapping.items():
            if isinstance(value, (int, float)):
                totals[key] = totals.get(key, 0) + value
    return totals


def human_bytes(nbytes: float) -> str:
    """Human readable byte count, e.g. ``human_bytes(4096) == '4.0KB'``."""
    value = float(nbytes)
    for suffix in ("B", "KB", "MB", "GB", "TB"):
        if abs(value) < 1024.0 or suffix == "TB":
            if suffix == "B":
                return f"{int(value)}B"
            return f"{value:.1f}{suffix}"
        value /= 1024.0
    raise AssertionError("unreachable")


def human_time(seconds: float) -> str:
    """Human readable duration, e.g. ``human_time(0.0172) == '17.2ms'``."""
    if seconds < 0:
        return "-" + human_time(-seconds)
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    if seconds < 60.0:
        return f"{seconds:.2f}s"
    if seconds < 3600.0:
        return f"{seconds / 60.0:.1f}min"
    return f"{seconds / 3600.0:.2f}h"
