"""The volume protocol and the local disk-concatenation volume.

A *volume* is one logical block address space.  The storage layouts issue
their block I/O against this interface and nothing else, which is what lets
the same layout run over very different storage:

* :class:`LocalVolume` — the classic shape: one or more disk drivers
  concatenated into a single address space (the traced Sprite server had
  fourteen file systems over ten disks).
* :class:`~repro.core.storage.array.VolumeSet` — N independent volumes
  behind one handle for the multi-volume array (block-address specific
  operations go through the per-volume sub-layouts instead).
* :class:`~repro.core.cluster.remote.RemoteVolume` — a volume on another
  machine: the same block I/O, but every operation crosses a simulated
  network link first.

The storage layout decides *where* blocks go; the volume translates block
addresses to storage and keeps runs of blocks on a single device so that
one logical write is one device operation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_right
from typing import Any, Generator, Optional, Sequence

from repro.core.driver import DiskDriver, IORequest
from repro.errors import DiskAddressError, StorageError
from repro.units import DEFAULT_BLOCK_SIZE, SECTOR_SIZE

__all__ = ["Volume", "LocalVolume"]


class Volume(ABC):
    """The volume protocol: block-granularity access to one address space.

    Everything above the drivers — layouts, the :class:`~repro.core.storage.array.RoutedLayout`
    router, the file system's sync path — consumes this interface only.
    Concrete volumes say where the blocks actually live: local disks
    (:class:`LocalVolume`), another volume across a simulated network
    (:class:`~repro.core.cluster.remote.RemoteVolume`), or a set of
    volumes (:class:`~repro.core.storage.array.VolumeSet`).
    """

    #: file-system block size in bytes (set by the concrete volume).
    block_size: int

    # -- shape -----------------------------------------------------------------

    @property
    @abstractmethod
    def total_blocks(self) -> int:
        """Number of blocks in this address space."""

    @property
    @abstractmethod
    def num_disks(self) -> int:
        """Number of physical disks ultimately backing this volume."""

    # -- I/O -------------------------------------------------------------------

    @abstractmethod
    def read_run(self, block_addr: int, nblocks: int = 1) -> Generator[Any, Any, Optional[bytes]]:
        """Read ``nblocks`` contiguous blocks.

        Returns the bytes read, or ``None`` when the underlying driver moves
        no real data (simulated disks).
        """

    @abstractmethod
    def write_run(
        self, block_addr: int, nblocks: int, data: Optional[bytes]
    ) -> Generator[Any, Any, None]:
        """Write ``nblocks`` contiguous blocks."""

    @abstractmethod
    def flush(self) -> Generator[Any, Any, None]:
        """Wait for every outstanding device operation to complete."""

    # -- single-block conveniences ---------------------------------------------

    def read_block(self, block_addr: int) -> Generator[Any, Any, Optional[bytes]]:
        return (yield from self.read_run(block_addr, 1))

    def write_block(self, block_addr: int, data: Optional[bytes]) -> Generator[Any, Any, None]:
        yield from self.write_run(block_addr, 1, data)


class LocalVolume(Volume):
    """A volume concatenating local disk drivers into one address space.

    Each disk has its own driver and queue; the volume translates block
    addresses to (driver, sector) and keeps runs of blocks on a single disk
    so that one logical write is one disk operation.
    """

    def __init__(self, drivers: Sequence[DiskDriver], block_size: int = DEFAULT_BLOCK_SIZE):
        if not drivers:
            raise StorageError("a volume needs at least one disk driver")
        if block_size % SECTOR_SIZE != 0:
            raise StorageError("block size must be a multiple of the sector size")
        self.drivers = list(drivers)
        self.block_size = block_size
        self.sectors_per_block = block_size // SECTOR_SIZE
        self._disk_blocks = [
            driver.num_sectors // self.sectors_per_block for driver in self.drivers
        ]
        self._disk_starts: list[int] = []
        start = 0
        for nblocks in self._disk_blocks:
            self._disk_starts.append(start)
            start += nblocks
        self._total_blocks = start

    # -- address translation -------------------------------------------------

    @property
    def total_blocks(self) -> int:
        return self._total_blocks

    def disk_of(self, block_addr: int) -> int:
        """Index of the disk holding ``block_addr``."""
        self._check(block_addr, 1)
        return bisect_right(self._disk_starts, block_addr) - 1

    def locate(self, block_addr: int) -> tuple[DiskDriver, int]:
        """(driver, first sector) for a block address."""
        return self._run_start(block_addr, 1)

    def blocks_on_disk(self, disk_index: int) -> range:
        """Block address range living on one disk."""
        start = self._disk_starts[disk_index]
        return range(start, start + self._disk_blocks[disk_index])

    @property
    def num_disks(self) -> int:
        return len(self.drivers)

    # -- I/O -------------------------------------------------------------------

    def read_run(self, block_addr: int, nblocks: int = 1) -> Generator[Any, Any, Optional[bytes]]:
        """Read ``nblocks`` contiguous blocks (must lie on one disk)."""
        driver, sector = self._run_start(block_addr, nblocks)
        request: IORequest = yield from driver.read(sector, nblocks * self.sectors_per_block)
        if request.data is None:
            return None
        return bytes(request.data)

    def write_run(
        self, block_addr: int, nblocks: int, data: Optional[bytes]
    ) -> Generator[Any, Any, None]:
        """Write ``nblocks`` contiguous blocks (must lie on one disk)."""
        driver, sector = self._run_start(block_addr, nblocks)
        if data is not None and len(data) != nblocks * self.block_size:
            raise StorageError(
                f"write_run data length {len(data)} != {nblocks} blocks of {self.block_size}"
            )
        yield from driver.write(sector, nblocks * self.sectors_per_block, data)

    def flush(self) -> Generator[Any, Any, None]:
        """Wait for every disk queue to drain."""
        for driver in self.drivers:
            yield from driver.flush()

    # -- helpers -----------------------------------------------------------------

    def _check(self, block_addr: int, nblocks: int) -> None:
        if block_addr < 0 or nblocks < 1 or block_addr + nblocks > self._total_blocks:
            raise DiskAddressError(
                f"block run [{block_addr}, {block_addr + nblocks}) outside volume "
                f"of {self._total_blocks} blocks"
            )

    def _run_start(self, block_addr: int, nblocks: int) -> tuple[DiskDriver, int]:
        """(driver, first sector) of a run, bounds-checked; it must lie on one disk."""
        self._check(block_addr, nblocks)
        index = bisect_right(self._disk_starts, block_addr) - 1
        start = self._disk_starts[index]
        if block_addr + nblocks > start + self._disk_blocks[index]:
            raise StorageError(
                f"block run [{block_addr}, {block_addr + nblocks}) crosses a disk boundary"
            )
        return self.drivers[index], (block_addr - start) * self.sectors_per_block

    def __repr__(self) -> str:
        return f"LocalVolume(disks={len(self.drivers)}, blocks={self.total_blocks})"
