"""Real disk drivers for the on-line PFS instantiation.

"Currently, only one disk-driver exists.  This driver implements a combined
read-write queue and schedules I/O requests through the C-LOOK scheduling
policy.  It uses a Unix-file (ordinary file, or raw-device) as back-end."

Two back-ends are provided: a Unix file (:class:`FileBackedDiskDriver`,
matching the paper) and an in-memory byte array
(:class:`MemoryBackedDiskDriver`) for tests and examples that should not
touch the host file system.  Both share the queueing/scheduling machinery of
:class:`repro.core.driver.DiskDriver`; an optional service-time model lets
them charge realistic latencies when run under a virtual clock.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Generator, Optional, Union

from repro.core.driver import DiskDriver, IOKind, IORequest
from repro.core.iosched import IoScheduler
from repro.core.scheduler import Scheduler
from repro.errors import DiskError
from repro.units import MB, SECTOR_SIZE

__all__ = ["MemoryBackedDiskDriver", "FileBackedDiskDriver"]


class _RealDiskDriver(DiskDriver):
    """Shared behaviour of the real (byte-moving) drivers."""

    def __init__(
        self,
        scheduler: Scheduler,
        name: str,
        num_sectors: int,
        io_scheduler: Optional[IoScheduler] = None,
        fixed_latency: float = 0.0,
        per_byte_time: float = 0.0,
    ):
        super().__init__(
            scheduler,
            name=name,
            io_scheduler=io_scheduler,
            num_sectors=num_sectors,
            sector_size=SECTOR_SIZE,
        )
        self.fixed_latency = fixed_latency
        self.per_byte_time = per_byte_time

    def _perform(self, request: IORequest) -> Generator[Any, Any, None]:
        service_time = self.fixed_latency + self.per_byte_time * request.nbytes
        if service_time > 0:
            yield from self.scheduler.sleep(service_time)
        if request.kind is IOKind.READ:
            data = self._read_bytes(request.sector * self.sector_size, request.nbytes)
            request.data = bytearray(data)
        else:
            payload = request.data if request.data is not None else bytes(request.nbytes)
            self._write_bytes(request.sector * self.sector_size, bytes(payload))

    # -- to be provided by concrete back-ends ------------------------------------

    def _read_bytes(self, offset: int, nbytes: int) -> bytes:
        raise NotImplementedError

    def _write_bytes(self, offset: int, data: bytes) -> None:
        raise NotImplementedError


class MemoryBackedDiskDriver(_RealDiskDriver):
    """A "disk" held in a byte array: fast, hermetic, byte-faithful."""

    def __init__(
        self,
        scheduler: Scheduler,
        size_bytes: int = 64 * MB,
        name: str = "memdisk0",
        io_scheduler: Optional[IoScheduler] = None,
        fixed_latency: float = 0.0,
        per_byte_time: float = 0.0,
    ):
        if size_bytes < SECTOR_SIZE:
            raise DiskError("memory disk must hold at least one sector")
        num_sectors = size_bytes // SECTOR_SIZE
        super().__init__(
            scheduler,
            name=name,
            num_sectors=num_sectors,
            io_scheduler=io_scheduler,
            fixed_latency=fixed_latency,
            per_byte_time=per_byte_time,
        )
        self._store = bytearray(num_sectors * SECTOR_SIZE)

    def _read_bytes(self, offset: int, nbytes: int) -> bytes:
        return bytes(self._store[offset : offset + nbytes])

    def _write_bytes(self, offset: int, data: bytes) -> None:
        self._store[offset : offset + len(data)] = data

    def snapshot(self) -> bytes:
        """A copy of the whole backing store (crash-recovery tests)."""
        return bytes(self._store)

    def restore(self, snapshot: bytes) -> None:
        if len(snapshot) != len(self._store):
            raise DiskError("snapshot size does not match the disk size")
        self._store[:] = snapshot


class FileBackedDiskDriver(_RealDiskDriver):
    """The paper's production driver: a Unix file as the disk back-end."""

    def __init__(
        self,
        scheduler: Scheduler,
        path: Union[str, Path],
        size_bytes: Optional[int] = None,
        name: str = "filedisk0",
        io_scheduler: Optional[IoScheduler] = None,
        fixed_latency: float = 0.0,
        per_byte_time: float = 0.0,
    ):
        self.path = Path(path)
        exists = self.path.exists()
        if size_bytes is None:
            if not exists:
                raise DiskError(f"backing file {self.path} does not exist and no size was given")
            size_bytes = self.path.stat().st_size
        if size_bytes < SECTOR_SIZE:
            raise DiskError("backing file must hold at least one sector")
        num_sectors = size_bytes // SECTOR_SIZE
        super().__init__(
            scheduler,
            name=name,
            num_sectors=num_sectors,
            io_scheduler=io_scheduler,
            fixed_latency=fixed_latency,
            per_byte_time=per_byte_time,
        )
        mode = "r+b" if exists else "w+b"
        # Unbuffered: a completed write is in the backing file (the host's
        # page cache), so what ``sync()`` promised is what a copy of the
        # file — or the survivor of a killed process — holds.  Every I/O is
        # a whole block run, so a user-space buffer bought nothing.
        self._file = open(self.path, mode, buffering=0)
        if not exists or self.path.stat().st_size < num_sectors * SECTOR_SIZE:
            self._file.truncate(num_sectors * SECTOR_SIZE)

    def _read_bytes(self, offset: int, nbytes: int) -> bytes:
        self._file.seek(offset)
        data = self._file.read(nbytes)
        if len(data) < nbytes:
            data += bytes(nbytes - len(data))
        return data

    def _write_bytes(self, offset: int, data: bytes) -> None:
        self._file.seek(offset)
        self._file.write(data)

    def close(self) -> None:
        """Force the backing file to stable storage and close it."""
        try:
            os.fsync(self._file.fileno())
        except (OSError, ValueError):  # pragma: no cover - best effort
            pass
        self._file.close()

    def __del__(self) -> None:  # pragma: no cover - defensive cleanup
        try:
            if not self._file.closed:
                self._file.close()
        except Exception:
            pass
