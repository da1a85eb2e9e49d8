"""Metadata devices: where the WAL and the manifest physically live.

The same cut-and-paste split as the disk drivers: the WAL and manifest
components talk to a tiny device interface, and the binding picks the
world —

* :class:`MemoryMetadataDevice` holds everything in a
  :class:`DurableStore` (a plain byte container that the test harness
  carries across stack rebuilds, the way a disk survives a reboot) and
  *charges* scheduler time per byte when given a latency/bandwidth model
  (the PATSY world) or stays free and silent (in-memory PFS);
* :class:`FileMetadataDevice` persists real bytes — an append-only
  ``<base>.wal`` file and a ``<base>.manifest`` rewritten atomically via
  a temp file and :func:`os.replace`.

Every I/O method is a generator so call sites are world-independent; a
device with nothing to charge and nothing to read yields nothing at all,
which is what keeps the idle metadata tier every stack carries
invisible to the scheduler (and, file-backed, to the directory).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Generator, Optional, Union

from repro.core.scheduler import Delay, Scheduler

__all__ = [
    "DurableStore",
    "MetadataDevice",
    "MemoryMetadataDevice",
    "FileMetadataDevice",
]


class DurableStore:
    """The bytes that survive a (simulated) crash: WAL tail + manifest.

    Buffered WAL records that were never committed are *not* here — they
    lived in the WAL's group-commit buffer and die with the process,
    exactly like a page cache.
    """

    def __init__(self) -> None:
        self.wal = bytearray()
        self.manifest: Optional[bytes] = None

    def __repr__(self) -> str:
        manifest = len(self.manifest) if self.manifest is not None else None
        return f"DurableStore(wal={len(self.wal)}B, manifest={manifest})"


class MetadataDevice:
    """Shared charging model over concrete byte-holding back-ends."""

    def __init__(self, scheduler: Scheduler, latency: float = 0.0, bandwidth: float = 0.0):
        self.scheduler = scheduler
        self.latency = latency
        self.bandwidth = bandwidth

    def _charge(self, nbytes: int) -> Generator[Any, Any, None]:
        cost = self.latency
        if self.bandwidth > 0:
            cost += nbytes / self.bandwidth
        if cost > 0:
            yield Delay(cost)

    # -- the generator API the WAL and manifest components use ---------------

    def append_wal(self, payload: bytes) -> Generator[Any, Any, None]:
        yield from self._charge(len(payload))
        self._append_wal(payload)

    def read_wal(self) -> Generator[Any, Any, bytes]:
        data = self._read_wal()
        if data:
            yield from self._charge(len(data))
        return data

    def truncate_wal(self) -> Generator[Any, Any, None]:
        if self.wal_bytes:
            yield from self._charge(0)
            self._truncate_wal()

    def write_manifest(self, payload: bytes) -> Generator[Any, Any, None]:
        yield from self._charge(len(payload))
        self._write_manifest(payload)

    def read_manifest(self) -> Generator[Any, Any, Optional[bytes]]:
        data = self._read_manifest()
        if data is not None:
            yield from self._charge(len(data))
        return data

    def wipe(self) -> None:
        """Drop all durable state (format-time reset).  Synchronous and
        uncharged: formatting already charges the layout writes."""
        self._truncate_wal()
        self._wipe_manifest()

    # -- to be provided by concrete back-ends --------------------------------

    @property
    def wal_bytes(self) -> int:
        raise NotImplementedError

    def _append_wal(self, payload: bytes) -> None:
        raise NotImplementedError

    def _read_wal(self) -> bytes:
        raise NotImplementedError

    def _truncate_wal(self) -> None:
        raise NotImplementedError

    def _write_manifest(self, payload: bytes) -> None:
        raise NotImplementedError

    def _read_manifest(self) -> Optional[bytes]:
        raise NotImplementedError

    def _wipe_manifest(self) -> None:
        raise NotImplementedError


class MemoryMetadataDevice(MetadataDevice):
    """Metadata on a :class:`DurableStore`, optionally charging time.

    With a latency/bandwidth model this is PATSY's journal "disk": the
    bytes are tiny but the time is real.  Without one it is the in-memory
    PFS back-end: real bytes, no charge.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        store: Optional[DurableStore] = None,
        latency: float = 0.0,
        bandwidth: float = 0.0,
    ):
        super().__init__(scheduler, latency=latency, bandwidth=bandwidth)
        self.store = store if store is not None else DurableStore()

    @property
    def wal_bytes(self) -> int:
        return len(self.store.wal)

    def _append_wal(self, payload: bytes) -> None:
        self.store.wal += payload

    def _read_wal(self) -> bytes:
        return bytes(self.store.wal)

    def _truncate_wal(self) -> None:
        del self.store.wal[:]

    def _write_manifest(self, payload: bytes) -> None:
        # One store, one rename: the swap is atomic by construction.
        self.store.manifest = bytes(payload)

    def _read_manifest(self) -> Optional[bytes]:
        return self.store.manifest

    def _wipe_manifest(self) -> None:
        self.store.manifest = None


class FileMetadataDevice(MetadataDevice):
    """Real metadata files: ``<base>.wal`` (append-only) and
    ``<base>.manifest`` (atomic rewrite via ``<base>.manifest.tmp`` +
    :func:`os.replace`)."""

    def __init__(
        self,
        scheduler: Scheduler,
        base: Union[str, Path],
        latency: float = 0.0,
        bandwidth: float = 0.0,
    ):
        super().__init__(scheduler, latency=latency, bandwidth=bandwidth)
        self.wal_path = Path(f"{base}.wal")
        self.manifest_path = Path(f"{base}.manifest")

    @property
    def wal_bytes(self) -> int:
        try:
            return self.wal_path.stat().st_size
        except OSError:
            return 0

    def _append_wal(self, payload: bytes) -> None:
        with open(self.wal_path, "ab") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())

    def _read_wal(self) -> bytes:
        try:
            return self.wal_path.read_bytes()
        except OSError:
            return b""

    def _truncate_wal(self) -> None:
        # No file is an empty log: an idle tier leaves nothing on disk.
        self.wal_path.unlink(missing_ok=True)

    def _write_manifest(self, payload: bytes) -> None:
        tmp = self.manifest_path.with_suffix(self.manifest_path.suffix + ".tmp")
        with open(tmp, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.manifest_path)

    def _read_manifest(self) -> Optional[bytes]:
        try:
            return self.manifest_path.read_bytes()
        except OSError:
            return None

    def _wipe_manifest(self) -> None:
        self.manifest_path.unlink(missing_ok=True)
