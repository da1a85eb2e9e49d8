"""The Pegasus File-System: a synchronous facade over the framework.

A PFS instance wires the shared components (cache, LFS layout, flush
policy, cleaner) on top of a *real* disk back-end that moves real bytes —
either an in-memory store or an ordinary Unix file, as in the paper.  The
facade drives the cooperative scheduler to completion for every call, so
ordinary Python code (and the NFS front-end) can use the file system without
knowing about threads or generators.

The same algorithm objects that ran inside Patsy run here unchanged; only
the helper components underneath differ.  That is the paper's central point:
"we did not have to change anything in the code except for some small
additions when data was actually moved."
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Dict, Generator, Optional, Union

from repro.assembly.bindings import OnlineBinding
from repro.assembly.builder import StorageStack, build_stack
from repro.config import CacheConfig, StackSpec
from repro.units import MB

__all__ = ["PegasusFileSystem"]


class PegasusFileSystem:
    """An on-line file system storing real data.

    The stack is assembled by :func:`repro.assembly.builder.build_stack`
    from a :class:`~repro.config.StackSpec` under an
    :class:`~repro.assembly.bindings.OnlineBinding` — the *same* builder,
    spec object and component classes that PATSY simulates, bound to drivers
    that move real bytes.  That includes multi-volume array specs: a PFS can
    mount the ``sun4_280`` five-volume stack behind its one cache and
    flush policy, exactly as the simulator runs it.

    Parameters
    ----------
    spec:
        The full stack description; ``None`` is the framework's default
        stack with a 2 MB cache.
    backing:
        ``None`` for in-memory disks, or a path to the Unix file used as
        the disk back-end (a single-disk spec uses the bare path; every
        disk ``i`` of a multi-disk spec lands in ``<backing>.d<i>``).
    size_bytes:
        Capacity of the backing store, split over the spec's disks.
    real_time:
        Use wall-clock time instead of virtual time.  Virtual time is the
        default: the same code runs, but tests and examples finish instantly.
    """

    def __init__(
        self,
        spec: Optional[StackSpec] = None,
        backing: Optional[Union[str, Path]] = None,
        size_bytes: int = 64 * MB,
        real_time: bool = False,
    ):
        if spec is None:
            spec = StackSpec(cache=CacheConfig(size_bytes=2 * MB))
        self.spec = spec

        binding = OnlineBinding(backing=backing, size_bytes=size_bytes, real_time=real_time)
        stack = build_stack(spec, binding)
        self.stack = stack
        self.scheduler = stack.scheduler
        self.drivers = stack.drivers
        self.volume = stack.volume
        self.layout = stack.layout
        self.cache = stack.cache
        self.datamover = stack.datamover
        self.flush_policy = stack.flush_policy
        self.cleaner = stack.cleaner
        self.placement = stack.placement
        self.fs = stack.fs
        self.client = stack.client
        self._mounted = False

    @classmethod
    def from_spec(cls, spec: StackSpec, **options: Any) -> "PegasusFileSystem":
        """The constructor call; kept only because the frozen
        ``benchmarks/e2e/measure.py`` spells it this way."""
        return cls(spec, **options)

    # ------------------------------------------------------------------ scheduler plumbing

    def run(self, target: Callable[..., Generator[Any, Any, Any]], *args: Any, **kwargs: Any) -> Any:
        """Run one framework operation to completion and return its result."""
        thread = self.scheduler.spawn(target, *args, name=getattr(target, "__name__", "op"), **kwargs)
        return self.scheduler.run_until_complete(thread)

    # ------------------------------------------------------------------ lifecycle

    def format(self) -> None:
        """Create an empty file system on the backing store and mount it."""
        self.run(self.fs.mount, True)
        self._mounted = True

    def mount(self) -> None:
        """Mount an existing file system from the backing store."""
        self.run(self.fs.mount, False)
        self._mounted = True

    def unmount(self) -> None:
        """Flush everything and write a checkpoint."""
        self.run(self.fs.unmount)
        self._mounted = False

    def sync(self) -> int:
        """Flush all dirty data; returns the number of blocks written."""
        return self.run(self.fs.sync)

    @property
    def mounted(self) -> bool:
        return self._mounted

    # ------------------------------------------------------------------ file operations

    def create(self, path: str) -> None:
        handle = self.run(self.client.create, path)
        self.run(self.client.close, handle)

    def write_file(self, path: str, data: bytes, offset: int = 0) -> int:
        return self.run(self.client.write_file, path, offset, data)

    def read_file(self, path: str, offset: int = 0, length: Optional[int] = None) -> bytes:
        if length is None:
            length = self.stat(path)["size"] - offset
        if length <= 0:
            return b""
        return self.run(self.client.read_file, path, offset, length)

    def append(self, path: str, data: bytes) -> int:
        size = self.stat(path)["size"] if self.exists(path) else 0
        return self.run(self.client.write_file, path, size, data)

    def truncate(self, path: str, new_size: int) -> None:
        self.run(self.client.truncate_path, path, new_size)

    def delete(self, path: str) -> None:
        self.run(self.client.unlink, path)

    def rename(self, old_path: str, new_path: str) -> None:
        self.run(self.client.rename, old_path, new_path)

    def stat(self, path: str) -> Dict[str, Any]:
        return self.run(self.client.stat, path)

    def exists(self, path: str) -> bool:
        return self.run(self.client.exists, path)

    # ------------------------------------------------------------------ directories & links

    def mkdir(self, path: str) -> None:
        self.run(self.client.mkdir, path)

    def makedirs(self, path: str) -> None:
        """Create a directory and any missing parents."""
        parts = [p for p in path.split("/") if p]
        current = ""
        for part in parts:
            current = f"{current}/{part}"
            if not self.exists(current):
                self.mkdir(current)

    def rmdir(self, path: str) -> None:
        self.run(self.client.rmdir, path)

    def listdir(self, path: str = "/") -> list[str]:
        entries = self.run(self.client.readdir, path)
        return sorted(entries)

    def symlink(self, target: str, path: str) -> None:
        self.run(self.client.symlink, target, path)

    def readlink(self, path: str) -> str:
        return self.run(self.client.readlink, path)

    # ------------------------------------------------------------------ handle-based interface

    def open(self, path: str, create: bool = False) -> int:
        return self.run(self.client.open, path, create)

    def close(self, handle: int) -> None:
        self.run(self.client.close, handle)

    def read(self, handle: int, offset: int, length: int) -> bytes:
        return self.run(self.client.read, handle, offset, length)

    def write(self, handle: int, offset: int, data: bytes) -> int:
        return self.run(self.client.write, handle, offset, data)

    def fsync(self, handle: int) -> int:
        return self.run(self.client.fsync, handle)

    def create_multimedia(self, path: str) -> int:
        """Create/open a continuous-media file (demonstrates per-type policy)."""
        return self.run(self.client.open_multimedia, path)

    # ------------------------------------------------------------------ introspection

    def statistics(self) -> Dict[str, Any]:
        """Cache, layout and driver statistics for monitoring."""
        combined = self.layout.combined_stats()
        return {
            "cache": self.cache.stats.snapshot(),
            "layout": {
                "disk_reads": combined["disk_reads"],
                "disk_writes": combined["disk_writes"],
                "blocks_written": combined["blocks_written"],
                "free_blocks": self.layout.free_blocks,
            },
            "driver": {
                "reads": sum(d.stats.reads for d in self.drivers),
                "writes": sum(d.stats.writes for d in self.drivers),
                "mean_queue_length": (
                    sum(d.stats.mean_queue_length() for d in self.drivers)
                    / len(self.drivers)
                ),
            },
            "open_files": self.fs.file_table.open_count,
            "loaded_files": self.fs.file_table.loaded_count,
            "volumes": self.spec.num_volumes,
        }

    def close_backing(self) -> None:
        """Release the backing files (file-backed instances only)."""
        for driver in self.drivers:
            close = getattr(driver, "close", None)
            if callable(close):
                close()

    def __repr__(self) -> str:
        return (
            f"PegasusFileSystem(layout={self.layout.name}, mounted={self._mounted}, "
            f"capacity={self.volume.total_blocks} blocks)"
        )
