"""The atomic-rewrite manifest: membership, routing snapshot, WAL pointer.

Where the WAL is an append-only stream of small deltas, the manifest is a
small whole-state snapshot rewritten in one shot: the cluster membership
(node and volume counts, placement name), an epoch counter, the complete
routing-table snapshot at checkpoint time, and the LSN up to which the WAL
has been folded in.  Recovery loads the manifest first and then replays
only WAL records *after* its checkpoint LSN.

The rewrite is atomic — a temp file plus ``os.replace`` on the file
device, a single reference swap on the memory device — so the manifest is
never torn: a crash mid-rewrite leaves the *previous* manifest intact and
recovery simply replays a longer WAL suffix.  That is the whole trade-off
between the two structures (see ``docs/architecture.md``): the WAL makes
each migration cheap to journal (append a few dozen bytes), the manifest
bounds replay time by periodically resetting the log; neither alone gives
both cheap updates and bounded recovery.

A manifest whose CRC fails is treated as absent: atomic rewrite means a
bad checksum can only be pre-crash garbage or torn media from outside the
model, and the WAL suffix still replays from LSN 0.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, Optional, Tuple

from repro.core.metadata.crash import CrashPoints
from repro.core.metadata.device import MetadataDevice
from repro.core.scheduler import Scheduler

__all__ = ["Manifest", "ManifestStore"]

_MANIFEST_VERSION = 1
_HEADER = struct.Struct("<II")


@dataclass
class Manifest:
    """One decoded manifest snapshot."""

    epoch: int
    nodes: int
    volumes_per_node: int
    placement: str
    #: every WAL record with lsn <= this is already folded in here.
    checkpoint_lsn: int
    #: the routing table at checkpoint time: file id -> home volume.
    overrides: Dict[int, int] = field(default_factory=dict)
    #: the replica routing table at checkpoint time: file id -> replica
    #: volumes.  Only repaired files appear here (default-rule sets don't).
    replicas: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    version: int = _MANIFEST_VERSION

    def encode(self) -> bytes:
        payload = {
            "version": self.version,
            "epoch": self.epoch,
            "nodes": self.nodes,
            "volumes_per_node": self.volumes_per_node,
            "placement": self.placement,
            "checkpoint_lsn": self.checkpoint_lsn,
            "overrides": {str(k): v for k, v in sorted(self.overrides.items())},
        }
        if self.replicas:
            # Key omitted when empty: a replicas=0 cluster writes the exact
            # same manifest bytes as the pre-replication stack (size feeds
            # the metadata device's timing, so this is a byte-identity pin).
            payload["replicas"] = {
                str(k): list(v) for k, v in sorted(self.replicas.items())
            }
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        return _HEADER.pack(len(body), zlib.crc32(body)) + body

    @classmethod
    def decode(cls, data: Optional[bytes]) -> Optional["Manifest"]:
        """The manifest in ``data``, or None when absent/damaged."""
        if data is None or len(data) < _HEADER.size:
            return None
        length, crc = _HEADER.unpack_from(data, 0)
        body = data[_HEADER.size : _HEADER.size + length]
        if len(body) != length or zlib.crc32(body) != crc:
            return None
        try:
            payload = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return None
        if payload.get("version") != _MANIFEST_VERSION:
            return None
        return cls(
            epoch=int(payload["epoch"]),
            nodes=int(payload["nodes"]),
            volumes_per_node=int(payload["volumes_per_node"]),
            placement=str(payload["placement"]),
            checkpoint_lsn=int(payload["checkpoint_lsn"]),
            overrides={int(k): int(v) for k, v in payload["overrides"].items()},
            replicas={
                int(k): tuple(int(x) for x in v)
                for k, v in payload.get("replicas", {}).items()
            },
        )


class ManifestStore:
    """Reads and atomically rewrites the manifest on a metadata device."""

    def __init__(
        self,
        scheduler: Scheduler,
        device: MetadataDevice,
        crashpoints: Optional[CrashPoints] = None,
    ):
        self.scheduler = scheduler
        self.device = device
        self.crashpoints = crashpoints
        self.writes = 0
        self.corrupt_reads = 0

    def write(self, manifest: Manifest) -> Generator[Any, Any, None]:
        cp = self.crashpoints
        if cp is not None:
            # Crashing here models dying before (or during) the temp-file
            # write or the rename: the previous manifest survives intact.
            cp.hit("manifest.write.pre")
        yield from self.device.write_manifest(manifest.encode())
        if cp is not None:
            cp.hit("manifest.write.post")
        self.writes += 1

    def read(self) -> Generator[Any, Any, Optional[Manifest]]:
        data = yield from self.device.read_manifest()
        manifest = Manifest.decode(data)
        if data is not None and manifest is None:
            self.corrupt_reads += 1
        return manifest

    def snapshot(self) -> dict:
        return {"writes": self.writes, "corrupt_reads": self.corrupt_reads}
