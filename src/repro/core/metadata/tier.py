"""``MetadataTier``: durable routing for the cluster placement tier.

The tier owns the WAL and the manifest store and exposes exactly the
journaling surface the rest of the stack needs:

* the **rebalancer** journals each migration — BEGIN at the start, FLIP in
  the same atomic scheduler step as the in-memory routing flip, COMMIT
  *after* the new home's data is durable (flush + sub-layout checkpoint),
  END after the old copy is retired;
* the **placement** journals FORGET when a displaced file is deleted
  (files without a routing entry journal nothing — a single machine,
  where nothing migrates, never touches the journal at all);
* the **routed layout** calls :meth:`wipe` when it formats,
  :meth:`recover` once its sub-layouts are mounted and :meth:`on_unmount`
  before they unmount.

Recovery replays manifest + WAL with one rule that makes every crash
point safe: **a FLIP takes effect only if a later durable COMMIT exists
for the same file.**  Before the COMMIT is durable the old home still
holds the complete on-disk copy (RETIRE only runs after COMMIT), so
routing to the old home is correct; once the COMMIT is durable the new
home's copy is durable too (the rebalancer checkpoints the new sub-layout
before journalling COMMIT), so routing to the new home is correct.  A
crash can therefore only ever lose *work* (a migration to redo, some old
blocks leaked until their volume's next checkpoint), never data.

Recovery state machine::

                       durable WAL suffix contains
         ┌──────────────┬──────────────────────┬────────────────────┐
         │ nothing /    │ BEGIN, FLIP          │ ... COMMIT [END]   │
         │ BEGIN only   │ (no later COMMIT)    │                    │
         ├──────────────┼──────────────────────┼────────────────────┤
  route: │ old home     │ old home             │ new home           │
  disk:  │ old copy     │ old copy (new copy   │ new copy durable   │
         │ untouched    │ absent or partial)   │ (old copy leaks    │
         │              │                      │  until RETIRE redo)│
         └──────────────┴──────────────────────┴────────────────────┘

Replay is idempotent: the manifest snapshot *replaces* the routing table
and flips are pure dictionary stores, so replaying the same record (or
the whole journal) twice converges to the same table.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.core.metadata.crash import CrashPoints
from repro.core.metadata.manifest import Manifest, ManifestStore
from repro.core.metadata.wal import (
    REC_BEGIN,
    REC_COMMIT,
    REC_END,
    REC_FLIP,
    REC_FORGET,
    REC_RSET,
    WriteAheadLog,
    decode_wal,
    pack_replica_set,
    unpack_replica_set,
)
from repro.core.scheduler import Scheduler
from repro.errors import ConfigurationError
from repro.units import KB

__all__ = ["MetadataTier"]


class MetadataTier:
    """Durable metadata (WAL + manifest) above a ``ClusterPlacement``."""

    #: fold the WAL into the manifest once the log file passes this size.
    checkpoint_bytes = 64 * KB

    def __init__(
        self,
        scheduler: Scheduler,
        placement: Any,
        wal: WriteAheadLog,
        manifest_store: ManifestStore,
        crashpoints: Optional[CrashPoints] = None,
    ):
        self.scheduler = scheduler
        self.placement = placement
        self.wal = wal
        self.manifest_store = manifest_store
        self.crashpoints = crashpoints
        self.epoch = 0
        self.checkpoints = 0
        #: set by the first journal append or recovered durable state; an
        #: untouched tier stays invisible (no unmount checkpoint, no
        #: scheduler interaction, no file): every stack carries one.
        self._dirty = False
        self._recovering = False
        # -- last recovery, for reporting and tests
        self.replayed_records = 0
        self.applied_flips = 0
        self.applied_forgets = 0
        self.applied_rsets = 0
        self.torn_bytes = 0
        placement.set_forget_hook(self._on_placement_forget)

    # ------------------------------------------------------------------ journaling

    def journal_begin(self, file_id: int, source: int, target: int) -> int:
        self._dirty = True
        return self.wal.append(REC_BEGIN, file_id, source)

    def journal_flip(self, file_id: int, target: int) -> int:
        """Journal the routing flip.  Synchronous on purpose: the caller
        runs it in the same atomic scheduler step as the in-memory flip."""
        self._dirty = True
        return self.wal.append(REC_FLIP, file_id, target)

    def journal_commit(self, file_id: int) -> Generator[Any, Any, int]:
        """Append COMMIT and force the whole journal durable — the
        migration's durability barrier.  The caller must have made the new
        home's copy durable first."""
        self._dirty = True
        lsn = self.wal.append(REC_COMMIT, file_id)
        yield from self.wal.sync()
        return lsn

    def journal_end(self, file_id: int) -> int:
        return self.wal.append(REC_END, file_id)

    def journal_rset(self, file_id: int, volumes: tuple) -> int:
        """Journal a replica-set repoint (repair).  Synchronous, like
        :meth:`journal_flip`, and under the same recovery rule: the RSET
        only applies once a later COMMIT for the file is durable."""
        self._dirty = True
        return self.wal.append(REC_RSET, file_id, pack_replica_set(volumes))

    def _on_placement_forget(self, file_id: int) -> None:
        if self._recovering:
            return
        self._dirty = True
        self.wal.append(REC_FORGET, file_id)

    def post_migration(self) -> Generator[Any, Any, None]:
        """Housekeeping after a migration: commit if a batching trigger
        fired, fold the journal into the manifest when it has grown past
        the checkpoint threshold."""
        yield from self.wal.maybe_sync()
        if self.wal.device.wal_bytes >= self.checkpoint_bytes:
            yield from self.checkpoint()

    # ------------------------------------------------------------------ checkpoint

    def checkpoint(self) -> Generator[Any, Any, None]:
        """Fold the journal into a fresh manifest and reset the log:
        WAL sync → manifest rewrite → WAL truncate.  A crash between the
        last two steps leaves stale records (lsn <= checkpoint) in the
        log; replay filters them out."""
        yield from self.wal.sync()
        checkpoint_lsn = self.wal.next_lsn - 1
        self.epoch += 1
        manifest = Manifest(
            epoch=self.epoch,
            nodes=self.placement.nodes,
            volumes_per_node=self.placement.volumes_per_node,
            placement=self.placement.inner.name,
            checkpoint_lsn=checkpoint_lsn,
            overrides=self.placement.overrides_snapshot(),
            replicas=self.placement.replica_snapshot(),
        )
        yield from self.manifest_store.write(manifest)
        if self.crashpoints is not None:
            self.crashpoints.hit("wal.truncate.pre")
        yield from self.wal.device.truncate_wal()
        self.checkpoints += 1

    # ------------------------------------------------------------------ lifecycle

    def wipe(self) -> None:
        """Format: drop all durable routing state."""
        self.wal.device.wipe()

    def on_unmount(self) -> Generator[Any, Any, None]:
        if self._dirty:
            yield from self.checkpoint()

    # ------------------------------------------------------------------ recovery

    def recover(self) -> Generator[Any, Any, None]:
        """Rebuild the routing table from manifest + WAL replay.

        Idempotent: running it again (or replaying a record twice)
        converges to the same table.
        """
        placement = self.placement
        self._recovering = True
        try:
            manifest = yield from self.manifest_store.read()
            wal_data = yield from self.wal.device.read_wal()
            records, valid_bytes = decode_wal(wal_data)
            self.torn_bytes = len(wal_data) - valid_bytes
            checkpoint_lsn = 0
            overrides: dict = {}
            replicas: dict = {}
            if manifest is not None:
                if (
                    manifest.nodes != placement.nodes
                    or manifest.volumes_per_node != placement.volumes_per_node
                    or manifest.placement != placement.inner.name
                ):
                    raise ConfigurationError(
                        f"manifest describes a {manifest.nodes}x"
                        f"{manifest.volumes_per_node} {manifest.placement!r} cluster, "
                        f"but this stack is {placement.nodes}x"
                        f"{placement.volumes_per_node} {placement.inner.name!r}"
                    )
                checkpoint_lsn = manifest.checkpoint_lsn
                overrides = dict(manifest.overrides)
                replicas = dict(manifest.replicas)
                self.epoch = manifest.epoch
            placement.load_overrides(overrides)
            placement.load_replicas(replicas)
            # Records already folded into the manifest (or left behind by
            # a crash between manifest rewrite and WAL truncate) are stale.
            records = [r for r in records if r.lsn > checkpoint_lsn]
            commit_lsns: dict = {}
            for record in records:
                if record.rtype == REC_COMMIT:
                    commit_lsns.setdefault(record.file_id, []).append(record.lsn)
            flips = forgets = rsets = 0
            for record in records:
                if record.rtype == REC_FLIP:
                    # The one rule that makes every crash point safe: a
                    # flip counts only once a later COMMIT proved the new
                    # home's copy durable.
                    if any(lsn > record.lsn for lsn in commit_lsns.get(record.file_id, ())):
                        placement.flip(record.file_id, record.arg)
                        flips += 1
                elif record.rtype == REC_RSET:
                    # Same rule as FLIP: the repointed replica set only
                    # counts once a later COMMIT proved the new copies
                    # durable; before that the journalled pre-repair set
                    # still describes the durable copies.
                    if any(lsn > record.lsn for lsn in commit_lsns.get(record.file_id, ())):
                        placement.set_replica_set(
                            record.file_id, unpack_replica_set(record.arg)
                        )
                        rsets += 1
                elif record.rtype == REC_FORGET:
                    placement.forget(record.file_id)
                    forgets += 1
            max_lsn = max([checkpoint_lsn] + [r.lsn for r in records])
            self.wal.set_next_lsn(max_lsn + 1)
            # Only live replayed records leave the tier dirty.  A manifest
            # with an already-folded (or empty) journal does not: remount
            # plus clean unmount must not rewrite an identical manifest.
            if records:
                self._dirty = True
            self.replayed_records = len(records)
            self.applied_flips = flips
            self.applied_forgets = forgets
            self.applied_rsets = rsets
        finally:
            self._recovering = False

    # ------------------------------------------------------------------ reporting

    def snapshot(self) -> dict:
        return {
            "epoch": self.epoch,
            "checkpoints": self.checkpoints,
            "replayed_records": self.replayed_records,
            "applied_flips": self.applied_flips,
            "applied_forgets": self.applied_forgets,
            "applied_rsets": self.applied_rsets,
            "torn_bytes": self.torn_bytes,
            "wal": self.wal.snapshot(),
            "manifest": self.manifest_store.snapshot(),
        }
