"""Shared command-line flags for the example scripts.

Every script in ``examples/`` accepts the same pair of hardware flags:

* ``--full-hardware`` — run on the paper's evaluation machine, the
  ``sun4_280`` preset (ten HP 97560 disks on three SCSI buses, carved into
  volumes with per-volume cache shards and flush daemons), instead of the
  fast single-disk default.
* ``--volumes N`` — how many volumes the ten disks are carved into
  (default 5, the preset's shape; only meaningful with ``--full-hardware``).

``add_stack_flags`` puts the flags on an ``argparse`` parser;
``array_section``/``stack_config`` turn parsed arguments into the array
sub-config or a whole simulator configuration, both routed through the
:func:`repro.config.sun4_280_config` preset so the examples and the
benchmarks agree on what "the full machine" means.

Cluster replays additionally take ``--nodes N`` — replay on an N-node
cluster instead of one machine.  ``add_cluster_flags`` installs it;
``cluster_replay_config`` turns the parsed arguments into the
:func:`repro.config.cluster_config` preset (front-end entry at node 0,
directory placement, online rebalancing — the shape the benchmarks run).
"""

from __future__ import annotations

import argparse
from typing import Optional

from repro.config import (
    ArrayConfig,
    SimulationConfig,
    cluster_config,
    small_test_config,
    sun4_280_config,
)
from repro.errors import ConfigurationError

__all__ = [
    "add_stack_flags",
    "array_section",
    "stack_config",
    "add_cluster_flags",
    "cluster_replay_config",
    "add_fault_flags",
    "fault_schedule",
]


def add_stack_flags(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Add the shared ``--full-hardware`` / ``--volumes`` flags."""
    parser.add_argument(
        "--full-hardware",
        action="store_true",
        help="run on the sun4_280 preset: 10 HP 97560 disks on 3 SCSI buses",
    )
    parser.add_argument(
        "--volumes",
        type=int,
        default=5,
        metavar="N",
        help="volumes the full machine's disks are carved into (default: 5)",
    )
    return parser


def array_section(
    args: argparse.Namespace, placement: str = "hash"
) -> Optional[ArrayConfig]:
    """The ``sun4_280`` array shape selected by the flags (None without
    ``--full-hardware``) — for callers that assemble their own stack, e.g.
    a :class:`~repro.pfs.filesystem.PegasusFileSystem` mounting the array."""
    if not args.full_hardware:
        return None
    preset = sun4_280_config(scale=0.01, volumes=args.volumes, placement=placement)
    return preset.array


def stack_config(
    args: argparse.Namespace,
    scale: float = 0.002,
    seed: int = 0,
    placement: str = "hash",
) -> SimulationConfig:
    """A full simulator configuration for the flags: the ``sun4_280``
    preset with ``--full-hardware``, the small test stack otherwise."""
    if args.volumes < 1:
        raise ConfigurationError("--volumes must be at least 1")
    if args.full_hardware:
        return sun4_280_config(
            scale=scale, seed=seed, volumes=args.volumes, placement=placement
        )
    return small_test_config(seed=seed)


def add_cluster_flags(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Add the ``--nodes`` replay flag."""
    parser.add_argument(
        "--nodes",
        type=int,
        default=1,
        metavar="N",
        help="replay on an N-node cluster (default: 1, a single machine)",
    )
    return parser


def add_fault_flags(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Add the ``--replicas`` / ``--fault`` availability flags."""
    parser.add_argument(
        "--replicas",
        type=int,
        default=0,
        metavar="K",
        help="keep K extra copies of every file on other failure domains "
        "(default: 0, replication off)",
    )
    parser.add_argument(
        "--fault",
        action="append",
        default=[],
        metavar="KIND:TARGET@TIME[:DURATION]",
        help="schedule a fault: disk_fail / node_crash / nic_partition / "
        "slow_disk, e.g. --fault node_crash:1@20 "
        "--fault nic_partition:2@10:5 (repeatable)",
    )
    return parser


def fault_schedule(args: argparse.Namespace) -> list:
    """Parse ``--fault`` specs into :class:`repro.core.faults.FaultEvent`s."""
    from repro.core.faults import FaultEvent

    events = []
    for spec in args.fault:
        head, _, tail = spec.partition("@")
        kind, _, target = head.partition(":")
        if not target or not tail:
            raise ConfigurationError(
                f"bad --fault spec {spec!r} (want KIND:TARGET@TIME[:DURATION])"
            )
        time_str, _, duration = tail.partition(":")
        try:
            events.append(
                FaultEvent(
                    time=float(time_str),
                    kind=kind,
                    target=int(target),
                    duration=float(duration) if duration else 0.0,
                )
            )
        except ValueError as exc:
            raise ConfigurationError(f"bad --fault spec {spec!r}: {exc}") from exc
    return events


def cluster_replay_config(
    args: argparse.Namespace, scale: float = 0.01, seed: int = 0
) -> SimulationConfig:
    """The :func:`repro.config.cluster_config` preset at ``--nodes`` nodes."""
    if args.nodes < 1:
        raise ConfigurationError("--nodes must be at least 1")
    return cluster_config(nodes=args.nodes, scale=scale, seed=seed)
