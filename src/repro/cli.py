"""Shared command-line flags for the example scripts.

Every script in ``examples/`` accepts the same pair of hardware flags:

* ``--full-hardware`` — run on the paper's evaluation machine, the
  ``sun4_280`` preset (ten HP 97560 disks on three SCSI buses, carved into
  volumes with per-volume cache shards and flush daemons), instead of the
  fast single-disk default.
* ``--volumes N`` — how many volumes the ten disks are carved into
  (default 5, the preset's shape; only meaningful with ``--full-hardware``).

``add_stack_flags`` puts the flags on an ``argparse`` parser;
``stack_config`` turns parsed arguments into the ``StackSpec`` a simulator
replays on and a PFS mounts, routed through the
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

from repro.config import (
    StackSpec,
    cluster_config,
    small_test_config,
    sun4_280_config,
)
from repro.errors import ConfigurationError

__all__ = [
    "add_stack_flags",
    "stack_config",
    "add_cluster_flags",
    "cluster_replay_config",
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


def stack_config(
    args: argparse.Namespace,
    scale: float = 0.002,
    seed: int = 0,
    placement: str = "hash",
) -> StackSpec:
    """The stack the flags describe: the ``sun4_280``
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


def cluster_replay_config(
    args: argparse.Namespace, scale: float = 0.01, seed: int = 0
) -> StackSpec:
    """The :func:`repro.config.cluster_config` preset at ``--nodes`` nodes."""
    if args.nodes < 1:
        raise ConfigurationError("--nodes must be at least 1")
    return cluster_config(nodes=args.nodes, scale=scale, seed=seed)
