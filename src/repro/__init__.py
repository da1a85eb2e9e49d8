"""Cut-and-Paste File-Systems — a Python reproduction.

This package reproduces "Cut-and-Paste file-systems: integrating simulators
and file-systems" (Bosch & Mullender, USENIX 1996): a component library from
which both an on-line file system (PFS) and a trace-driven off-line
simulator (Patsy) are instantiated from the *same* code.

Quick start::

    from repro import PegasusFileSystem
    pfs = PegasusFileSystem()
    pfs.format()
    pfs.mkdir("/home")
    pfs.write_file("/home/hello.txt", b"hello, cut-and-paste world")
    print(pfs.read_file("/home/hello.txt"))

    from repro import run_policy_comparison
    results = run_policy_comparison("1a")           # Figure 2 data
    for policy, result in results.items():
        print(policy, result.mean_latency)

One :class:`StackSpec` describes a stack in both worlds: every preset in
:mod:`repro.config` returns one, and ``PatsySimulator(spec)`` and
``PegasusFileSystem(spec)`` take that same object.
"""

from repro.assembly import (
    OnlineBinding,
    SimulatedBinding,
    StackSpec,
    StorageStack,
    build_stack,
    registry,
    spec_diff,
)
from repro.config import (
    ArrayConfig,
    CacheConfig,
    ClusterConfig,
    FlushConfig,
    HostConfig,
    LayoutConfig,
    cluster_config,
    small_test_config,
    sun4_280_config,
)
from repro.patsy.experiments import (
    EXPERIMENT_POLICIES,
    DelayedWriteExperiment,
    mean_latency_table,
    run_delayed_write_experiment,
    run_policy_comparison,
)
from repro.patsy.simulator import PatsySimulator, SimulationResult
from repro.patsy.synthetic import SPRITE_TRACE_NAMES, sprite_like_trace
from repro.patsy.traces import TraceRecord, load_trace, save_trace
from repro.patsy.workload import SyntheticWorkloadGenerator, WorkloadProfile
from repro.pfs.filesystem import PegasusFileSystem
from repro.pfs.nfs import NfsLoopbackClient, NfsServer

__version__ = "1.0.0"

__all__ = [
    "OnlineBinding",
    "SimulatedBinding",
    "StackSpec",
    "StorageStack",
    "build_stack",
    "registry",
    "spec_diff",
    "ArrayConfig",
    "CacheConfig",
    "FlushConfig",
    "ClusterConfig",
    "HostConfig",
    "LayoutConfig",
    "cluster_config",
    "small_test_config",
    "sun4_280_config",
    "EXPERIMENT_POLICIES",
    "DelayedWriteExperiment",
    "mean_latency_table",
    "run_delayed_write_experiment",
    "run_policy_comparison",
    "PatsySimulator",
    "SimulationResult",
    "SPRITE_TRACE_NAMES",
    "sprite_like_trace",
    "TraceRecord",
    "load_trace",
    "save_trace",
    "SyntheticWorkloadGenerator",
    "WorkloadProfile",
    "PegasusFileSystem",
    "NfsLoopbackClient",
    "NfsServer",
    "__version__",
]
