"""The paper's central claim: the same components run on-line and off-line.

These tests instantiate the *same* framework classes once as a simulator
(Patsy: simulated disks, no data buffers) and once as a real system (PFS:
memory-backed disk, real bytes), drive both through the abstract client
interface, and check that behaviour and policy decisions agree — "we did not
have to change anything in the code except for some small additions when
data was actually moved".
"""

from dataclasses import replace

import pytest

from repro.assembly import OnlineBinding, SimulatedBinding, StackSpec, build_stack
from repro.assembly.registry import registry
from repro.config import (
    ArrayConfig,
    CacheConfig,
    FlushConfig,
    HostConfig,
    cluster_config,
    small_test_config,
    sprite_server_config,
    sun4_280_config,
)
from repro.core.cache import BlockCache
from repro.core.client import AbstractClientInterface
from repro.core.flush import (
    NvramPolicy,
    PeriodicUpdatePolicy,
    ShardedFlushPolicy,
)
from repro.core.storage.array import RoutedLayout, ShardedCache
from repro.core.storage.lfs import LogStructuredLayout
from repro.errors import ConfigurationError
from repro.patsy.simulator import PatsySimulator
from repro.patsy.traces import TraceRecord
from repro.pfs.filesystem import PegasusFileSystem
from repro.units import KB, MB
from repro.config import LayoutConfig


WORKLOAD = [
    ("mkdir", "/data", b""),
    ("write", "/data/one.txt", b"1" * 6000),
    ("write", "/data/two.txt", b"2" * 12000),
    ("read", "/data/one.txt", b""),
    ("delete", "/data/two.txt", b""),
    ("write", "/data/three.txt", b"3" * 3000),
]


def drive_pfs(flush_policy="periodic"):
    pfs = PegasusFileSystem(
        spec=StackSpec(
            cache=CacheConfig(size_bytes=1 * MB),
            flush=FlushConfig(policy=flush_policy),
            layout=LayoutConfig(segment_size=64 * KB),
        ),
        size_bytes=16 * MB,
    )
    pfs.format()
    for op, path, payload in WORKLOAD:
        if op == "mkdir":
            pfs.mkdir(path)
        elif op == "write":
            pfs.write_file(path, payload)
        elif op == "read":
            pfs.read_file(path)
        elif op == "delete":
            pfs.delete(path)
    return pfs


def drive_patsy(flush_policy="periodic"):
    spec = replace(small_test_config(), flush=FlushConfig(policy=flush_policy))
    simulator = PatsySimulator(spec)
    records = []
    t = 0.0
    for op, path, payload in WORKLOAD:
        t += 0.2
        if op == "mkdir":
            records.append(TraceRecord(t, 0, "mkdir", path))
        elif op == "write":
            records.append(TraceRecord(t, 0, "write", path, offset=0, size=len(payload)))
        elif op == "read":
            records.append(TraceRecord(t, 0, "read", path, offset=0, size=4096))
        elif op == "delete":
            records.append(TraceRecord(t, 0, "unlink", path))
    result = simulator.replay(records)
    return simulator, result


def test_both_instantiations_share_component_classes():
    pfs = drive_pfs()
    simulator, _result = drive_patsy()
    # Identical component classes on both sides of the cut-and-paste line.
    assert type(pfs.cache) is type(simulator.cache) is ShardedCache
    assert type(pfs.cache.shards[0]) is type(simulator.cache.shards[0]) is BlockCache
    assert type(pfs.fs.namespace) is type(simulator.fs.namespace)
    assert type(pfs.client).__mro__[1] is AbstractClientInterface or isinstance(
        pfs.client, AbstractClientInterface
    )
    assert type(pfs.layout) is type(simulator.layout) is RoutedLayout
    for layout in (pfs.layout, simulator.layout):
        assert [type(sub) for sub in layout.sublayouts] == [LogStructuredLayout]
    # The only difference: the simulator's cache has no data buffers.
    assert pfs.cache.with_data is True
    assert simulator.cache.with_data is False


def test_same_namespace_outcome_in_both_instantiations():
    pfs = drive_pfs()
    simulator, result = drive_patsy()
    assert result.errors == 0
    pfs_entries = set(pfs.listdir("/data"))
    patsy_root = simulator.fs.root_directory()

    def list_patsy():
        directory = yield from simulator.fs.namespace.resolve("/data")
        return (yield from directory.list_entries())

    thread = simulator.scheduler.spawn(list_patsy)
    patsy_entries = set(simulator.scheduler.run_until_complete(thread))
    assert pfs_entries == patsy_entries == {"one.txt", "three.txt"}
    assert patsy_root is not None


def test_same_policy_objects_run_in_both_worlds():
    pfs = drive_pfs(flush_policy="nvram")
    simulator, _ = drive_patsy(flush_policy="nvram")
    for flush_policy in (pfs.flush_policy, simulator.flush_policy):
        assert isinstance(flush_policy, ShardedFlushPolicy)
        assert [type(child) for child in flush_policy.children] == [NvramPolicy]
    assert pfs.cache.dirty_limit_bytes is not None
    assert simulator.cache.dirty_limit_bytes is not None


def test_write_savings_visible_in_both_instantiations():
    """Deleting a freshly written file saves writes on-line and off-line."""
    pfs = drive_pfs(flush_policy="ups")
    simulator, result = drive_patsy(flush_policy="ups")
    assert pfs.cache.stats.dirty_blocks_discarded >= 1
    assert result.write_savings_blocks >= 1


def test_migrating_a_policy_requires_no_code_changes():
    """The same factory call configures the policy for either instantiation."""
    config = FlushConfig(policy="periodic")
    policy_for_patsy = registry.create("flush", config.policy, config)
    policy_for_pfs = registry.create("flush", config.policy, config)
    assert isinstance(policy_for_patsy, PeriodicUpdatePolicy)
    assert type(policy_for_patsy) is type(policy_for_pfs)


# --------------------------------------------------------------------------- one spec, two worlds
#
# The assembly layer makes the paper's claim checkable wholesale: build the
# *same* StackSpec under both bindings and assert the component classes are
# identical across the cut-and-paste line, layer by layer.


def _component_classes(stack):
    """The classes of every policy-bearing component in a stack."""
    return {
        "cache": type(stack.cache),
        "flush": type(stack.flush_policy),
        "layout": type(stack.layout),
        "cleaner": type(stack.cleaner),
        "placement": type(stack.placement),
        "cache_shards": [type(shard) for shard in stack.cache.shards],
        "shard_policies": [type(shard.policy) for shard in stack.cache.shards],
        "sublayouts": [type(sub) for sub in stack.layout.sublayouts],
        "flush_children": [type(child) for child in stack.flush_policy.children],
        "cleaner_policies": [type(daemon.policy) for daemon in stack.cleaner],
    }


@pytest.mark.parametrize(
    "host, array",
    [
        (HostConfig(), ArrayConfig()),
        (HostConfig(num_disks=4, num_buses=2), ArrayConfig(volumes=3, placement="stripe")),
    ],
    ids=["single-volume", "multi-volume"],
)
def test_one_spec_builds_identical_component_classes_in_both_worlds(host, array):
    spec = StackSpec(
        cache=CacheConfig(size_bytes=192 * 4 * KB, replacement="arc"),
        flush=FlushConfig(policy="nvram", nvram_bytes=16 * 4 * KB),
        layout=LayoutConfig(segment_size=16 * 4 * KB),
        host=host,
        array=array,
        seed=2,
    )
    simulated = build_stack(spec, SimulatedBinding())
    online = build_stack(spec, OnlineBinding(size_bytes=32 * MB))
    # The paper's claim, enforced layer by layer: identical classes for the
    # cache (and every shard), flush policy (and every per-shard child),
    # layout (and every sub-layout), cleaner and placement across worlds.
    assert _component_classes(simulated) == _component_classes(online)
    # The only difference is the helper binding underneath.
    assert simulated.cache.with_data is False and online.cache.with_data is True
    assert type(simulated.drivers[0]) is not type(online.drivers[0])


@pytest.mark.parametrize(
    "spec",
    [
        small_test_config(seed=3),
        sprite_server_config(scale=0.002),
        sun4_280_config(scale=0.002),
        cluster_config(nodes=2, scale=0.002),
    ],
    ids=["small_test", "sprite_server", "sun4_280", "cluster"],
)
def test_one_object_describes_the_stack_in_both_worlds(spec):
    """What a preset returns is handed, unconverted, to both constructors,
    and is the object each stack reports it was built from; a pre-built
    stack carries it, and is refused under any other."""
    simulator = PatsySimulator(spec)
    pfs = PegasusFileSystem(spec, size_bytes=4 * MB * spec.num_disks)
    assert simulator.stack.spec is spec and simulator.spec is spec
    assert pfs.stack.spec is spec and pfs.spec is spec
    assert StackSpec.from_dict(spec.to_dict()) == spec
    assert PatsySimulator(spec, stack=build_stack(spec, SimulatedBinding())).spec is spec
    with pytest.raises(ConfigurationError):
        PatsySimulator(replace(spec, seed=spec.seed + 1), stack=simulator.stack)
