"""The assembly layer: registry, StackSpec, bindings and build_stack.

The tentpole contracts: a spec round-trips through dict form, one spec
builds either world through the same builder, third-party policies plug in
through the registry without editing core modules, and a PFS can mount a
multi-volume array spec and move real bytes through it.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from repro.assembly import (
    OnlineBinding,
    SimulatedBinding,
    StackSpec,
    build_stack,
    registry,
)
from repro.assembly.registry import ComponentRegistry
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
from repro.core.cache import BlockCache
from repro.core.flush import FlushPolicy, ShardedFlushPolicy
from repro.core.inode import ROOT_INODE_NUMBER
from repro.core.storage.array import RoutedLayout, ShardedCache, VolumeSet
from repro.core.storage.cleaner import CleanerDaemon
from repro.core.storage.lfs import LogStructuredLayout
from repro.errors import ConfigurationError
from repro.patsy.experiments import DelayedWriteExperiment, experiment_config
from repro.patsy.simulator import PatsySimulator
from repro.pfs.filesystem import PegasusFileSystem
from repro.units import KB, MB


# --------------------------------------------------------------------------- registry


def test_registry_register_create_and_introspection():
    reg = ComponentRegistry()
    reg.register("flush", "noop", lambda config: ("noop", config))
    assert reg.has("flush", "noop")
    assert reg.names("flush") == ["noop"]
    assert "flush" in reg.kinds()
    kind, config = reg.create("flush", "noop", 42)
    assert (kind, config) == ("noop", 42)


def test_registry_rejects_duplicates_unless_replacing():
    reg = ComponentRegistry()
    reg.register("cleaner", "x", lambda: 1)
    with pytest.raises(ConfigurationError):
        reg.register("cleaner", "x", lambda: 2)
    reg.register("cleaner", "x", lambda: 2, replace=True)
    assert reg.create("cleaner", "x") == 2
    reg.unregister("cleaner", "x")
    assert not reg.has("cleaner", "x")
    with pytest.raises(ConfigurationError):
        reg.unregister("cleaner", "x")


def test_registry_unknown_component_raises():
    reg = ComponentRegistry()
    with pytest.raises(ConfigurationError):
        reg.create("flush", "never-registered")
    with pytest.raises(ConfigurationError):
        reg.register("flush", "not-callable", 42)


def test_builtin_policies_are_registered():
    # Importing the core modules populated the process-wide registry.
    assert registry.has("flush", "periodic")
    assert registry.has("iosched", "clook")
    assert registry.has("cleaner", "cost-benefit")
    assert registry.has("placement", "stripe")
    assert registry.has("replacement", "arc")
    assert registry.has("layout", "lfs")


def test_third_party_flush_policy_plugs_in_without_editing_core():
    class EagerFlushPolicy(FlushPolicy):
        name = "eager-test"

    registry.register("flush", "eager-test", EagerFlushPolicy)
    try:
        # Config validation consults the registry for non-builtin names...
        config = FlushConfig(policy="eager-test")
        # ...and the factory instantiates the third-party class.
        policy = registry.create("flush", config.policy, config)
        assert isinstance(policy, EagerFlushPolicy)
    finally:
        registry.unregister("flush", "eager-test")
    with pytest.raises(ConfigurationError):
        FlushConfig(policy="eager-test")  # gone again


# --------------------------------------------------------------------------- spec


def small_spec(**overrides):
    base = StackSpec(
        cache=CacheConfig(size_bytes=64 * 4 * KB),
        flush=FlushConfig(policy="periodic", nvram_bytes=8 * 4 * KB),
        layout=LayoutConfig(segment_size=16 * 4 * KB),
        host=HostConfig(num_disks=1, num_buses=1),
        seed=3,
    )
    return replace(base, **overrides)


def test_stack_spec_round_trips_through_dict():
    for spec in (
        small_spec(),
        small_spec(host=HostConfig(num_disks=3), array=ArrayConfig(volumes=3)),
        small_test_config(),
        sun4_280_config(scale=0.002, volumes=1, placement="hash"),
        sun4_280_config(scale=0.002),
        cluster_config(nodes=3, scale=0.002, replicas=1),
    ):
        data = spec.to_dict()
        assert StackSpec.from_dict(data) == spec
        # Every section is written out: one machine is the one-node cluster.
        assert all(isinstance(data[section], dict) for section in data if section != "seed")
        # And the dict is plain (JSON-safe) all the way down.
        import json

        assert StackSpec.from_dict(json.loads(json.dumps(data))) == spec


def test_stack_spec_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigurationError):
        StackSpec.from_dict({"cace": {}})
    with pytest.raises(ConfigurationError):
        StackSpec.from_dict({"cache": {"size_byte": 1}})
    with pytest.raises(ConfigurationError):
        StackSpec.from_dict({"cache": 42})
    # The hardware is the host section's to describe: the keys ArrayConfig
    # used to repeat it with are rejected by name.
    with pytest.raises(ConfigurationError) as error:
        StackSpec.from_dict(
            {"array": {"volumes": 2, "buses": 1, "disks_per_bus": 4, "num_disks": 4, "shard": "unified"}}
        )
    for key in ("buses", "disks_per_bus", "num_disks", "shard"):
        assert repr(key) in str(error.value)


@pytest.mark.parametrize(
    "data, section, key",
    [
        ({"seed": "x"}, None, "seed"),
        ({"seed": None}, None, "seed"),
        ({"cache": {"size_bytes": "big"}}, "cache", "size_bytes"),
        ({"array": {"volumes": "2"}}, "array", "volumes"),
        ({"flush": {"whole_file": 1}}, "flush", "whole_file"),
        ({"flush": {"update_interval": "30"}}, "flush", "update_interval"),
        ({"host": {"num_disks": True}}, "host", "num_disks"),
        ({"cluster": {"nodes": 2.0}}, "cluster", "nodes"),
    ],
)
def test_stack_spec_from_dict_names_a_wrong_typed_value(data, section, key):
    """A manifest value of the wrong type is a ConfigurationError naming the
    section and key, never a bare TypeError/ValueError from a comparison."""
    with pytest.raises(ConfigurationError) as error:
        StackSpec.from_dict(data)
    message = str(error.value)
    assert repr(key) in message and (section is None or repr(section) in message)


def test_stack_spec_from_dict_accepts_json_numbers_and_null_sections():
    # An int where a float is wanted, and null for a whole section (what an
    # older to_dict wrote for "no array" and "no cluster") or no key at all.
    spec = StackSpec.from_dict(
        {
            "flush": {"update_interval": 30},
            "array": None,
            "cluster": None,
        }
    )
    assert spec == StackSpec() == StackSpec.from_dict({})
    assert spec.cluster == ClusterConfig() and spec.cluster.nodes == 1


def test_the_conversion_shim_has_no_caller_but_the_frozen_driver():
    """The old spec-from-a-config classmethod returns its argument and exists only because
    ``benchmarks/e2e/measure.py`` (which no PR may edit) still calls it; the
    next revision of the driver drops the call and the shim goes with it.
    Until then nothing else may start leaning on it."""
    name = "from_" + "config"
    spec = small_spec()
    assert getattr(StackSpec, name)(spec) is spec
    root = Path(__file__).resolve().parent.parent
    references = [
        f"{path.relative_to(root)}:{number}"
        for directory in ("src", "tests", "benchmarks", "examples")
        for path in sorted((root / directory).rglob("*.py"))
        if "e2e" not in path.relative_to(root).parts
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if name in line
    ]
    assert len(references) == 1 and references[0].startswith("src/repro/config.py:"), references


def test_no_code_asks_whether_there_is_a_cluster():
    """Every stack has a cluster section, a topology, a metadata tier and a
    fault board (one node, idle, inert by default), so a test for their
    absence is a branch nothing can take — and every preset and the default
    PFS really build that shape."""
    import re

    question = re.compile(
        r"cluster is (not )?None|metadata is (not )?None|topology is None|faults is not None"
    )
    root = Path(__file__).resolve().parent.parent
    asked = [
        f"{path.relative_to(root)}:{number}"
        for path in sorted((root / "src").rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if question.search(line)
    ]
    assert not asked, asked
    assert StackSpec().cluster == ClusterConfig()
    stacks = [PegasusFileSystem(size_bytes=16 * MB).stack] + [
        build_stack(spec, SimulatedBinding())
        for spec in (
            small_test_config(),
            sun4_280_config(0.002, volumes=1, placement="hash"),
            sun4_280_config(0.002),
        )
    ]
    for stack in stacks:
        topology = stack.cluster
        assert topology.num_nodes == 1 and topology.nics == [] and topology.rebalancer is None
        assert topology.metadata is stack.metadata and not topology.faults.active
        assert stack.layout.faults is topology.faults and stack.layout.tiers == [stack.metadata]


def test_stack_spec_shape_helpers():
    spec = small_spec(host=HostConfig(num_disks=2), array=ArrayConfig(volumes=2))
    assert spec.num_volumes == 2
    assert spec.num_disks == 2
    assert list(spec.disks_of_volume(1)) == [1]
    single = small_spec()
    assert single.num_volumes == 1
    assert list(single.disks_of_volume(0)) == [0]
    with pytest.raises(ConfigurationError):
        single.disks_of_volume(1)


# --------------------------------------------------------------------------- build_stack


@pytest.mark.parametrize(
    "spec",
    [
        small_test_config(),
        sun4_280_config(scale=0.002, volumes=1, placement="hash"),
        sun4_280_config(scale=0.002),
        cluster_config(nodes=2, scale=0.002),
    ],
    ids=["small_test", "sprite_server", "sun4_280", "cluster"],
)
def test_every_preset_builds_the_same_five_component_classes_in_both_worlds(spec):
    sim = build_stack(spec, SimulatedBinding())
    online = build_stack(spec, OnlineBinding(size_bytes=4 * MB * spec.num_disks))
    # One assembly path: the same five classes for every stack, either side
    # of the cut-and-paste line...
    for stack in (sim, online):
        assert type(stack.volume) is VolumeSet and len(stack.volume) == spec.num_volumes
        assert type(stack.layout) is RoutedLayout
        assert [type(sub) for sub in stack.layout.sublayouts] == (
            [LogStructuredLayout] * spec.num_volumes
        )
        assert type(stack.cache) is ShardedCache
        # One buffer cache per node, however its disks are carved.
        assert [type(shard) for shard in stack.cache.shards] == [BlockCache] * spec.num_nodes
        assert type(stack.flush_policy) is ShardedFlushPolicy
        assert [type(daemon) for daemon in stack.cleaner] == [CleanerDaemon] * spec.num_volumes
    # ...with only the helpers differing.
    assert sim.cache.with_data is False and online.cache.with_data is True
    assert len(sim.buses) == spec.num_buses and not online.buses
    assert len(sim.drivers) == len(online.drivers) == spec.num_disks


def test_build_stack_array_builds_sharded_components():
    spec = small_spec(host=HostConfig(num_disks=4, num_buses=2), array=ArrayConfig(volumes=3))
    stack = build_stack(spec, SimulatedBinding())
    assert len(stack.volume) == len(stack.cleaner) == 3
    assert len(stack.cache.shards) == 1  # the machine's one memory
    assert [volume.num_disks for volume in stack.volume] == [2, 1, 1]
    assert stack.placement.inner.name == "hash"
    assert len(stack.drivers) == 4 and len(stack.buses) == 2


def test_a_machine_has_one_buffer_cache_and_the_whole_nvram():
    """The Sun 4/280 preset: five volumes behind one cache shard holding the
    whole cache, one replacement policy over it, and under ``nvram`` one
    flush policy holding the whole NVRAM; no dirty-ratio governor runs."""
    spec = sun4_280_config(scale=0.02)
    stack = build_stack(spec, SimulatedBinding())
    assert len(stack.layout.sublayouts) == 5
    (shard,) = stack.cache.shards
    assert shard.config.size_bytes == spec.cache.size_bytes
    assert shard.num_blocks == spec.cache.num_blocks == shard.policy.capacity
    assert [child.cache for child in stack.flush_policy.children] == [shard]

    nvram = replace(spec, flush=replace(spec.flush, policy="nvram"))
    stack = build_stack(nvram, SimulatedBinding())
    (shard,) = stack.cache.shards
    assert shard.dirty_limit_bytes == nvram.flush.nvram_bytes
    assert not [t for t in stack.scheduler.threads if t.name.startswith("dirty-governor")]


def test_a_cluster_has_one_cache_shard_per_node():
    spec = cluster_config(nodes=4, scale=0.002)
    stack = build_stack(spec, SimulatedBinding())
    shards = stack.cache.shards
    assert len(shards) == 4 and spec.volumes_per_node == 2
    assert len({id(shard.policy) for shard in shards}) == 4
    for node in stack.cluster.nodes:
        assert node.cache_shards == [shards[node.index]]
        assert shards[node.index].config.size_bytes == spec.cache.size_bytes // 4
    # A block routes to the shard of the node whose volume stores it.
    placement = stack.placement
    for file_id in range(ROOT_INODE_NUMBER, ROOT_INODE_NUMBER + 16):
        for block_no in (0, 20):
            node = placement.node_of_volume(placement.volume_for_block(file_id, block_no))
            assert stack.cache.shard_for(file_id, block_no) is shards[node]


def test_hardware_is_described_once():
    """The disks and buses are the host section's; the array section only
    carves them.  The old contradictory pair — a one-disk host under an
    array that brought four disks of its own — can no longer be written."""
    with pytest.raises(TypeError):
        ArrayConfig(volumes=2, buses=1, disks_per_bus=4)
    with pytest.raises(TypeError):
        ArrayConfig(volumes=2, num_disks=4)
    # More volumes than the host has disks is refused wherever the two meet.
    with pytest.raises(ConfigurationError):
        StackSpec(host=HostConfig(num_disks=1), array=ArrayConfig(volumes=2))
    with pytest.raises(ConfigurationError):
        StackSpec.from_dict({"host": {"num_disks": 1}, "array": {"volumes": 2}})
    # What the host says is what gets built.
    spec = StackSpec(host=HostConfig(num_disks=4, num_buses=1), array=ArrayConfig(volumes=2))
    assert len(build_stack(spec, SimulatedBinding()).disks) == 4


def test_simulator_with_prebuilt_stack_derives_its_config():
    spec = small_spec(host=HostConfig(num_disks=2), array=ArrayConfig(volumes=2))
    stack = build_stack(spec, SimulatedBinding())
    simulator = PatsySimulator(stack=stack)
    # A pre-built stack carries its own spec, not small_test_config().
    assert simulator.spec is spec
    assert simulator.cache is stack.cache
    # A spec describing a *different* stack is rejected, not blended.
    with pytest.raises(ConfigurationError):
        PatsySimulator(small_test_config(), stack=stack)
    # As is a stack built for the wrong world.
    online = build_stack(spec, OnlineBinding(size_bytes=16 * MB))
    with pytest.raises(ConfigurationError):
        PatsySimulator(stack=online)


def test_pfs_rejects_spec_plus_piecewise_keywords():
    spec = small_spec()
    assert PegasusFileSystem(spec).spec is spec
    # No spec: the default stack with a 2 MB cache.
    assert PegasusFileSystem().spec == StackSpec(cache=CacheConfig(size_bytes=2 * MB))
    # The stack is described by the spec alone.
    for piecewise in (
        {"cache": CacheConfig(size_bytes=1 * MB)},
        {"array": ArrayConfig(volumes=1)},
        {"io_scheduler": "clook"},
        {"seed": 0},
    ):
        with pytest.raises(TypeError):
            PegasusFileSystem(spec=spec, **piecewise)


def test_third_party_replacement_class_registers_directly():
    from repro.core.replacement import LruPolicy

    class MruLikePolicy(LruPolicy):
        name = "mru-test"

    # The registry docstring's pattern: register the class itself — every
    # policy class takes (capacity, rng, stats), so it is its own factory.
    registry.register("replacement", "mru-test", MruLikePolicy)
    try:
        policy = registry.create("replacement", "mru-test", 16)
        assert isinstance(policy, MruLikePolicy)
        cache_config = CacheConfig(size_bytes=16 * 4 * KB, replacement="mru-test")
        spec = small_spec(cache=cache_config)
        stack = build_stack(spec, SimulatedBinding())
        assert all(isinstance(shard.policy, MruLikePolicy) for shard in stack.cache.shards)
    finally:
        registry.unregister("replacement", "mru-test")


def test_simulator_from_spec_replays():
    spec = small_spec()
    simulator = PatsySimulator(spec, report_interval=60.0)
    assert simulator.spec is spec and simulator.latency.report_interval == 60.0
    from repro.patsy.traces import TraceRecord

    result = simulator.replay(
        [TraceRecord(0.1, 0, "write", "/f", offset=0, size=8 * KB)], trace_name="spec"
    )
    assert result.errors == 0 and result.operations == 1


# --------------------------------------------------------------------------- PFS on an array


def array_spec(volumes=3):
    return StackSpec(
        cache=CacheConfig(size_bytes=192 * 4 * KB),
        flush=FlushConfig(policy="periodic", nvram_bytes=16 * 4 * KB),
        layout=LayoutConfig(segment_size=16 * 4 * KB),
        host=HostConfig(num_disks=volumes, num_buses=1),
        array=ArrayConfig(volumes=volumes),
        seed=5,
    )


def test_pfs_mounts_a_multi_volume_array_spec():
    """The acceptance contract: the on-line world gains the array stack."""
    pfs = PegasusFileSystem(spec=array_spec(volumes=3), size_bytes=24 * MB)
    assert len(pfs.layout.sublayouts) == 3 and len(pfs.cache.shards) == 1
    assert len(pfs.drivers) == 3
    pfs.format()

    # Enough files to land on more than one volume under hash placement.
    pfs.mkdir("/data")
    payloads = {}
    for i in range(12):
        payload = bytes([i]) * (3000 + 251 * i)
        path = f"/data/file{i}.bin"
        payloads[path] = payload
        pfs.write_file(path, payload)

    # read/write/fsync round-trip through the handle interface.
    handle = pfs.open("/data/file3.bin")
    assert pfs.read(handle, 0, 10) == payloads["/data/file3.bin"][:10]
    pfs.write(handle, 0, b"PATCHED!")
    pfs.fsync(handle)
    pfs.close(handle)
    payloads["/data/file3.bin"] = (
        b"PATCHED!" + payloads["/data/file3.bin"][8:]
    )

    for path, payload in payloads.items():
        assert pfs.read_file(path) == payload, path
    assert sorted(pfs.listdir("/data")) == sorted(payloads_to_names(payloads))

    # The data really spread: more than one sub-layout wrote blocks.
    busy = sum(1 for sub in pfs.layout.sublayouts if sub.stats.blocks_written > 0)
    assert busy >= 2
    stats = pfs.statistics()
    assert stats["volumes"] == 3
    assert stats["layout"]["blocks_written"] > 0
    pfs.unmount()


def payloads_to_names(payloads):
    return [path.rsplit("/", 1)[1] for path in payloads]


@pytest.mark.parametrize("volumes", [1, 3])
def test_files_created_after_a_remount_get_fresh_inode_numbers(volumes):
    """The router resumes every volume's inode progression at mount.  It
    used to start over at the root's number, so the first file created on a
    remounted array replaced the root directory."""
    spec = array_spec(volumes=volumes)
    first = PegasusFileSystem(spec=spec, size_bytes=24 * MB)
    first.format()
    first.mkdir("/d")
    old = {f"/d/old{i}": bytes([i + 1]) * (5000 + 700 * i) for i in range(9)}
    for path, payload in old.items():
        first.write_file(path, payload)
    first.delete("/d/old8")
    del old["/d/old8"]
    taken = {first.stat(path)["ino"] for path in old} | {first.stat("/d")["ino"], 2}
    first.unmount()

    second = PegasusFileSystem(spec=spec, size_bytes=24 * MB)
    for source, target in zip(first.drivers, second.drivers):
        target.restore(source.snapshot())
    second.mount()
    new = {f"/d/new{i}": bytes([100 + i]) * (3000 + 900 * i) for i in range(9)}
    for path, payload in new.items():
        second.write_file(path, payload)
    numbers = [second.stat(path)["ino"] for path in new]
    assert len(set(numbers)) == len(numbers) and not set(numbers) & taken
    second.unmount()

    third = PegasusFileSystem(spec=spec, size_bytes=24 * MB)
    for source, target in zip(second.drivers, third.drivers):
        target.restore(source.snapshot())
    third.mount()
    assert sorted(third.listdir("/d")) == sorted(path[3:] for path in {**old, **new})
    for path, payload in {**old, **new}.items():
        assert third.read_file(path) == payload, path


def test_pfs_sun4_280_spec_mounts():
    """One spec, both worlds: the paper machine's stack mounts on-line."""
    spec = sun4_280_config(scale=0.002, seed=1)
    pfs = PegasusFileSystem(spec, size_bytes=40 * MB)
    assert len(pfs.layout.sublayouts) == 5 and len(pfs.drivers) == 10
    assert len(pfs.cache.shards) == 1
    pfs.format()
    pfs.write_file("/hello.txt", b"ten disks, three buses, five volumes")
    assert pfs.read_file("/hello.txt") == b"ten disks, three buses, five volumes"
    pfs.unmount()


# --------------------------------------------------------------------------- experiments


def test_full_hardware_experiment_runs_on_the_sun4_280_array():
    config = experiment_config("ups", memory_scale=0.01, full_hardware=True)
    assert config.host.num_disks == 10 and config.host.num_buses == 3
    assert config.array.volumes == 5
    assert config.flush.policy == "ups"
    # Default runs stay on the fast single-disk complement.
    default = experiment_config("ups", memory_scale=0.01)
    assert default.host.num_disks == 1 and default.array.volumes == 1


def test_array_knobs_without_full_hardware_fail_loudly():
    with pytest.raises(ConfigurationError):
        experiment_config("ups", memory_scale=0.01, volumes=2)
    with pytest.raises(ConfigurationError):
        experiment_config("ups", memory_scale=0.01, placement="stripe")


def test_with_array_fluent_api():
    experiment = DelayedWriteExperiment("1a", "write-delay", memory_scale=0.01)
    arrayed = experiment.with_array(volumes=2, placement="stripe")
    assert not experiment.full_hardware and arrayed.full_hardware
    spec = arrayed.spec()
    assert spec.array.volumes == 2
    assert spec.array.placement == "stripe"


def test_full_hardware_figure_benchmark_replays_on_the_array():
    """The ROADMAP item: a Figure 2-5 cell on the paper's disk complement."""
    experiment = DelayedWriteExperiment(
        "1a", "write-delay", memory_scale=0.01, trace_scale=0.05
    ).with_array()
    result = experiment.run()
    assert result.errors == 0
    assert result.volume_stats  # the run really went through the array
    assert len(result.volume_stats["per_volume"]) == 5


# --------------------------------------------------------------------------- spec diffing


def test_spec_diff_empty_for_identical_specs():
    from repro.assembly import spec_diff

    assert spec_diff(small_test_config(), small_test_config()) == {}


def test_spec_diff_reports_differing_fields_only():
    from repro.assembly import spec_diff

    from dataclasses import replace

    a = small_test_config()
    b = small_test_config(seed=7)
    b = replace(
        b, array=ArrayConfig(placement="stripe"), cache=replace(b.cache, replacement="lru")
    )
    delta = spec_diff(a, b)
    assert set(delta) == {"cache", "array", "seed"}
    assert delta["cache"] == {"replacement": ("arc", "lru")}
    assert delta["array"] == {"placement": ("hash", "stripe")}
    assert delta["seed"] == (0, 7)
    # Untouched sections never appear.
    assert "flush" not in delta and "layout" not in delta and "host" not in delta


def test_spec_diff_cluster_section_and_experiment_delta():
    from repro.assembly import spec_diff
    from repro.patsy.experiments import format_spec_delta

    from dataclasses import replace

    a = small_test_config()
    b = replace(a, cluster=ClusterConfig(nodes=3))
    # Every spec has every section: one machine is the one-node cluster.
    assert spec_diff(a, b) == {"cluster": {"nodes": (1, 3)}}
    # Experiments print manifest deltas through the same helper.
    base = DelayedWriteExperiment(trace_name="1a", policy_name="ups")
    arrayed = base.with_array(volumes=5)
    exp_delta = base.spec_delta(arrayed)
    assert set(exp_delta) <= {"cache", "flush", "host", "array", "cluster"}
    assert "array" in exp_delta
    text = format_spec_delta(exp_delta)
    assert "array" in text
    assert format_spec_delta({}) == "  (identical stacks)"
