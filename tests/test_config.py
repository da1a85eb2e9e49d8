"""Configuration objects and their validation."""

import ast
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.assembly.registry import registry
from repro.config import (
    ArrayConfig,
    CacheConfig,
    ClusterConfig,
    FlushConfig,
    HostConfig,
    LayoutConfig,
    StackSpec,
    small_test_config,
    sun4_280_config,
)
from repro.errors import ConfigurationError
from repro.units import MB

#: ``src/**/*.py`` lines once the replacement and disk-queue policies the
#: component matrix (``BENCH_components.json``) drops were deleted — RR,
#: LFU, SLRU, LRU-K, CLOCK, 2Q, LOOK, SCAN, C-SCAN and the per-block access
#: history only LRU-K read (18,494 → 17,871) — then directory placement and
#: the FFS layout (17,392), then the base class's unused read planner,
#: which paid for ARC's per-file ghost index (17,377), then the striped
#: default's host work, which paid for its own routing (17,373), then the
#: statistics plug-ins, the summing views and the duplicate preset and
#: cleaner counters (17,170), then the per-volume cache shards, the NVRAM
#: split and the dirty-ratio governor (17,007); the next change that adds
#: code raises it on purpose.
SRC_LINE_BUDGET = 17_007


def test_cache_config_defaults_and_blocks():
    config = CacheConfig(size_bytes=8 * MB)
    assert config.num_blocks == 2048
    assert config.replacement == "arc"


def test_cache_config_validation():
    with pytest.raises(ConfigurationError):
        CacheConfig(size_bytes=100, block_size=4096)
    listed = re.escape(f"registered: {registry.names('replacement')}")
    with pytest.raises(ConfigurationError, match=rf"unknown replacement policy 'mru'; {listed}"):
        CacheConfig(replacement="mru")
    with pytest.raises(ConfigurationError):
        CacheConfig(block_size=0)


def test_flush_config_validation():
    with pytest.raises(ConfigurationError):
        FlushConfig(policy="never")
    with pytest.raises(ConfigurationError):
        FlushConfig(nvram_bytes=0)
    assert FlushConfig(policy="nvram", whole_file=False).whole_file is False


def test_layout_config_validation():
    with pytest.raises(ConfigurationError):
        LayoutConfig(kind="zfs")
    with pytest.raises(ConfigurationError):
        LayoutConfig(cleaner_policy="oracular")


def test_host_config_validation_and_bus_mapping():
    host = HostConfig(num_disks=10, num_buses=3)
    assert host.bus_for_disk(0) == 0
    assert host.bus_for_disk(4) == 1
    assert host.bus_for_disk(5) == 2
    with pytest.raises(ConfigurationError):
        HostConfig(num_disks=1, num_buses=2)
    listed = re.escape(f"registered: {registry.names('iosched')}")
    with pytest.raises(ConfigurationError, match=rf"unknown I/O scheduler 'random'; {listed}"):
        HostConfig(io_scheduler="random")


#: names ``BENCH_components.json`` dropped: no module registers them.
DROPPED = {("placement", "directory"), ("layout", "ffs")}


@pytest.mark.parametrize(
    "kind, name, section, key",
    [
        ("replacement", "arc", CacheConfig, "replacement"),
        ("flush", "ups", FlushConfig, "policy"),
        ("layout", "ffs", LayoutConfig, "kind"),
        ("layout", "lfs", LayoutConfig, "kind"),
        ("cleaner", "greedy", LayoutConfig, "cleaner_policy"),
        ("iosched", "scan-edf", HostConfig, "io_scheduler"),
        ("placement", "stripe", ArrayConfig, "placement"),
        ("placement", "directory", ArrayConfig, "placement"),
    ],
    ids=lambda value: value if isinstance(value, str) else value.__name__,
)
def test_config_accepts_only_what_the_registry_holds(kind, name, section, key):
    """The registry is the one list of component names: an unregistered
    name (a dropped one, or one unregistered here) is rejected by the
    config, not by ``build_stack`` later on, with the names it does hold."""
    dropped = (kind, name) in DROPPED
    assert registry.has(kind, name) is not dropped
    factory = None if dropped else registry.get(kind, name)
    if factory is not None:
        section(**{key: name})
        registry.unregister(kind, name)
    try:
        listed = re.escape(f"registered: {registry.names(kind) or 'none'}")
        with pytest.raises(ConfigurationError, match=rf"{re.escape(repr(name))}; {listed}"):
            section(**{key: name})
    finally:
        if factory is not None:
            registry.register(kind, name, factory)
            section(**{key: name})


def test_a_fresh_interpreter_accepts_a_built_in_name():
    """Importing the config alone registers every built-in component."""
    code = "from repro.config import HostConfig; HostConfig(io_scheduler='scan-edf')"
    src = str(Path(repro.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)


def test_sun4_280_config_scaling():
    full = sun4_280_config(scale=1.0, volumes=1, placement="hash")
    assert full.cache.size_bytes == 128 * MB
    assert full.flush.nvram_bytes == 4 * MB
    assert full.host.num_disks == 10 and full.host.num_buses == 3
    assert full.array == ArrayConfig()
    half = sun4_280_config(scale=0.5)
    assert half.cache.size_bytes == 64 * MB
    with pytest.raises(ConfigurationError):
        sun4_280_config(scale=0.0)


def test_small_test_config_is_small():
    config = small_test_config()
    assert config.cache.num_blocks == 64
    assert config.host.num_disks == 1


def test_every_config_field_is_read_by_the_program():
    """A knob nothing reads cannot change what the program does, so it must
    not be offered.  Range checks in ``config.py``'s own ``__post_init__``
    do not count as a read; a derived property there (``num_blocks``)
    does.  The count is pinned so that a new knob is a
    decision, not a side effect."""
    package = Path(repro.__file__).parent
    read = set()
    for path in package.rglob("*.py"):
        tree = ast.parse(path.read_text())
        validation = {
            id(node)
            for function in ast.walk(tree)
            if path == package / "config.py"
            and isinstance(function, ast.FunctionDef)
            and function.name == "__post_init__"
            for node in ast.walk(function)
        }
        read |= {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and id(node) not in validation
        }
    configs = (
        CacheConfig,
        FlushConfig,
        LayoutConfig,
        HostConfig,
        ArrayConfig,
        ClusterConfig,
        StackSpec,
    )
    for config in configs:
        unread = [f.name for f in dataclasses.fields(config) if f.name not in read]
        assert not unread, f"{config.__name__} fields no code reads: {unread}"
    assert sum(len(dataclasses.fields(config)) for config in configs) == 35


def test_src_line_budget():
    """ROADMAP aim 2's bar as a test: ``src/`` may not grow past the figure
    the last simplicity PR reached without somebody deciding it should.
    Counted the way ``find src -name '*.py' | xargs wc -l`` counts."""
    package = Path(repro.__file__).parent
    lines = sum(path.read_bytes().count(b"\n") for path in package.rglob("*.py"))
    assert lines <= SRC_LINE_BUDGET, f"src/ is {lines} lines, budget {SRC_LINE_BUDGET}"
