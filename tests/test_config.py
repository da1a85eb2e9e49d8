"""Configuration objects and their validation."""

import ast
import dataclasses
from pathlib import Path

import pytest

import repro
from repro.config import (
    ArrayConfig,
    CacheConfig,
    ClusterConfig,
    FlushConfig,
    HostConfig,
    LayoutConfig,
    StackSpec,
    small_test_config,
    sprite_server_config,
)
from repro.errors import ConfigurationError
from repro.units import MB

#: ``src/**/*.py`` lines after PR 22; the next simplicity PR ratchets it down.
SRC_LINE_BUDGET = 19_219


def test_cache_config_defaults_and_blocks():
    config = CacheConfig(size_bytes=8 * MB)
    assert config.num_blocks == 2048
    assert config.replacement == "lru"


def test_cache_config_validation():
    with pytest.raises(ConfigurationError):
        CacheConfig(size_bytes=100, block_size=4096)
    with pytest.raises(ConfigurationError):
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
        LayoutConfig(cleaner_low_water=0.9, cleaner_high_water=0.5)
    with pytest.raises(ConfigurationError):
        LayoutConfig(cleaner_policy="oracular")


def test_host_config_validation_and_bus_mapping():
    host = HostConfig(num_disks=10, num_buses=3)
    assert host.bus_for_disk(0) == 0
    assert host.bus_for_disk(4) == 1
    assert host.bus_for_disk(5) == 2
    with pytest.raises(ConfigurationError):
        HostConfig(num_disks=1, num_buses=2)
    with pytest.raises(ConfigurationError):
        HostConfig(io_scheduler="random")


def test_sprite_server_config_scaling():
    full = sprite_server_config(scale=1.0)
    assert full.cache.size_bytes == 128 * MB
    assert full.flush.nvram_bytes == 4 * MB
    assert full.host.num_disks == 10 and full.host.num_buses == 3
    half = sprite_server_config(scale=0.5)
    assert half.cache.size_bytes == 64 * MB
    with pytest.raises(ConfigurationError):
        sprite_server_config(scale=0.0)


def test_small_test_config_is_small():
    config = small_test_config()
    assert config.cache.num_blocks == 64
    assert config.host.num_disks == 1


def test_every_config_field_is_read_by_the_program():
    """A knob nothing reads cannot change what the program does, so it must
    not be offered.  Range checks in ``config.py``'s own ``__post_init__``
    do not count as a read; a derived property there (``num_blocks``,
    ``index_config()``) does.  The count is pinned so that a new knob is a
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
    assert sum(len(dataclasses.fields(config)) for config in configs) == 54


def test_src_line_budget():
    """ROADMAP aim 2's bar as a test: ``src/`` may not grow past the figure
    the last simplicity PR reached without somebody deciding it should.
    Counted the way ``find src -name '*.py' | xargs wc -l`` counts."""
    package = Path(repro.__file__).parent
    lines = sum(path.read_bytes().count(b"\n") for path in package.rglob("*.py"))
    assert lines <= SRC_LINE_BUDGET, f"src/ is {lines} lines, budget {SRC_LINE_BUDGET}"
