"""``StackSpec``: a world-independent description of a full storage stack.

A spec says *what* the stack is — cache geometry and replacement policy,
flush policy and governor marks, storage layout(s), array shape and
placement, cleaner policy — without saying *where* it runs.  The same spec
builds the off-line simulator (PATSY) under a
:class:`~repro.assembly.bindings.SimulatedBinding` and the on-line file
system (PFS) under an :class:`~repro.assembly.bindings.OnlineBinding`;
that is the paper's cut-and-paste claim made into an object.

Specs are frozen (hashable, safe to share between runs) and serialise to
plain dicts, so an experiment manifest can carry the exact stack it ran —
``StackSpec.from_dict(json.load(f))`` rebuilds it bit-for-bit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Dict, Optional, get_args, get_type_hints

from repro.config import (
    ArrayConfig,
    CacheConfig,
    ClusterConfig,
    FlushConfig,
    HostConfig,
    LayoutConfig,
    SimulationConfig,
)
from repro.errors import ConfigurationError

__all__ = ["StackSpec", "spec_diff"]

#: sub-config dataclass per StackSpec field, for (de)serialisation.
_SECTION_TYPES = {
    "cache": CacheConfig,
    "flush": FlushConfig,
    "layout": LayoutConfig,
    "host": HostConfig,
    "array": ArrayConfig,
    "cluster": ClusterConfig,
}


def _section_from_dict(name: str, section_type: type, section: Dict[str, Any]) -> Any:
    """One sub-config from its manifest dict: unknown keys and values of the
    wrong type are rejected by section and key before the dataclass's own
    range checks see them."""
    hints = get_type_hints(section_type)
    bad = set(section) - set(hints)
    if bad:
        raise ConfigurationError(
            f"unknown keys in StackSpec section {name!r}: {sorted(bad)}"
        )
    for key, value in section.items():
        allowed = get_args(hints[key]) or (hints[key],)  # Optional[float] -> (float, NoneType)
        if float in allowed:
            allowed += (int,)
        if not isinstance(value, allowed) or (isinstance(value, bool) and bool not in allowed):
            wanted = " or ".join(t.__name__ for t in allowed)
            raise ConfigurationError(
                f"StackSpec section {name!r}, key {key!r}: expected {wanted}, got {value!r}"
            )
    return section_type(**section)


@dataclass(frozen=True)
class StackSpec:
    """Declarative description of one storage stack.

    The fields mirror :class:`~repro.config.SimulationConfig`'s sub-configs
    — they *are* those dataclasses, so every knob documented there applies
    unchanged.  ``host`` describes the hardware complement: the simulated
    binding builds exactly that machine (disk model, buses, I/O scheduler);
    the on-line binding keeps the disk/volume counts and the I/O scheduler
    and ignores the performance model underneath.
    """

    cache: CacheConfig = field(default_factory=CacheConfig)
    flush: FlushConfig = field(default_factory=FlushConfig)
    layout: LayoutConfig = field(default_factory=LayoutConfig)
    host: HostConfig = field(default_factory=HostConfig)
    #: how each machine's disks are carved into volumes (default: one
    #: volume over all of the host's disks).
    array: ArrayConfig = field(default_factory=ArrayConfig)
    #: multi-machine cluster tier; None (or one node) = a single machine.
    cluster: Optional[ClusterConfig] = None
    #: seed for the scheduler and any synthesised parameters.
    seed: int = 0

    def __post_init__(self) -> None:
        self.array.check_fits(self.host)

    # ------------------------------------------------------------------ derived shape

    @property
    def num_nodes(self) -> int:
        return self.cluster.nodes if self.cluster is not None else 1

    @property
    def volumes_per_node(self) -> int:
        """One node's volume complement."""
        return self.array.volumes

    @property
    def num_volumes(self) -> int:
        return self.num_nodes * self.volumes_per_node

    @property
    def disks_per_node(self) -> int:
        """One node's disk complement."""
        return self.host.num_disks

    @property
    def num_disks(self) -> int:
        """Total disk complement over every node of the cluster."""
        return self.num_nodes * self.disks_per_node

    @property
    def num_buses(self) -> int:
        """Total bus complement (each node carries its own buses)."""
        return self.num_nodes * self.host.num_buses

    def node_of_volume(self, volume_index: int) -> int:
        """Cluster node one volume belongs to (volumes never span nodes)."""
        return volume_index // self.volumes_per_node

    def node_of_disk(self, disk_index: int) -> int:
        """Cluster node one disk belongs to (disks never span nodes)."""
        return disk_index // self.disks_per_node

    def bus_for_disk(self, disk_index: int) -> int:
        """Global bus index of one disk (buses never span nodes)."""
        node, local = divmod(disk_index, self.disks_per_node)
        return node * self.host.num_buses + self.host.bus_for_disk(local)

    def disks_of_volume(self, volume_index: int) -> range:
        """Global disk indices of one volume: a node's disks are split into
        contiguous runs, the first ``disks % volumes`` volumes taking the
        spare ones."""
        if not (0 <= volume_index < self.num_volumes):
            raise ConfigurationError(
                f"no volume {volume_index} in a {self.num_volumes}-volume stack"
            )
        node, local = divmod(volume_index, self.volumes_per_node)
        base, extra = divmod(self.disks_per_node, self.volumes_per_node)
        start = node * self.disks_per_node + local * base + min(local, extra)
        return range(start, start + base + (1 if local < extra else 0))

    # ------------------------------------------------------------------ conversions

    @classmethod
    def from_config(cls, config: SimulationConfig) -> "StackSpec":
        """The stack described by a full simulation configuration."""
        return cls(
            cache=config.cache,
            flush=config.flush,
            layout=config.layout,
            host=config.host,
            array=config.array,
            cluster=config.cluster,
            seed=config.seed,
        )

    def to_config(self, **overrides: Any) -> SimulationConfig:
        """A :class:`~repro.config.SimulationConfig` running this stack.

        ``overrides`` forwards the run-scoped knob the spec does not carry
        (``report_interval``).
        """
        return SimulationConfig(
            cache=self.cache,
            flush=self.flush,
            layout=self.layout,
            host=self.host,
            array=self.array,
            cluster=self.cluster,
            seed=self.seed,
            **overrides,
        )

    def with_array(self, array: ArrayConfig) -> "StackSpec":
        """A copy of this spec with its disks carved differently."""
        return replace(self, array=array)

    def with_cluster(self, cluster: Optional[ClusterConfig]) -> "StackSpec":
        """A copy of this spec on a different cluster shape (None removes it)."""
        return replace(self, cluster=cluster)

    # ------------------------------------------------------------------ serialisation

    def to_dict(self) -> Dict[str, Any]:
        """A plain-dict form (JSON-safe) for experiment manifests."""
        data: Dict[str, Any] = {}
        for name, section_type in _SECTION_TYPES.items():
            value = getattr(self, name)
            data[name] = None if value is None else asdict(value)
        data["seed"] = self.seed
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "StackSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        Missing (or ``null``) sections take their defaults; unknown keys
        (inside a section or at the top level) and values of the wrong type
        are rejected by name, so a typo in a manifest fails loudly instead
        of silently running the default stack.
        """
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(f"unknown StackSpec keys: {sorted(unknown)}")
        kwargs: Dict[str, Any] = {}
        for name, section_type in _SECTION_TYPES.items():
            section = data.get(name)
            if section is None:
                continue
            if not isinstance(section, dict):
                raise ConfigurationError(f"StackSpec section {name!r} must be a dict")
            kwargs[name] = _section_from_dict(name, section_type, section)
        if "seed" in data:
            try:
                kwargs["seed"] = int(data["seed"])
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"StackSpec key 'seed' must be an integer, got {data['seed']!r}"
                ) from None
        return cls(**kwargs)


def spec_diff(a: StackSpec, b: StackSpec) -> Dict[str, Any]:
    """The fields on which two specs differ, as a nested dict.

    Returns ``{section: {field: (a_value, b_value)}}`` for every differing
    sub-config field, ``{section: (a_section_or_None, b_section_or_None)}``
    when a whole section is present on one side only, and
    ``{"seed": (a, b)}`` for the top-level seed.  An empty dict means the
    specs describe the same stack.  Experiments use this to print manifest
    deltas — the exact knobs that separate two runs — instead of two full
    specs.
    """
    diff: Dict[str, Any] = {}
    for name in _SECTION_TYPES:
        section_a = getattr(a, name)
        section_b = getattr(b, name)
        if section_a == section_b:
            continue
        if section_a is None or section_b is None:
            diff[name] = (
                None if section_a is None else asdict(section_a),
                None if section_b is None else asdict(section_b),
            )
            continue
        fields_diff = {
            f.name: (getattr(section_a, f.name), getattr(section_b, f.name))
            for f in fields(section_a)
            if getattr(section_a, f.name) != getattr(section_b, f.name)
        }
        if fields_diff:
            diff[name] = fields_diff
    if a.seed != b.seed:
        diff["seed"] = (a.seed, b.seed)
    return diff
