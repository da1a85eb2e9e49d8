"""The delayed-write ("write saving") experiments of Section 5.1.

Four policies are compared on the (synthetic stand-ins for the) Sprite
traces, on a simulated Sprite file server — ten HP 97560 disks on three
SCSI-2 buses running a segmented LFS:

* ``write-delay`` — the ordinary Unix 30-second-update baseline,
* ``ups`` — flush only when the cache runs out of non-dirty blocks,
* ``nvram-whole-file`` — 4 MB NVRAM; when full, flush the whole file that
  owns the oldest dirty block,
* ``nvram-partial-file`` — 4 MB NVRAM; when full, flush only the oldest
  dirty block.

The helpers here build the right :class:`~repro.config.StackSpec`
for each policy, run a :class:`~repro.patsy.simulator.PatsySimulator` over a
trace and return the measurements that Figures 2-5 are drawn from.
Because the synthetic traces are minutes rather than 24 hours, the memory
sizes are scaled down by the same factor (``memory_scale``); the published
*ordering* of the policies is what the reproduction checks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, Optional, Sequence

from repro.assembly.spec import spec_diff
from repro.config import FlushConfig, StackSpec, sun4_280_config
from repro.errors import ConfigurationError
from repro.patsy.simulator import PatsySimulator, SimulationResult
from repro.patsy.synthetic import SPRITE_TRACE_NAMES, sprite_like_trace
from repro.patsy.traces import TraceRecord

__all__ = [
    "EXPERIMENT_POLICIES",
    "FULL_HARDWARE_VOLUMES",
    "DelayedWriteExperiment",
    "experiment_config",
    "run_delayed_write_experiment",
    "run_policy_comparison",
    "mean_latency_table",
    "format_spec_delta",
]

#: the four policies of Section 5.1, in the order the paper discusses them.
EXPERIMENT_POLICIES: Dict[str, FlushConfig] = {
    "write-delay": FlushConfig(policy="periodic", update_interval=30.0, scan_interval=5.0),
    "ups": FlushConfig(policy="ups"),
    "nvram-whole-file": FlushConfig(policy="nvram", whole_file=True),
    "nvram-partial-file": FlushConfig(policy="nvram", whole_file=False),
}

#: default memory scale: the synthetic traces are minutes instead of 24 hours
#: and carry correspondingly less data, so the cache and NVRAM shrink by the
#: same factor (1/2 gives a 64 MB cache and a 2 MB NVRAM).  What matters for
#: the published effects is that (a) the live dirty set of a normal trace fits
#: in the cache, (b) a normal 30-second write burst fits in the NVRAM, and
#: (c) the write-heavy traces (1b, 5) overflow the NVRAM — all three regimes
#: are preserved at this scale.
DEFAULT_MEMORY_SCALE = 1.0 / 2.0

#: the paper machine's array shape used when ``full_hardware=True``; its
#: files stay whole, as on the traced Sprite server's file systems.
FULL_HARDWARE_VOLUMES, FULL_HARDWARE_PLACEMENT = 5, "hash"


@dataclass(frozen=True)
class DelayedWriteExperiment:
    """A fully-specified experiment: one trace replayed under one policy.

    ``full_hardware=True`` puts the run on the paper's evaluation machine —
    the ``sun4_280`` preset's ten-disk/three-bus storage array, carved into
    ``volumes`` volumes with ``placement`` routing — instead of the fast
    single-disk default.  :meth:`with_array` is the fluent form.
    """

    trace_name: str
    policy_name: str
    memory_scale: float = DEFAULT_MEMORY_SCALE
    trace_scale: float = 1.0
    seed: int = 0
    full_hardware: bool = False
    volumes: int = FULL_HARDWARE_VOLUMES
    placement: str = FULL_HARDWARE_PLACEMENT

    def with_array(
        self, volumes: int = FULL_HARDWARE_VOLUMES, placement: str = FULL_HARDWARE_PLACEMENT
    ) -> "DelayedWriteExperiment":
        """This experiment on the paper's ten-disk array (fluent API)."""
        return replace(self, full_hardware=True, volumes=volumes, placement=placement)

    def spec(self) -> StackSpec:
        """The world-independent stack this experiment runs on."""
        return experiment_config(
            self.policy_name,
            memory_scale=self.memory_scale,
            seed=self.seed,
            full_hardware=self.full_hardware,
            volumes=self.volumes,
            placement=self.placement,
        )

    def spec_delta(self, other: "DelayedWriteExperiment") -> dict:
        """The manifest delta between this experiment's stack and another's
        (see :func:`repro.assembly.spec.spec_diff`): exactly the knobs that
        separate the two runs, nothing else."""
        return spec_diff(self.spec(), other.spec())

    def trace(self) -> list[TraceRecord]:
        return sprite_like_trace(self.trace_name, scale=self.trace_scale, seed=self.seed)

    def run(self) -> SimulationResult:
        simulator = PatsySimulator(self.spec())
        result = simulator.replay(self.trace(), trace_name=self.trace_name)
        result.policy_name = self.policy_name
        return result


def experiment_config(
    policy_name: str,
    memory_scale: float = DEFAULT_MEMORY_SCALE,
    seed: int = 0,
    full_hardware: bool = False,
    volumes: int = FULL_HARDWARE_VOLUMES,
    placement: str = FULL_HARDWARE_PLACEMENT,
) -> StackSpec:
    """The stack for one of the Section 5.1 policies.

    With ``full_hardware=True`` the stack is the ``sun4_280`` storage
    array — the Figure 2–5 benchmarks on the paper's real ten-disk,
    three-bus complement (the ROADMAP "array-aware experiments" item).
    """
    if policy_name not in EXPERIMENT_POLICIES:
        raise ConfigurationError(
            f"unknown experiment policy {policy_name!r}; "
            f"known policies: {sorted(EXPERIMENT_POLICIES)}"
        )
    array = (volumes, placement)
    if not full_hardware and array != (FULL_HARDWARE_VOLUMES, FULL_HARDWARE_PLACEMENT):
        # The array shape only exists on the full-hardware stack; ignoring
        # these silently would report single-disk runs as array results.
        raise ConfigurationError(
            "volumes/placement only apply with full_hardware=True "
            "(use DelayedWriteExperiment.with_array(...) for the fluent form)"
        )
    if full_hardware:
        base = sun4_280_config(
            scale=memory_scale, seed=seed, volumes=volumes, placement=placement
        )
    else:
        # One disk on one bus: the full complement is there with
        # ``full_hardware=True``, but the smaller one keeps the default runs
        # fast and concentrates the queueing effects the experiments are about.
        base = sun4_280_config(
            scale=memory_scale, seed=seed, volumes=1, placement="hash", num_disks=1, buses=1
        )
    # The policy's knobs, with the scaled NVRAM size of the base stack.
    flush = replace(EXPERIMENT_POLICIES[policy_name], nvram_bytes=base.flush.nvram_bytes)
    return replace(base, flush=flush)


def format_spec_delta(delta: dict, indent: str = "  ") -> str:
    """Render a :func:`repro.assembly.spec.spec_diff` result for a log.

    One line per differing field — ``section.field: a -> b`` — so an
    experiment can print what separates two manifests instead of dumping
    two full specs.  Returns ``"(identical stacks)"`` for an empty delta.
    """
    if not delta:
        return f"{indent}(identical stacks)"
    lines = []
    for section, value in sorted(delta.items()):
        if isinstance(value, dict):
            for field_name, (a, b) in sorted(value.items()):
                lines.append(f"{indent}{section}.{field_name}: {a!r} -> {b!r}")
        else:
            a, b = value
            lines.append(f"{indent}{section}: {a!r} -> {b!r}")
    return "\n".join(lines)


def run_delayed_write_experiment(
    trace_name: str,
    policy_name: str,
    memory_scale: float = DEFAULT_MEMORY_SCALE,
    trace_scale: float = 1.0,
    seed: int = 0,
    full_hardware: bool = False,
    volumes: int = FULL_HARDWARE_VOLUMES,
    placement: str = FULL_HARDWARE_PLACEMENT,
) -> SimulationResult:
    """Run one (trace, policy) cell of the evaluation."""
    experiment = DelayedWriteExperiment(
        trace_name=trace_name,
        policy_name=policy_name,
        memory_scale=memory_scale,
        trace_scale=trace_scale,
        seed=seed,
        full_hardware=full_hardware,
        volumes=volumes,
        placement=placement,
    )
    return experiment.run()


def run_policy_comparison(
    trace_name: str,
    policies: Optional[Iterable[str]] = None,
    memory_scale: float = DEFAULT_MEMORY_SCALE,
    trace_scale: float = 1.0,
    seed: int = 0,
    full_hardware: bool = False,
    volumes: int = FULL_HARDWARE_VOLUMES,
    placement: str = FULL_HARDWARE_PLACEMENT,
) -> Dict[str, SimulationResult]:
    """Replay one trace under several policies (one Figure 2-4 panel)."""
    chosen = list(policies) if policies is not None else list(EXPERIMENT_POLICIES)
    results: Dict[str, SimulationResult] = {}
    for policy_name in chosen:
        results[policy_name] = run_delayed_write_experiment(
            trace_name,
            policy_name,
            memory_scale=memory_scale,
            trace_scale=trace_scale,
            seed=seed,
            full_hardware=full_hardware,
            volumes=volumes,
            placement=placement,
        )
    return results


def mean_latency_table(
    trace_names: Optional[Sequence[str]] = None,
    policies: Optional[Iterable[str]] = None,
    memory_scale: float = DEFAULT_MEMORY_SCALE,
    trace_scale: float = 1.0,
    seed: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Figure 5: mean file-system latency for every trace under every policy.

    Returns ``{trace: {policy: mean latency in seconds}}``.
    """
    traces = list(trace_names) if trace_names is not None else list(SPRITE_TRACE_NAMES)
    table: Dict[str, Dict[str, float]] = {}
    for trace_name in traces:
        results = run_policy_comparison(
            trace_name,
            policies=policies,
            memory_scale=memory_scale,
            trace_scale=trace_scale,
            seed=seed,
        )
        table[trace_name] = {name: result.mean_latency for name, result in results.items()}
    return table
