"""Shared configuration for the reproduction benchmarks.

Every benchmark regenerates one of the paper's evaluation artefacts
(Figures 2-5) or an ablation called out in DESIGN.md.  The heavy work is a
full trace-driven simulation, so each benchmark runs one round via
``benchmark.pedantic`` and prints the regenerated table/figure so that
``pytest benchmarks/ --benchmark-only -s`` reproduces the paper's numbers in
one go.  ``BENCH_TRACE_SCALE`` trims the synthetic traces so a full
benchmark run stays in the minutes range.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

#: fraction of the full synthetic trace replayed by the benchmarks.
#: Overridable via the environment so CI can run a reduced smoke pass
#: (e.g. ``BENCH_TRACE_SCALE=0.25``) while local runs keep the default.
BENCH_TRACE_SCALE = float(os.environ.get("BENCH_TRACE_SCALE", "0.4"))

#: seed shared by every benchmark run (results are deterministic).
BENCH_SEED = 2


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def recorded_ranking(row: str, metric: str, seed: int = BENCH_SEED) -> list:
    """The registered replacement policies, lowest ``metric`` first, as
    ``BENCH_components.json`` (``benchmarks/components_matrix.py``) records
    them on ``row`` at ``seed``."""
    from repro.assembly.registry import registry

    matrix = json.loads((Path(__file__).resolve().parents[1] / "BENCH_components.json").read_text())
    cells = matrix["kinds"]["replacement"]["rows"][row]
    column = matrix["seeds"].index(seed)
    return ranking({name: {metric: cells[name][metric][column]} for name in registry.names("replacement")}, metric)


def ranking(values: dict, metric: str) -> list:
    """Names ordered by ``values[name][metric]``, lowest first, ties by name."""
    return sorted(values, key=lambda name: (values[name][metric], name))


def write_results(name: str, simulated: dict, host: dict) -> None:
    """Publish one benchmark's numbers at the repository root.

    ``BENCH_<name>.json`` is tracked and holds only what repeats exactly —
    simulated time and counters — so a re-run leaves no diff;
    ``BENCH_<name>.host.json`` is git-ignored and holds what this machine's
    clock and allocator measured.  The ``check_*_baseline.py`` gates refuse
    to run without the host file: it is the proof the benchmark ran here.
    """
    root = Path(__file__).resolve().parents[1]
    (root / f"BENCH_{name}.json").write_text(json.dumps(simulated, indent=2) + "\n")
    (root / f"BENCH_{name}.host.json").write_text(json.dumps(host, indent=2) + "\n")
