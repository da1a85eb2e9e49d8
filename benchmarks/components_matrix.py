"""The component matrix: does each replacement and disk-queue policy earn its keep?

    python benchmarks/components_matrix.py                    # every row, write BENCH_components.json
    python benchmarks/components_matrix.py --check --seeds 1  # re-run, compare with the committed file

Every registered ``replacement`` name and every ``iosched`` name but
``scan-edf`` (judged by whether deadlines reach the disk queue, not here)
replays the same rows on seeds 1, 2 and 3; only simulated numbers are
recorded, so the file is byte-stable and ``--check`` compares with ``==``.
The judged metric is the mean simulated latency of an operation,
``sim_mean_ms``; the cache hit rate stands beside it.  ``KEEP_RULE`` was
written down before the first run and is copied into the file with the
verdicts it gives.

A name the file records but the registry no longer holds keeps its recorded
numbers (that run is the evidence it was dropped on), so a full run after a
deletion rewrites the same bytes.  ``--check`` re-runs only the names still
registered.  The script is not a test module: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
for path in (ROOT / "benchmarks" / "e2e", ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import measure  # noqa: E402  (benchmarks/e2e, by import only)
import workloads as wl  # noqa: E402
from benchmarks.test_ablation_iosched import run_policy as deep_queue  # noqa: E402
from benchmarks.test_ablation_replacement import PROFILE  # noqa: E402
from benchmarks.test_policy_comparison_workloads import make_profile  # noqa: E402
from repro.assembly.registry import registry  # noqa: E402
from repro.config import CacheConfig, StackSpec, small_test_config  # noqa: E402
from repro.patsy.experiments import DelayedWriteExperiment  # noqa: E402
from repro.patsy.simulator import PatsySimulator  # noqa: E402
from repro.patsy.synthetic import SPRITE_TRACE_NAMES  # noqa: E402
from repro.patsy.workload import ACCESS_PATTERNS, generate_workload  # noqa: E402
from repro.units import KB  # noqa: E402
from tests.test_policy_discrimination import SCAN_VS_HOTSET, TIGHT_LOOP  # noqa: E402

OUTPUT = ROOT / "BENCH_components.json"
SEEDS = (1, 2, 3)
METRIC = "sim_mean_ms"
#: a win is a mean latency at most this share of every rival's, seed by seed.
WIN_RATIO = 0.98
#: judged by whether deadlines reach the disk queue, not by this matrix.
UNJUDGED = {"iosched": ("scan-edf",)}
#: code duplicates: measured, to show they equal their original, but
#: dropped whatever they measure and never counted as a rival.
DUPLICATES = {"iosched": {"scan": "look", "cscan": "clook"}}
#: names that stay whatever they measure, and why.
REFERENCES = {
    "replacement": {"lru": "the paper's baseline"},
    "iosched": {
        "clook": "the paper's baseline (the production driver's policy)",
        "fcfs": "the no-scheduling reference test_ablation_iosched.py asserts against",
    },
}
KEEP_RULE = (
    "scan and cscan are dropped as code duplicates of look and clook; lru and clook stay as "
    "the paper's baselines and fcfs as the no-scheduling reference. Any other name stays only "
    f"if on at least one row its {METRIC} is <= {WIN_RATIO} x that of every other name of its "
    "kind (duplicates aside) on every seed, compared seed by seed: a seed changes the trace, so "
    "the spread across seeds measures the workload, not noise. Everything else is dropped."
)

Outcome = Tuple[float, Optional[float]]  # (sim_mean_ms, hit rate or None)


# --------------------------------------------------------------------------- rows


def _override(kind: str, name: str, spec: StackSpec) -> StackSpec:
    if kind == "replacement":
        return replace(spec, cache=replace(spec.cache, replacement=name))
    return replace(spec, host=replace(spec.host, io_scheduler=name))


def _replay(kind: str, names: List[str], spec: StackSpec, trace, trace_name: str,
            faults=None) -> Dict[str, Outcome]:
    """One trace replayed on ``spec`` under each name."""
    outcomes = {}
    for name in names:
        simulator = PatsySimulator(_override(kind, name, spec))
        if faults:
            simulator.inject_faults(faults)
        result = simulator.replay(trace, trace_name=trace_name)
        if result.errors:
            raise SystemExit(f"{trace_name} under {name}: {result.errors} operations failed")
        outcomes[name] = (1e3 * result.mean_latency, result.cache_stats["hit_rate"])
    return outcomes


def _e2e(workload: str):
    """Day 0 of an end-to-end workload, on the stack its driver builds."""

    def run(kind: str, names: List[str], seed: int, workdir: Path) -> Dict[str, Outcome]:
        shape = wl.SHAPES[workload]
        trace = workdir / f"{workload}-{seed}.trace"
        faults = None
        if workload == "pfs_online":  # the simulated twin, as measure.pfs_twin builds it
            script = workdir / f"pfs_online-{seed}.nfs"
            wl.write_script(shape, f"{seed}.0", script)
            trace = workdir / (script.stem + ".twin.trace")
            wl.script_as_trace(script, trace)
            workload_name = "pfs_online-twin"
        else:
            wl.write_trace(shape, f"{seed}.0", trace)
            workload_name = workload
            if workload == "cluster_repl":
                faults = measure.fault_schedule(shape.span)
        return _replay(kind, names, measure.patsy_config(workload), str(trace), workload_name, faults)

    return run


def _sprite(trace_name: str):
    """A Sprite-like trace under the write-delay policy at the experiments' memory scale."""

    def run(kind: str, names: List[str], seed: int, workdir: Path) -> Dict[str, Outcome]:
        experiment = DelayedWriteExperiment(trace_name, "write-delay", trace_scale=1.0, seed=seed)
        return _replay(kind, names, experiment.spec(), experiment.trace(), trace_name)

    return run


def _small(profile, cache_blocks: int):
    """A generated workload on the small test stack with a cache of ``cache_blocks``."""

    def run(kind: str, names: List[str], seed: int, workdir: Path) -> Dict[str, Outcome]:
        spec = replace(small_test_config(seed=seed), cache=CacheConfig(size_bytes=cache_blocks * 4 * KB))
        return _replay(kind, names, spec, generate_workload(profile, seed=seed), profile.name)

    return run


def _deep_queue(kind: str, names: List[str], seed: int, workdir: Path) -> Dict[str, Outcome]:
    return {name: (1e3 * deep_queue(name, request_seed=seed)["mean_response"], None) for name in names}


def rows(kind: str) -> Dict[str, Callable]:
    table: Dict[str, Callable] = {}
    for workload in wl.SHAPES:
        table[f"e2e/{workload}"] = _e2e(workload)
    for trace_name in SPRITE_TRACE_NAMES:
        table[f"sprite/{trace_name}"] = _sprite(trace_name)
    if kind == "replacement":
        for pattern in ACCESS_PATTERNS:
            table[f"pattern/{pattern}"] = _small(make_profile(pattern), 40)
        table["ablation/replacement"] = _small(PROFILE, 48)
        table["discrimination/scan-vs-hotset"] = _small(SCAN_VS_HOTSET, 32)
        table["discrimination/tight-loop"] = _small(TIGHT_LOOP, 64)
    else:
        table["queue/deep"] = _deep_queue
    return table


def judged(kind: str) -> List[str]:
    return [name for name in registry.names(kind) if name not in UNJUDGED.get(kind, ())]


def measure_kind(kind: str, names: List[str], seeds: Tuple[int, ...]) -> Dict[str, dict]:
    """``{row: {name: {metric: [one value per seed]}}}`` for ``names``."""
    table: Dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix="components-") as work:
        for row, run in rows(kind).items():
            cells = {name: {METRIC: [], "hit_rate": []} for name in names}
            for seed in seeds:
                for name, (mean_ms, hit) in run(kind, names, seed, Path(work)).items():
                    cells[name][METRIC].append(mean_ms)
                    cells[name]["hit_rate"].append(hit)
            table[row] = cells
            print(f"{kind:<12} {row:<32} " + "  ".join(
                f"{name} {cell[METRIC][0]:.4g}" for name, cell in cells.items()), flush=True)
    return table


# --------------------------------------------------------------------------- verdicts


def verdicts(kind: str, table: Dict[str, dict]) -> Dict[str, dict]:
    names = sorted(next(iter(table.values())))
    duplicates = DUPLICATES.get(kind, {})
    rivals = [name for name in names if name not in duplicates]
    out: Dict[str, dict] = {}
    for name in names:
        if name in duplicates:
            original = duplicates[name]
            identical = all(cells[name] == cells[original] for cells in table.values())
            out[name] = {"verdict": "dropped",
                         "why": f"code duplicate of {original} (identical on every row: {identical})"}
            continue
        # Per row, the worst seed's ratio to the best rival; <= WIN_RATIO is a win.
        ratios = {}
        for row, cells in table.items():
            ratios[row] = max(
                cells[name][METRIC][i] / min(cells[other][METRIC][i] for other in rivals if other != name)
                for i in range(len(cells[name][METRIC]))
            )
        best = min(ratios, key=lambda row: (ratios[row], row))
        entry = {"best_row": best, "best_row_worst_seed_ratio": round(ratios[best], 4)}
        if name in REFERENCES.get(kind, {}):
            entry.update(verdict="kept", why=REFERENCES[kind][name])
        elif ratios[best] <= WIN_RATIO:
            entry.update(verdict="kept", why=f"wins {best}", won=best)
        else:
            entry.update(verdict="dropped", why="wins no row on every seed")
        out[name] = entry
    return out


def document(tables: Dict[str, Dict[str, dict]]) -> dict:
    kinds = {}
    for kind, table in tables.items():
        judgement = verdicts(kind, table)
        kinds[kind] = {
            "kept": sorted(name for name, entry in judgement.items() if entry["verdict"] == "kept"),
            "dropped": sorted(name for name, entry in judgement.items() if entry["verdict"] == "dropped"),
            "unjudged": list(UNJUDGED.get(kind, ())),
            "verdicts": judgement,
            "rows": table,
        }
    return {
        "about": "simulated numbers only: mean operation latency (ms) and cache hit rate per "
                 "row, name and seed; written by benchmarks/components_matrix.py",
        "keep_rule": KEEP_RULE,
        "metric": METRIC,
        "seeds": list(SEEDS),
        "kinds": kinds,
    }


def dump(doc: dict) -> str:
    """JSON with one line per list of values (a value per seed)."""
    text = json.dumps(doc, indent=1)
    return re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                  lambda m: "[" + ", ".join(v.strip() for v in m.group(1).split(",")) + "]", text) + "\n"


# --------------------------------------------------------------------------- main


def check(committed: dict, seeds: Tuple[int, ...]) -> int:
    """Re-run the names still registered on ``seeds``; 1 if any value differs."""
    differences = 0
    for kind, recorded in committed["kinds"].items():
        names = judged(kind)
        if set(names) != set(recorded["kept"]):
            print(f"{kind}: registered {names}, the file keeps {recorded['kept']}")
            differences += 1
        table = measure_kind(kind, names, seeds)
        for row, cells in table.items():
            for name, values in cells.items():
                for metric, got in values.items():
                    want = [recorded["rows"][row][name][metric][committed["seeds"].index(s)] for s in seeds]
                    if got != want:
                        differences += 1
                        print(f"DIFFERS {kind} {row} {name} {metric}: {got} != committed {want}")
    print("components matrix: " + (f"{differences} differences" if differences else "identical"))
    return 1 if differences else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--check", action="store_true",
                        help="compare the registered names' values with the committed file instead of writing it")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS), choices=SEEDS)
    args = parser.parse_args(argv)
    seeds = tuple(args.seeds)
    committed = json.loads(OUTPUT.read_text()) if OUTPUT.exists() else None
    if args.check:
        if committed is None:
            raise SystemExit(f"{OUTPUT.name} is missing: nothing to check against")
        return check(committed, seeds)
    if seeds != SEEDS:
        raise SystemExit(f"the file records seeds {list(SEEDS)}; --seeds is for --check")
    tables = {}
    for kind in ("replacement", "iosched"):
        names = judged(kind)
        table = measure_kind(kind, names, seeds)
        if committed is not None:  # names deleted since keep what they measured
            for row, cells in committed["kinds"][kind]["rows"].items():
                for name, values in cells.items():
                    if name not in names:
                        table[row][name] = values
        tables[kind] = {row: dict(sorted(cells.items())) for row, cells in table.items()}
    OUTPUT.write_text(dump(document(tables)))
    print(f"wrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
