"""The component matrix: does each replacement, disk-queue, placement and layout earn its keep?

    python benchmarks/components_matrix.py                    # every row, write BENCH_components.json
    python benchmarks/components_matrix.py --check --seeds 1  # re-run, compare with the committed file

Every registered ``replacement``, ``iosched``, ``placement`` and ``layout``
name but the unjudged ones (``UNJUDGED``) replays the same rows on seeds 1,
2 and 3; only simulated numbers are recorded, so the file is byte-stable
and ``--check`` compares with ``==``.  The judged metric is the mean
simulated latency of an operation, ``sim_mean_ms``; the cache hit rate
stands beside it (and, on the cold-read row, the mean of its reads alone).
A name that cannot build a row's stack records ``null`` there and wins
nothing on it.  ``KEEP_RULE`` was written down before the first run and is
copied into the file with the verdicts it gives.  Per kind the file also
lists the rows on which the kept names measured the same on every seed (two
of them at least, so a row only one kept name can build is not listed):
rows that judge nothing.

A name the file records but the registry no longer holds keeps its recorded
numbers (that run is the evidence it was dropped on), so a full run after a
deletion rewrites the same bytes.  Where a row's stack changed after such a
name was deleted (a preset's default moved), its cells there are ``null``:
its numbers came from another stack.  ``--check`` re-runs only the names still
registered, and derives the kept, dropped and uninformative lists from the
committed rows again.  The script is not a test module: pytest does not
collect it.
"""

from __future__ import annotations

import argparse
import json
import random
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
from benchmarks.test_array_scaling import STEPS as ARRAY_STEPS, scaling_workload  # noqa: E402
from benchmarks.test_policy_comparison_workloads import make_profile  # noqa: E402
from repro.assembly.registry import registry  # noqa: E402
from repro.config import CacheConfig, StackSpec, small_test_config, sun4_280_config  # noqa: E402
from repro.errors import ConfigurationError  # noqa: E402
from repro.patsy.experiments import DelayedWriteExperiment  # noqa: E402
from repro.patsy.simulator import PatsySimulator  # noqa: E402
from repro.patsy.synthetic import SPRITE_TRACE_NAMES  # noqa: E402
from repro.patsy.traces import TraceRecord  # noqa: E402
from repro.patsy.workload import ACCESS_PATTERNS, generate_workload  # noqa: E402
from repro.units import KB  # noqa: E402
from tests.test_policy_discrimination import SCAN_VS_HOTSET, TIGHT_LOOP  # noqa: E402

OUTPUT = ROOT / "BENCH_components.json"
SEEDS = (1, 2, 3)
METRIC = "sim_mean_ms"
#: a win is a mean latency at most this share of every rival's, seed by seed.
WIN_RATIO = 0.98
#: the kinds, in the order the file lists them.
KINDS = ("replacement", "iosched", "placement", "layout", "cleaner")
#: names this matrix does not judge: scan-edf by whether deadlines reach the
#: disk queue, the cleaners once they run at all (neither ever does on
#: today's traffic: no row here fills a log).
UNJUDGED = {"iosched": ("scan-edf",), "cleaner": ("cost-benefit", "greedy")}
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
    "placement": {"hash": "one file lives on one volume: the default of the cluster preset "
                          "(replicas need it) and of the Fig. 2-5 experiments"},
    "layout": {"lfs": "the paper's layout"},
}
KEEP_RULE = (
    "scan and cscan are dropped as code duplicates of look and clook; lru and clook stay as "
    "the paper's baselines and fcfs as the no-scheduling reference. Any other name stays only "
    f"if on at least one row its {METRIC} is <= {WIN_RATIO} x that of every other name of its "
    "kind (duplicates aside) on every seed, compared seed by seed: a seed changes the trace, so "
    "the spread across seeds measures the workload, not noise. Everything else is dropped. "
    "Placement and layout follow the same rule, with hash (one file on one volume) and lfs "
    "(the paper's layout) as references; a name that cannot build a row's stack wins nothing "
    "there, and a rival that cannot is left out of that row's comparison. The cleaners are "
    "unjudged until a row fills a log."
)

#: one name's numbers on one row and seed: ``{metric: value}``, ``METRIC``
#: first, ``None`` where the name cannot build the row's stack.
Outcome = Dict[str, Optional[float]]


# --------------------------------------------------------------------------- rows


def _override(kind: str, name: str, spec: StackSpec) -> StackSpec:
    if kind == "replacement":
        return replace(spec, cache=replace(spec.cache, replacement=name))
    if kind == "iosched":
        return replace(spec, host=replace(spec.host, io_scheduler=name))
    if kind == "placement":
        return replace(spec, array=replace(spec.array, placement=name))
    return replace(spec, layout=replace(spec.layout, kind=name))


def _replay(kind: str, names: List[str], spec: StackSpec, trace, trace_name: str,
            faults=None, reads: bool = False) -> Dict[str, Outcome]:
    """One trace replayed on ``spec`` under each name; ``reads`` adds the
    mean latency of the reads alone."""
    outcomes = {}
    for name in names:
        try:
            simulator = PatsySimulator(_override(kind, name, spec))
        except ConfigurationError:
            outcomes[name] = dict.fromkeys([METRIC, "hit_rate"] + (["read_mean_ms"] if reads else []))
            continue
        if faults:
            simulator.inject_faults(faults)
        result = simulator.replay(trace, trace_name=trace_name)
        if result.errors:
            raise SystemExit(f"{trace_name} under {name}: {result.errors} operations failed")
        outcomes[name] = {METRIC: 1e3 * result.mean_latency, "hit_rate": result.cache_stats["hit_rate"]}
        if reads:
            outcomes[name]["read_mean_ms"] = 1e3 * result.latency.mean_latency("read")
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
    return {name: {METRIC: 1e3 * deep_queue(name, request_seed=seed)["mean_response"], "hit_rate": None}
            for name in names}


def _array(disks: int, volumes: int, buses: int):
    """A step of ``BENCH_array.json``'s scaling curve, at that file's trace scale."""

    def run(kind: str, names: List[str], seed: int, workdir: Path) -> Dict[str, Outcome]:
        spec = sun4_280_config(scale=0.001, seed=seed, volumes=volumes, num_disks=disks, buses=buses)
        return _replay(kind, names, spec, scaling_workload(seed, scale=0.4), f"{disks}-disk")

    return run


def cold_read_trace(seed: int) -> List[TraceRecord]:
    """The case a read-optimised layout exists for: 16 files of 128 KB
    written in 4 KB writes, 256 random 4 KB overwrites in place, an fsync of
    each file and 120 s idle; then each file read whole in 32 KB reads, the
    files in shuffled order."""
    rng = random.Random(seed)
    paths = [f"/cold{i:02d}" for i in range(16)]
    records: List[TraceRecord] = []
    now = 0.0

    def emit(op: str, path: str, offset: int = 0, size: int = 0) -> None:
        nonlocal now
        now = round(now + 0.01, 6)
        records.append(TraceRecord(now, 0, op, path, offset=offset, size=size))

    for path in paths:
        emit("open", path)
        for block in range(32):
            emit("write", path, block * 4 * KB, 4 * KB)
    for _ in range(256):
        emit("write", rng.choice(paths), rng.randrange(32) * 4 * KB, 4 * KB)
    for path in paths:
        emit("fsync", path)
        emit("close", path)
    now += 120.0
    rng.shuffle(paths)
    for path in paths:
        emit("open", path)
        for offset in range(0, 128 * KB, 32 * KB):
            emit("read", path, offset, 32 * KB)
        emit("close", path)
    return records


def _cold_read(kind: str, names: List[str], seed: int, workdir: Path) -> Dict[str, Outcome]:
    return _replay(kind, names, small_test_config(seed=seed), cold_read_trace(seed), "cold-read", reads=True)


def rows(kind: str) -> Dict[str, Callable]:
    table: Dict[str, Callable] = {}
    if kind == "cleaner":
        return table
    for workload in wl.SHAPES:
        table[f"e2e/{workload}"] = _e2e(workload)
    if kind != "placement":  # the Sprite rows run one volume: every placement is the same there
        for trace_name in SPRITE_TRACE_NAMES:
            table[f"sprite/{trace_name}"] = _sprite(trace_name)
    if kind == "replacement":
        for pattern in ACCESS_PATTERNS:
            table[f"pattern/{pattern}"] = _small(make_profile(pattern), 40)
        table["ablation/replacement"] = _small(PROFILE, 48)
        table["discrimination/scan-vs-hotset"] = _small(SCAN_VS_HOTSET, 32)
        table["discrimination/tight-loop"] = _small(TIGHT_LOOP, 64)
    elif kind == "iosched":
        table["queue/deep"] = _deep_queue
    elif kind == "placement":
        for disks, volumes, buses in ARRAY_STEPS[1:]:
            table[f"array/{disks}-disk"] = _array(disks, volumes, buses)
    else:
        table["cold-read"] = _cold_read
    return table


def judged(kind: str) -> List[str]:
    return [name for name in registry.names(kind) if name not in UNJUDGED.get(kind, ())]


def measure_kind(kind: str, names: List[str], seeds: Tuple[int, ...]) -> Dict[str, dict]:
    """``{row: {name: {metric: [one value per seed]}}}`` for ``names``."""
    table: Dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix="components-") as work:
        for row, run in rows(kind).items():
            cells: Dict[str, dict] = {name: {} for name in names}
            for seed in seeds:
                for name, outcome in run(kind, names, seed, Path(work)).items():
                    for metric, value in outcome.items():
                        cells[name].setdefault(metric, []).append(value)
            table[row] = cells
            print(f"{kind:<12} {row:<32} " + "  ".join(
                f"{name} {cell[METRIC][0]}" for name, cell in cells.items()), flush=True)
    return table


# --------------------------------------------------------------------------- verdicts


def _worst_seed_ratio(cells: Dict[str, dict], name: str, rivals: List[str]) -> Optional[float]:
    """On one row, the worst seed's ratio of ``name`` to its best rival;
    ``None`` when ``name``, or every rival, cannot build the row's stack."""
    worst = 0.0
    for i, mine in enumerate(cells[name][METRIC]):
        theirs = [cells[other][METRIC][i] for other in rivals
                  if other != name and cells[other][METRIC][i] is not None]
        if mine is None or not theirs:
            return None
        worst = max(worst, mine / min(theirs))
    return worst


def verdicts(kind: str, table: Dict[str, dict]) -> Dict[str, dict]:
    names = sorted(next(iter(table.values()), {}))
    duplicates = DUPLICATES.get(kind, {})
    rivals = [name for name in names if name not in duplicates]
    out: Dict[str, dict] = {}
    for name in names:
        if name in duplicates:
            original = duplicates[name]
            identical = all(cells[name] == cells[original] for cells in table.values()
                            if None not in cells[name][METRIC])
            out[name] = {"verdict": "dropped",
                         "why": f"code duplicate of {original} (identical on every row both ran: {identical})"}
            continue
        # Per row, the worst seed's ratio to the best rival; <= WIN_RATIO is a win.
        ratios = {row: ratio for row, cells in table.items()
                  if (ratio := _worst_seed_ratio(cells, name, rivals)) is not None}
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


def uninformative_rows(table: Dict[str, dict], kept: List[str]) -> List[str]:
    """Rows on which at least two kept names measured, all the same on every seed."""
    out = []
    for row, cells in table.items():
        measured = [tuple(cells[name][METRIC]) for name in kept
                    if any(value is not None for value in cells[name][METRIC])]
        if len(measured) >= 2 and len(set(measured)) == 1:
            out.append(row)
    return out


def document(tables: Dict[str, Dict[str, dict]]) -> dict:
    kinds = {}
    for kind, table in tables.items():
        judgement = verdicts(kind, table)
        kept = sorted(name for name, entry in judgement.items() if entry["verdict"] == "kept")
        kinds[kind] = {
            "kept": kept,
            "dropped": sorted(name for name, entry in judgement.items() if entry["verdict"] == "dropped"),
            "unjudged": list(UNJUDGED.get(kind, ())),
            "uninformative_rows": uninformative_rows(table, kept),
            "verdicts": judgement,
            "rows": table,
        }
    return {
        "about": "simulated numbers only: mean operation latency (ms) and cache hit rate per "
                 "row, name and seed (null: the name cannot build that row's stack, or a deleted "
                 "name's numbers there came from another stack); written by "
                 "benchmarks/components_matrix.py",
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
    """Re-derive the file's lists from its rows, re-run the names still
    registered on ``seeds``; 1 if any list or value differs."""
    differences = 0
    derived = document({kind: recorded["rows"] for kind, recorded in committed["kinds"].items()})
    for kind, recorded in committed["kinds"].items():
        for field in ("kept", "dropped", "uninformative_rows"):
            if derived["kinds"][kind][field] != recorded[field]:
                differences += 1
                print(f"DIFFERS {kind} {field}: the committed rows give "
                      f"{derived['kinds'][kind][field]}, the file lists {recorded[field]}")
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
    for kind in KINDS:
        names = judged(kind)
        table = measure_kind(kind, names, seeds)
        if committed is not None and kind in committed["kinds"]:  # names deleted since keep what they measured
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
