"""Host work of a replay, counted exactly: Python function calls per trace op.

    python benchmarks/hostwork.py           # count, write BENCH_hostwork.json
    python benchmarks/hostwork.py --check   # count again, compare with the committed file

Wall-clock time swings by several per cent between identical replays on a
shared machine; the number of Python function calls a replay makes does
not.  For each PATSY workload of the end-to-end benchmark
(``benchmarks/e2e``, imported, never changed), day ``1.0`` (seed 1, day 0)
of its trace at shape scale 0.2 is replayed on the workload's own stack,
with a ``sys.setprofile`` hook counting ``call`` events around
``PatsySimulator.replay`` (a generator resumed is a call again; C functions
are not counted).  The file records calls per trace op, and the modules
that make the most calls.

The counts repeat to the call under any ``PYTHONHASHSEED``, so ``--check``
compares with ``==``.  They differ between Python minor versions (3.12
inlines comprehensions, PEP 709), so the file records the version it was
counted on and ``--check`` refuses to compare across versions.  Calls do
not see work done in C, allocation or memory: the wall-clock metrics of
``BENCHMARK.json`` stay the arbiter of speed.  The script is not a test
module: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
for path in (ROOT / "benchmarks" / "e2e", ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import measure  # noqa: E402  (benchmarks/e2e, by import only)
import workloads as wl  # noqa: E402
from repro.patsy.simulator import PatsySimulator  # noqa: E402

OUTPUT = ROOT / "BENCH_hostwork.json"
WORKLOADS = ("sprite_mix", "write_burst", "read_hot", "cluster_repl")
SCALE = 0.2
DAY = "1.0"
#: modules listed per workload, by calls made (the rest are summed).
TOP = 8
PACKAGE = str(ROOT / "src") + "/"


def _module(filename: str) -> str:
    return filename[len(PACKAGE):] if filename.startswith(PACKAGE) else "(outside src/)"


def count_day(workload: str, work: Path) -> dict:
    """Calls made by one replay of ``workload``'s day, by module."""
    shape = wl.SHAPES[workload].scaled(SCALE)
    trace = work / f"{workload}.trace"
    info = wl.write_trace(shape, DAY, trace)
    simulator = PatsySimulator(measure.patsy_config(workload))
    if workload == "cluster_repl":
        simulator.inject_faults(measure.fault_schedule(shape.span))
    by_file: Counter = Counter()

    def hook(frame, event, _arg) -> None:
        if event == "call":
            by_file[frame.f_code.co_filename] += 1

    sys.setprofile(hook)
    try:
        result = simulator.replay(str(trace), trace_name=workload)
    finally:
        sys.setprofile(None)
    if result.operations != info.ops or result.errors:
        raise SystemExit(f"{workload}: replayed {result.operations} of {info.ops} ops, "
                         f"{result.errors} errors")
    by_module: Counter = Counter()
    for filename, calls in by_file.items():
        by_module[_module(filename)] += calls
    calls = sum(by_module.values())
    top = dict(by_module.most_common(TOP))
    top["(rest)"] = calls - sum(top.values())
    return {"ops": info.ops, "calls": calls, "calls_per_op": round(calls / info.ops, 1),
            "top_modules": top}


def count_all() -> dict:
    with tempfile.TemporaryDirectory(prefix="hostwork-") as work:
        days = {}
        for workload in WORKLOADS:
            days[workload] = count_day(workload, Path(work))
            print(f"{workload:<13} {days[workload]['calls_per_op']:>8} calls/op", flush=True)
    return {
        "about": "Python function calls (sys.setprofile 'call' events) made by one "
                 "PatsySimulator.replay of each PATSY workload's day, per trace op; exact "
                 "under any PYTHONHASHSEED, specific to the Python minor version; written by "
                 "benchmarks/hostwork.py",
        "python": f"{sys.version_info.major}.{sys.version_info.minor}",
        "scale": SCALE,
        "day": DAY,
        "workloads": days,
    }


def check(committed: dict, fresh: dict) -> int:
    differences: List[str] = []
    for workload in sorted(set(committed["workloads"]) | set(fresh["workloads"])):
        was, now = committed["workloads"].get(workload), fresh["workloads"].get(workload)
        if was != now:
            differences.append(f"DIFFERS {workload}: committed {json.dumps(was)}\n"
                               f"{'':>8} counted   {json.dumps(now)}")
    for line in differences:
        print(line)
    print("host work: " + (f"{len(differences)} differences" if differences else "identical"))
    return 1 if differences else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--check", action="store_true",
                        help="compare fresh counts with the committed file instead of writing it")
    args = parser.parse_args(argv)
    version = f"{sys.version_info.major}.{sys.version_info.minor}"
    committed: Optional[Dict] = json.loads(OUTPUT.read_text()) if OUTPUT.exists() else None
    if args.check:
        if committed is None:
            raise SystemExit(f"{OUTPUT.name} is missing: nothing to check against")
        if committed["python"] != version:
            raise SystemExit(f"{OUTPUT.name} was counted on Python {committed['python']}; "
                             f"this is {version}, whose counts differ")
        return check(committed, count_all())
    OUTPUT.write_text(json.dumps(count_all(), indent=1) + "\n")
    print(f"wrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
