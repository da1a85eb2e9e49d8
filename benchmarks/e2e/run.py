"""The end-to-end benchmark: five workloads, two clocks, a per-layer traced run.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py [--seed N] [--check-repeat] [--out DIR]

With ``--workload`` this process *is* the run: it generates the workload's
inputs from the seed, drives them through the program's public entry points
for ``--seconds`` seconds, checks the outputs and prints every metric with
its unit; the last line of standard output is the result as one JSON object.
Without it, every workload runs in a fresh subprocess, untraced and traced.

Metric names, units, bounds and the run length live in ``BENCHMARK.json`` at
the root of the checkout; README.md next to this file is the glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in CONTRACT["end_to_end"]}
PER_LAYER = {m["name"]: m for m in CONTRACT["per_layer"]}

#: distinct days (sub-seeds) one run replays; further replays repeat them,
#: which is what checks that the simulated clock repeats bit for bit.
DAYS = 6
#: end-to-end metrics on the simulated clock, so exact for a seed ...
SIMULATED = ("sim_mean_ms", "sim_p99_ms", "sim_elapsed_s", "write_to_disk_frac", "disk_bytes_per_user_byte")
#: ... as is the counted one.
EXACT = SIMULATED + ("success_rate",)
#: per-layer metrics on the host clock; every other one is exact for a seed.
HOST_LAYER = ("host_self_s", "host_us_per_switch", "us_per_record", "build_s", "trace_overhead_frac",
              "pfs_op_us_p50", "pfs_op_us_p99", "pfs_mb_per_s")


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _sustained(values: List[float], better: str) -> float:
    """The slow quartile of a host-clock sample: three replays in four were
    at least this good.  This machine alternates between two speeds a third
    apart, for seconds at a time; a run's median flips with the share of
    replays that caught the fast one, the slow quartile does not."""
    if len(values) < 2:
        return values[0]
    quartiles = statistics.quantiles(values, n=4, method="inclusive")
    return quartiles[0] if better == "higher" else quartiles[2]


# --------------------------------------------------------------------------- one workload, in this process


def run_workload(workload: str, seed: int, seconds: float, traced: bool, scale: float,
                 out: Optional[Path]) -> dict:
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"{ROOT} holds no src/repro: there is no program here to benchmark")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import measure
    import workloads as wl

    if workload not in wl.SHAPES:
        raise SystemExit(f"unknown workload {workload!r}; choose from {', '.join(wl.SHAPES)}")
    workdir = (out if out is not None else Path.cwd()) / ".e2e_work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    shape = wl.SHAPES[workload].scaled(scale)

    def one_day(day: int, tracer: Any = None):
        sub_seed = f"{seed}.{day}"
        if workload == "pfs_online":
            return measure.pfs_day(shape, sub_seed, workdir, tracer)
        return measure.patsy_day(workload, shape, sub_seed, workdir, tracer)

    try:
        if traced:
            report = _traced_run(workload, one_day, out)
        else:
            report = _timed_run(workload, one_day, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    report.update(workload=workload, seed=seed, scale=scale, traced=traced)
    if out is not None:
        name = f"{workload}.traced.json" if traced else f"{workload}.json"
        (out / name).write_text(json.dumps(report, indent=1, sort_keys=True))
    return report


def _timed_run(workload: str, one_day, seconds: float, workdir: Path) -> dict:
    import measure

    deadline = time.perf_counter() + seconds
    replays: List[Tuple[int, Any]] = []
    problems: List[str] = []
    twins: Dict[int, Any] = {}  # pfs_online only: day -> its simulated twin
    # Every distinct day once, at least one repeat, then repeats until the
    # clock runs out.
    while len(replays) <= DAYS or time.perf_counter() < deadline:
        day_no = len(replays) % DAYS
        day = one_day(day_no)
        if workload == "pfs_online" and day_no not in twins:
            twins[day_no] = measure.pfs_twin(Path(day.inputs[0].path), workdir)
            problems.extend(f"day {day_no}: {text}" for text in twins[day_no].problems)
        replays.append((day_no, day))
        problems.extend(f"day {day_no}: {text}" for text in day.problems)

    first: Dict[int, Any] = {}
    for day_no, day in replays:
        original = first.setdefault(day_no, day)
        if original is day:
            continue
        if [i.sha256 for i in day.inputs] != [i.sha256 for i in original.inputs]:
            problems.append(f"day {day_no}: the same seed generated different input bytes")
        for name in sorted(set(original.sim) | set(original.counters)):
            a = original.sim.get(name, original.counters.get(name))
            b = day.sim.get(name, day.counters.get(name))
            if a != b:
                problems.append(f"day {day_no}: {name} did not repeat: {a!r} then {b!r}")

    distinct = [first[d] for d in sorted(first)]
    everyone = [day for _, day in replays]
    attempted = sum(d.attempted for d in everyone + list(twins.values()))
    failed = sum(d.failed for d in everyone + list(twins.values()))
    # Over the distinct days, so that it does not depend on how many repeats
    # fitted; a repeat that differs is a problem above.
    checked = sum(d.attempted for d in distinct + list(twins.values()))
    wrong = sum(d.failed + d.mismatched for d in distinct + list(twins.values()))

    metrics = {
        "ops_per_s": _sustained([d.host["ops_per_s"] for d in everyone], "higher"),
        "setup_s": _median([d.setup_s for d in everyone]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": 1.0 - wrong / checked,
    }
    # pfs_online has no simulated devices: its simulated clock is each day's
    # twin; what its real drivers counted overrides the twin's counts.
    sim_days = [dict(twins[n].sim, **first[n].sim) if n in twins else first[n].sim for n in sorted(first)]
    for name in SIMULATED:
        metrics[name] = _median([sim[name] for sim in sim_days])
    findings = [f"day {day_no}: {text}" for day_no in sorted(first) for text in first[day_no].findings]

    counters = {name: _median([d.counters.get(name, 0.0) for d in distinct])
                for name in sorted(set().union(*(d.counters for d in distinct)))}
    regime = regime_guard(workload, counters, metrics)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": END_TO_END[name]["unit"]} for name in END_TO_END},
        "samples": {
            "replays": len(everyone), "distinct_days": len(distinct),
            "ops_per_s": [d.host["ops_per_s"] for d in everyone],
            "setup_s": [d.setup_s for d in everyone],
            "timed_s": [d.timed_s for d in everyone],
        },
        "inputs": [i.as_dict() for d in distinct for i in d.inputs],
        "regime": regime,
        "problems": problems,
        "findings": findings,
    }


def _traced_run(workload: str, one_day, out: Optional[Path]) -> dict:
    from tracing import LAYERS, SPAN_CAP, Tracer

    plain = one_day(0)
    tracer = Tracer()
    tracer.install()
    try:
        traced = one_day(0, tracer)
    finally:
        tracer.uninstall()
    problems = [f"untraced: {text}" for text in plain.problems]
    for name in sorted(plain.sim):
        if plain.sim[name] != traced.sim.get(name):
            problems.append(f"tracing changed {name}: {plain.sim[name]!r} became {traced.sim.get(name)!r}")

    values: Dict[str, float] = dict(plain.counters)
    # End-to-end numbers that are 0 or absent on some workload, which the
    # driver's contract does not allow in the end-to-end list.
    values.update({name: value for name, value in plain.host.items() if name.startswith("pfs_")})
    values["error_rate"] = (plain.failed + plain.mismatched) / plain.attempted
    values["builder.build_s"] = plain.build_s
    values["builder.mount_disk_reads"] = traced.counters.get("builder.mount_disk_reads", 0.0)
    values["trace_overhead_frac"] = traced.timed_s / plain.timed_s - 1.0
    for layer in LAYERS:
        totals = tracer.layers[layer]
        values[f"{layer}.calls"] = float(totals.calls)
        values[f"{layer}.host_self_s"] = totals.host_self
        values[f"{layer}.sim_self_s"] = totals.sim_self
    residual = traced.timed_s - tracer.host_in_spans()
    values["scheduler.host_self_s"] = residual
    switches = values.get("scheduler.switches", 0.0)
    values["scheduler.host_us_per_switch"] = 1e6 * residual / switches if switches else 0.0
    values["traces.us_per_record"] = _trace_parse_cost(workload, plain)

    # The spans must add up: simulated time under the client's root spans is
    # the latency the recorder measured, op by op.
    checks = {}
    if workload != "pfs_online":
        recorded = plain.sim["sim_mean_ms"] * plain.attempted / 1e3
        spanned = tracer.layers["client"].root_sim
        checks["client_root_sim_s"] = spanned
        checks["recorded_latency_s"] = recorded
        if abs(spanned - recorded) > 0.01 * max(recorded, 1e-9):
            problems.append(f"client root spans cover {spanned:.6f} simulated s, the recorder {recorded:.6f}")
    if out is not None:
        tracer.write_chrome_trace(out / f"{workload}.trace.json")
    failed = plain.failed + traced.failed
    return {
        "correct": failed == 0 and not problems,
        "attempted": plain.attempted + traced.attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values.get(name, 0.0)), "unit": PER_LAYER[name]["unit"]}
                    for name in PER_LAYER},
        "absent": tracer.absent,
        "spans": tracer.opened_in_region,
        "chrome_trace": {"spans": len(tracer.spans), "truncated": len(tracer.spans) >= SPAN_CAP},
        "timed_s": {"untraced": plain.timed_s, "traced": traced.timed_s},
        "checks": checks,
        "inputs": [i.as_dict() for i in plain.inputs],
        "problems": problems,
        "findings": plain.findings,
    }


def _trace_parse_cost(workload: str, day) -> float:
    """Host µs per record to parse the day's input, timed on its own."""
    path = Path(day.inputs[0].path)
    start = time.perf_counter()
    if workload == "pfs_online":
        from workloads import read_script

        records = len(read_script(path))
    else:
        from repro.patsy.traces import iter_trace

        records = sum(1 for _ in iter_trace(str(path)))
    return 1e6 * (time.perf_counter() - start) / max(records, 1)


def regime_guard(workload: str, counters: Dict[str, float], metrics: Dict[str, float]) -> dict:
    """Is the workload still in the regime it exists for?  Reported, never fatal."""
    hit = counters.get("cache.hit_rate", 0.0)
    if workload == "sprite_mix":
        checks = {"cache.hit_rate in [0.2, 0.45]": (0.2 <= hit <= 0.45, hit)}
    elif workload == "write_burst":
        span = counters.get("trace.span_s", 0.0)
        checks = {
            "cache.nvram_stalls > 0": (counters.get("cache.nvram_stalls", 0) > 0, counters.get("cache.nvram_stalls", 0)),
            "cache.hit_rate < 0.05": (hit < 0.05, hit),
            "sim_elapsed_s <= 1.2 x trace span": (metrics["sim_elapsed_s"] <= 1.2 * span, metrics["sim_elapsed_s"] / max(span, 1e-9)),
        }
    elif workload == "read_hot":
        busy = counters.get("driver.utilisation_max", 0.0)
        checks = {"cache.hit_rate >= 0.9": (hit >= 0.9, hit), "driver.utilisation_max < 0.01": (busy < 0.01, busy)}
    elif workload == "cluster_repl":
        checks = {
            "replication.failover_reads > 0": (counters.get("replication.failover_reads", 0) > 0, counters.get("replication.failover_reads", 0)),
            "repairer.repaired_copies > 0": (counters.get("repairer.repaired_copies", 0) > 0, counters.get("repairer.repaired_copies", 0)),
        }
    else:
        # Read back and compared, as a share of the files the model says live.
        covered = counters.get("pfs.files_verified", 0) / max(counters.get("pfs.live_files", 0), 1)
        checks = {"remount read back and compared every live file": (covered == 1.0, covered)}
    return {
        "regime_ok": all(ok for ok, _ in checks.values()),
        "checks": {name: {"ok": ok, "value": value} for name, (ok, value) in checks.items()},
    }


# --------------------------------------------------------------------------- printing


def print_report(report: dict) -> None:
    kind = "traced (per-layer)" if report["traced"] else "untraced (end-to-end)"
    print(f"== {report['workload']}  seed {report['seed']}  {kind}")
    for item in report["inputs"]:
        print(f"   input {Path(item['path']).name}: {item['ops']} ops, {item['write_bytes']} B written, "
              f"{item['read_bytes']} B read, span {item['span_s']:.1f} s, sha256 {item['sha256'][:16]}")
    if "samples" in report:
        s = report["samples"]
        print(f"   {s['replays']} replays of {s['distinct_days']} days; ops/s min {min(s['ops_per_s']):.0f} "
              f"max {max(s['ops_per_s']):.0f}; timed region {sum(s['timed_s']):.1f} s")
    for name, entry in report["metrics"].items():
        print(f"   {name:<38} {entry['value']:>16.6g} {entry['unit']}")
    if report.get("absent"):
        print("   absent wrap targets: " + ", ".join(report["absent"]))
    if report.get("chrome_trace", {}).get("truncated"):
        print(f"   the Chrome trace is truncated: it holds the first {report['chrome_trace']['spans']} "
              f"of {report['spans']} spans")
    if "regime" in report:
        for name, check in report["regime"]["checks"].items():
            print(f"   regime {'ok  ' if check['ok'] else 'LEFT'} {name} (value {check['value']:.6g})")
    print(f"   correct {report['correct']}  attempted {report['attempted']}  failed {report['failed']}")
    for text in report["problems"][:20]:
        print(f"   problem: {text}")
    for check in ("after unmount", "as of the last sync"):
        found = [text for text in report["findings"] if f"{check}: " in text]
        if found:
            print(f"   expected failure (README.md), {len(found)} files differ {check}; the first: {found[0]}")


def result_line(report: dict) -> str:
    return json.dumps({key: report[key] for key in ("correct", "attempted", "failed", "metrics")})


# --------------------------------------------------------------------------- all workloads, in subprocesses


def _spawn(workload: str, args: argparse.Namespace, traced: bool) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "1" if traced else "0",
               "--scale", str(args.scale)]
    if args.out is not None:
        command += ["--out", str(args.out)]
    done = subprocess.run(command, capture_output=True, text=True)
    lines = done.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload}: run exited with code {done.returncode}")
    return json.loads(lines[-1])


def run_set(args: argparse.Namespace, names: List[str]) -> Dict[Tuple[str, str], Tuple[float, bool]]:
    """One run of every workload, untraced then traced, each in a fresh
    process.  Returns {(workload, metric): (value, all outputs correct)}."""
    values: Dict[Tuple[str, str], Tuple[float, bool]] = {}
    for workload in names:
        for traced in (False, True):
            result = _spawn(workload, args, traced)
            for name, entry in result["metrics"].items():
                values[(workload, name)] = (entry["value"], result["correct"])
    return values


def check_repeat(args: argparse.Namespace, names: List[str]) -> int:
    first, second = run_set(args, names), run_set(args, names)
    misses = 0
    print(f"{'workload':<13} {'metric':<38} {'first':>14} {'second':>14} {'worse by':>9}  verdict")
    for (workload, name), (a, correct_a) in first.items():
        b, correct_b = second[(workload, name)]
        spec = END_TO_END.get(name) or PER_LAYER[name]
        worse = ((b - a) if spec["better"] == "lower" else (a - b)) / abs(a) if a else float(b != a)
        if name in EXACT or (name in PER_LAYER and not name.endswith(HOST_LAYER)):
            ok, rule = a == b, "exact"
        elif name in END_TO_END:
            ok, rule = worse <= spec["bound"], f"bound {spec['bound']:.0%}"
        else:
            ok, rule = True, "host, no bound"
        ok = ok and correct_a and correct_b
        misses += not ok
        print(f"{workload:<13} {name:<38} {a:>14.6g} {b:>14.6g} {worse:>+9.2%}  {'pass' if ok else 'MISS'} ({rule})")
    print(f"{misses} misses")
    return 1 if misses else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run this workload in this process (default: all, one subprocess each)")
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=float(CONTRACT["run_seconds"]),
                        help="how long one untraced run keeps replaying days")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one untraced and one traced day, per-layer metrics")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run everything twice and compare the two sets against the bounds")
    parser.add_argument("--out", type=Path, help="directory for full results and the Chrome trace")
    parser.add_argument("--scale", type=float, default=1.0, help="share of each day's work (smoke tests)")
    args = parser.parse_args(argv)
    if args.out is not None:
        args.out = args.out.resolve()
        args.out.mkdir(parents=True, exist_ok=True)
    names = [args.workload] if args.workload else [w["name"] for w in CONTRACT["workloads"]]
    if args.check_repeat:
        return check_repeat(args, names)
    if args.workload is None:
        run_set(args, names)
        return 0
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale, args.out)
    print_report(report)
    print(result_line(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
