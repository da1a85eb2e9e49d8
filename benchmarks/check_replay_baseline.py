#!/usr/bin/env python3
"""Perf-smoke regression gate for the replay benchmark.

Compares the freshly measured ``BENCH_replay.host.json`` against the
committed ``benchmarks/baseline_replay.json`` with a generous tolerance
(default 30%), so CI flags real throughput regressions without tripping on
runner noise: the streaming pipeline's ops/s must stay within ``tolerance``
of the committed baseline.  The host file is git-ignored, so it only exists
where the benchmark ran; without it there is nothing to gate and the script
fails.  Exits non-zero on regression.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
HOST_PATH = REPO_ROOT / "BENCH_replay.host.json"
BASELINE_PATH = Path(__file__).resolve().parent / "baseline_replay.json"
BENCHMARK = "PYTHONPATH=src python -m pytest benchmarks/test_replay_throughput.py --benchmark-only -q -s"


def main() -> int:
    if not HOST_PATH.exists():
        print(
            f"FAIL: {HOST_PATH.name} not found: the replay benchmark has not run in "
            f"this checkout, so there is no throughput to gate.  Run `{BENCHMARK}` first.",
            file=sys.stderr,
        )
        return 2
    report = json.loads(HOST_PATH.read_text())
    baseline = json.loads(BASELINE_PATH.read_text())
    tolerance = float(baseline.get("tolerance", 0.3))
    failures = []

    measured_ops = report["streaming"]["ops_per_sec"]
    baseline_ops = baseline["streaming_ops_per_sec"]
    floor = baseline_ops * (1.0 - tolerance)
    verdict = "ok" if measured_ops >= floor else "REGRESSION"
    print(
        f"streaming ops/s: {measured_ops} vs baseline {baseline_ops} "
        f"(floor {floor:.0f}, tolerance {tolerance:.0%}) -> {verdict}"
    )
    if measured_ops < floor:
        failures.append(
            f"streaming throughput regressed: {measured_ops} ops/s < "
            f"{floor:.0f} (baseline {baseline_ops} - {tolerance:.0%})"
        )

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
