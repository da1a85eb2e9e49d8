#!/usr/bin/env python3
"""Perf-smoke regression gate for the replay benchmark.

Compares the freshly generated ``BENCH_replay.json`` against the committed
``benchmarks/baseline_replay.json`` with a generous tolerance (default
30%), so CI flags real throughput regressions without tripping on runner
noise: the streaming pipeline's ops/s must stay within ``tolerance`` of
the committed baseline.  Exits non-zero on regression.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULT_PATH = REPO_ROOT / "BENCH_replay.json"
BASELINE_PATH = Path(__file__).resolve().parent / "baseline_replay.json"


def main() -> int:
    report = json.loads(RESULT_PATH.read_text())
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
