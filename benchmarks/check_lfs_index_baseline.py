#!/usr/bin/env python3
"""Perf-smoke regression gate for the LFS read/cleaner-path benchmark.

Compares the freshly generated ``BENCH_lfs_index.json`` against the
committed ``benchmarks/baseline_lfs_index.json``.  Every gated metric is
deterministic — simulated (virtual-clock) latencies and structural disk
read / candidate counters under a fixed seed — so the numbers themselves
are compared with ``==``:

* a mount is a constant number of disk reads (superblock + checkpoint),
  independent of segment count,
* the cleaner's candidate set stays bounded at every sweep size,
* the cold scan's disk reads, median read latency and simulated run time,
  on the 10-disk array and on the 4-node cluster, are the committed ones.

``BENCH_lfs_index.json`` is tracked, so its presence proves nothing; the
git-ignored ``BENCH_lfs_index.host.json`` the benchmark writes beside it
does, and the gate fails without it.  Exits non-zero on regression.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULT_PATH = REPO_ROOT / "BENCH_lfs_index.json"
HOST_PATH = REPO_ROOT / "BENCH_lfs_index.host.json"
BASELINE_PATH = Path(__file__).resolve().parent / "baseline_lfs_index.json"
BENCHMARK = "PYTHONPATH=src python -m pytest benchmarks/test_lfs_index.py -q -s"


def main() -> int:
    if not HOST_PATH.exists():
        print(
            f"FAIL: {HOST_PATH.name} not found: the LFS read/cleaner benchmark has not run "
            f"in this checkout, so {RESULT_PATH.name} is only the committed copy.  "
            f"Run `{BENCHMARK}` first.",
            file=sys.stderr,
        )
        return 2
    report = json.loads(RESULT_PATH.read_text())
    baseline = json.loads(BASELINE_PATH.read_text())
    failures = []

    def check(label: str, ok: bool, detail: str) -> None:
        verdict = "ok" if ok else "REGRESSION"
        print(f"{label}: {detail} -> {verdict}")
        if not ok:
            failures.append(f"{label}: {detail}")

    def check_equal(label: str, measured, expected) -> None:
        check(label, measured == expected, f"{measured!r} (baseline {expected!r})")

    for entry in report["mount"]:
        check_equal(
            f"mount reads ({entry['non_free_segments']} segments)",
            entry["disk_reads"],
            baseline["mount_disk_reads"],
        )

    candidate_cap = int(baseline["cleaner_candidate_bound"])
    for entry in report["cleaner_scan"]:
        considered = entry["candidates_per_choose"]
        check(
            f"cleaner candidates ({entry['sealed_segments']} segments)",
            considered <= candidate_cap,
            f"{considered} candidates/choose (cap {candidate_cap})",
        )

    cold = report["cold_read"]
    check_equal("cold-read disk reads", cold["disk_reads"], baseline["cold_read"]["disk_reads"])
    check_equal("cold-read p50", cold["latency"]["p50"], baseline["cold_read"]["p50"])
    check_equal(
        "cold-read simulated time", cold["simulated_time"], baseline["cold_read"]["simulated_time"]
    )
    cluster = report["cluster"]
    check_equal("cluster p50", cluster["latency"]["p50"], baseline["cluster"]["p50"])
    check_equal(
        "cluster simulated time", cluster["simulated_time"], baseline["cluster"]["simulated_time"]
    )

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
