"""Smoke test of the end-to-end benchmark: every workload at 1/50 size,
untraced and traced, through the same command line the driver uses."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def _tree(root: Path) -> set:
    return {
        str(path.relative_to(root))
        for path in root.rglob("*")
        if ".git" not in path.parts and "__pycache__" not in path.parts
        and ".pytest_cache" not in path.parts and ".hypothesis" not in path.parts
    }


def _run(workload: str, traced: bool, out: Path) -> dict:
    command = [
        sys.executable, "-B", str(HERE / "run.py"), "--workload", workload, "--seed", "2",
        "--seconds", "0", "--scale", "0.02", "--trace", "1" if traced else "0",
        "--out", str(out),
    ]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(command, cwd=out, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.rstrip("\n").rsplit("\n", 1)[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload: str, tmp_path: Path) -> None:
    before = _tree(ROOT)
    for traced, declared in ((False, CONTRACT["end_to_end"]), (True, CONTRACT["per_layer"])):
        result = _run(workload, traced, tmp_path)
        # ``correct`` covers the harness's own checks: op counts equal input
        # lengths, simulated metrics repeat bit for bit, every READ returned
        # the bytes written, and (traced) the client's root spans add up to
        # the recorder's latencies within 1 %.
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in declared]
        for spec in declared:
            entry = result["metrics"][spec["name"]]
            assert entry["unit"] == spec["unit"]
            assert isinstance(entry["value"], float) and math.isfinite(entry["value"])
        if not traced:
            assert all(entry["value"] > 0 for entry in result["metrics"].values())

    traced_report = json.loads((tmp_path / f"{workload}.traced.json").read_text())
    entry_layer = "nfs" if workload == "pfs_online" else "client"
    for layer in (entry_layer, "cache"):  # a 1/50 day is too short for every layer to run
        assert traced_report["metrics"][f"{layer}.calls"]["value"] > 0, layer
    assert traced_report["metrics"]["scheduler.host_self_s"]["value"] > 0
    events = json.loads((tmp_path / f"{workload}.trace.json").read_text())["traceEvents"]
    assert any(event["ph"] == "X" for event in events)
    if workload != "pfs_online":
        checks = traced_report["checks"]
        assert checks["client_root_sim_s"] == pytest.approx(checks["recorded_latency_s"], rel=0.01)
    assert not list(tmp_path.glob(".e2e_work/*")), "work files left behind"
    assert _tree(ROOT) == before, "the benchmark wrote outside its --out directory"
