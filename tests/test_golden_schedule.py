"""Golden pin of the multi-node schedule.

A cluster replay is a pure function of the trace: multi-node stacks run the
ordinary ``Scheduler`` under ``NodeMergeSchedulingPolicy`` (lowest node, then
arrival stamp).  This test freezes that function on the shape the end-to-end
``cluster_repl`` workload runs — four nodes, ``replicas=1``, a node crash and
a disk failure mid-trace — by comparing the run's ``summary()`` and per-node
``schedule_digests()`` with ``tests/golden/cluster_schedule.json``.

The file is only ever rewritten on purpose, by running this module as a
script (see ``REGENERATE``); a change that moves the schedule must say so.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.config import cluster_config
from repro.core.faults import FaultEvent
from repro.patsy.simulator import PatsySimulator
from repro.patsy.traces import TraceRecord

GOLDEN = Path(__file__).parent / "golden" / "cluster_schedule.json"
REGENERATE = "PYTHONPATH=src python tests/test_golden_schedule.py"

SPAN = 60.0
CLIENTS = 8
SESSIONS = 96


def golden_trace() -> list[TraceRecord]:
    """A few hundred operations, eight clients each in its own subtree.

    Pure arithmetic (a 31-bit LCG), so the trace is the same on every
    interpreter: half the sessions read one of six long-lived files, half
    write a fresh file that is later re-read, overwritten or deleted.
    A burst of cold reads follows the node crash.
    """
    state = 12345

    def draw(n: int) -> int:
        nonlocal state
        state = (state * 1103515245 + 12345) % 2**31
        return (state >> 8) % n

    records: list[TraceRecord] = []
    fresh = [0] * CLIENTS
    for session in range(SESSIONS):
        client = session % CLIENTS
        t = SPAN * session / SESSIONS + draw(100) / 1000.0
        base = f"/c{client}"
        if draw(2):
            path = f"{base}/old{draw(6)}"
            records.append(TraceRecord(t, client, "open", path))
            records.append(TraceRecord(t + 0.002, client, "read", path, draw(4) * 4096, 8192))
            records.append(TraceRecord(t + 0.004, client, "close", path))
            continue
        path = f"{base}/new{fresh[client]}"
        fresh[client] += 1
        blocks = 1 + draw(6)
        records.append(TraceRecord(t, client, "create", path))
        records.append(TraceRecord(t + 0.002, client, "write", path, 0, blocks * 4096))
        records.append(TraceRecord(t + 0.004, client, "close", path))
        fate = draw(4)
        if fate == 0:
            records.append(TraceRecord(t + 2.0, client, "unlink", path))
        elif fate == 1:
            records.append(TraceRecord(t + 1.5, client, "write", path, 4096, 4096))
            records.append(TraceRecord(t + 1.6, client, "fsync", path))
        elif fate == 2:
            records.append(TraceRecord(t + 6.0, client, "read", path, 0, blocks * 4096))
            records.append(TraceRecord(t + 6.1, client, "stat", path))
    # Right after the crash (SPAN / 3), before the repairer's next scan: cold
    # blocks of files that already exist, so reads homed on the dead node
    # have to fail over.
    for client in range(CLIENTS):
        for k in range(6):
            at = SPAN / 3.0 + 0.05 + 0.01 * k
            records.append(TraceRecord(at, client, "read", f"/c{client}/old{k}", 5 * 4096, 4096))
    # Stable sort: per-client order is preserved, clients interleave by time.
    records.sort(key=lambda record: record.timestamp)
    return records


def golden_run() -> dict:
    simulator = PatsySimulator(cluster_config(nodes=4, scale=0.02, replicas=1))
    simulator.scheduler.enable_schedule_hash()
    simulator.inject_faults(
        [
            FaultEvent(time=SPAN / 3.0, kind="node_crash", target=1),
            FaultEvent(time=2.0 * SPAN / 3.0, kind="disk_fail", target=6),
        ]
    )
    result = simulator.replay(golden_trace(), trace_name="golden")
    replication = result.cluster_stats["replication"]
    pinned = {
        "summary": result.summary(),
        "schedule_digests": result.schedule_digests,
        # Not compared for their own sake: they show the run really went
        # through fail-over and repair rather than around them.
        "failover_reads": replication["failover_reads"],
        "repaired_copies": result.cluster_stats["repairer"]["repaired_copies"],
    }
    # Through JSON so int keys and floats compare as the file stores them.
    return json.loads(json.dumps(pinned))


def test_cluster_schedule_matches_golden():
    run = golden_run()
    golden = json.loads(GOLDEN.read_text())
    assert sorted(run["schedule_digests"]) == ["0", "1", "2", "3"]
    assert run["failover_reads"] > 0 and run["repaired_copies"] > 0
    hint = f"; if the schedule was meant to change, regenerate with `{REGENERATE}`"
    assert run["schedule_digests"] == golden["schedule_digests"], (
        "the per-node event schedule of a 4-node replicas=1 replay moved" + hint
    )
    assert run["summary"] == golden["summary"], (
        "same schedule digests but a different result summary" + hint
    )
    assert run == golden, "fail-over / repair counters moved" + hint


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden_run(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
