"""Golden pins of the default stacks, simulated and on disk.

A cluster replay is a pure function of the trace: multi-node stacks run the
ordinary ``Scheduler`` under ``NodeMergeSchedulingPolicy`` (lowest node, then
arrival stamp).  The first test freezes that function on the shape the
end-to-end ``cluster_repl`` workload runs — four nodes, ``replicas=1``, a node
crash and a disk failure mid-trace — by comparing the run's ``summary()`` and
per-node ``schedule_digests()`` with ``tests/golden/cluster_schedule.json``.

The second freezes the single-machine array in both worlds
(``tests/golden/array_replay.json``): PATSY replaying a denser trace of the
same shape on ``sun4_280_config`` under the ``periodic`` and ``nvram`` flush
policies, and a PFS on file-backed disks running a fixed script through an
unmount and a remount, pinned down to the bytes of every backing image.

The third freezes the stacks with no array section
(``tests/golden/single_volume_replay.json``): PATSY replaying the same trace on
``small_test_config`` and the one-volume ``sun4_280_config`` (the
``sprite_server`` leg) under ``periodic`` and ``nvram`` (on LFS, the one
layout), pinned by summary, schedule digest and every disk's sectors read and
written; and the default PFS running the same script on a memory disk and on
one backing file.

The fourth freezes the event loop itself
(``tests/golden/scheduler_programs.json``): a couple of hundred small thread
programs — threads that delay, wait on and signal events, reschedule, spawn,
join, raise and abort, under the random, FIFO and node-merge policies, driven
through ``run`` in slices (``until``, ``inclusive``, ``max_steps``) and
``run_until_complete`` — pinned by their schedule digests, the clock and the
context-switch count after every slice, and what became of every thread.

The files are only ever rewritten on purpose, by running this module as a
script (see ``REGENERATE``); a change that moves a result must say so.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from dataclasses import replace
from hashlib import blake2b
from pathlib import Path

from repro.config import (
    cluster_config,
    small_test_config,
    sun4_280_config,
)
from repro.core.clock import VirtualClock
from repro.core.faults import FaultEvent
from repro.core.scheduler import (
    RESCHEDULE,
    Delay,
    FifoSchedulingPolicy,
    NodeMergeSchedulingPolicy,
    RandomSchedulingPolicy,
    Scheduler,
)
from repro.errors import ReproError
from repro.patsy.simulator import PatsySimulator
from repro.patsy.traces import TraceRecord
from repro.pfs.filesystem import PegasusFileSystem
from repro.units import KB, MB

GOLDEN = Path(__file__).parent / "golden" / "cluster_schedule.json"
ARRAY_GOLDEN = Path(__file__).parent / "golden" / "array_replay.json"
SINGLE_GOLDEN = Path(__file__).parent / "golden" / "single_volume_replay.json"
PROGRAMS_GOLDEN = Path(__file__).parent / "golden" / "scheduler_programs.json"
REGENERATE = "PYTHONPATH=src python tests/test_golden_schedule.py"

SPAN = 60.0
CLIENTS = 8
SESSIONS = 96


def golden_trace(sessions: int = SESSIONS) -> list[TraceRecord]:
    """A few hundred operations, eight clients each in its own subtree
    (``sessions`` packs more of them into the same ``SPAN``).

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
    for session in range(sessions):
        client = session % CLIENTS
        t = SPAN * session / sessions + draw(100) / 1000.0
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


#: enough sessions that every volume of the array seals several segments.
ARRAY_SESSIONS = 960


def array_trace() -> list[TraceRecord]:
    """The golden trace, denser, plus sequential reads of files that existed
    before the trace (no ``open``: an open would create them empty), so cold
    extents are planned into runs and read ahead."""
    records = golden_trace(ARRAY_SESSIONS)
    for client in range(CLIENTS):
        for k in range(4):
            for step in range(6):
                at = 5.0 + 10.0 * k + 0.05 * step + 0.001 * client
                records.append(
                    TraceRecord(at, client, "read", f"/c{client}/cold{k}", step * 16 * KB, 16 * KB)
                )
    records.sort(key=lambda record: record.timestamp)
    return records


def array_patsy_run(policy: str) -> dict:
    config = sun4_280_config(scale=0.02)
    simulator = PatsySimulator(replace(config, flush=replace(config.flush, policy=policy)))
    result = simulator.replay(array_trace(), trace_name="golden")
    return {
        "summary": result.summary(),
        "layout": result.volume_stats["rollup"]["layout"],
        "sectors_written": {d.name: d.stats.sectors_written for d in simulator.drivers},
    }


def _payload(tag: int, length: int) -> bytes:
    """``length`` bytes that differ per ``tag`` and per 4-byte word."""
    words = -(-length // 4)
    return b"".join(
        ((tag * 2654435761 + i * 40503) % 2**32).to_bytes(4, "little") for i in range(words)
    )[:length]


def pfs_script(pfs: PegasusFileSystem) -> tuple[list[str], dict]:
    """Create, write, overwrite, grow, truncate, sync, dirty again, delete.
    Returns the surviving paths and ``statistics()`` before any unmount."""
    pfs.format()
    paths = []
    for d in range(4):
        pfs.mkdir(f"/d{d}")
        for f in range(12):
            path = f"/d{d}/f{f}"
            paths.append(path)
            pfs.create(path)
            pfs.write_file(path, _payload(100 * d + f, (1 + (5 * f + d) % 24) * 4 * KB + 17 * f))
    for n, path in enumerate(paths):
        if n % 3 == 0:  # overwrite in the middle, partial blocks at both ends
            pfs.write_file(path, _payload(1000 + n, 6 * KB), offset=3 * KB)
        elif n % 3 == 1:  # grow
            pfs.append(path, _payload(2000 + n, 9 * KB + n))
        if n % 8 == 5:
            pfs.truncate(path, 5 * KB + n)
    pfs.sync()
    for n, path in enumerate(paths):
        if n % 4 == 2:  # dirty again after the sync: unmount has to flush it
            pfs.write_file(path, _payload(3000 + n, 2 * 4 * KB))
    pfs.delete(paths.pop(7))
    return paths, pfs.statistics()


def array_pfs_run(directory: Path) -> dict:
    """The script, unmount, remount, read back: the spec PATSY replays
    above, moving real bytes under virtual time."""
    spec = sun4_280_config(scale=0.02)
    backing = directory / "disk"
    pfs = PegasusFileSystem(spec, backing=backing, size_bytes=40 * MB)
    paths, written = pfs_script(pfs)
    pfs.unmount()
    pfs.close_backing()

    pfs = PegasusFileSystem(spec, backing=backing, size_bytes=40 * MB)
    pfs.mount()
    files = {path: hashlib.sha256(pfs.read_file(path)).hexdigest() for path in paths}
    statistics = {"first_mount": written, "remount": pfs.statistics()}
    pfs.unmount()
    pfs.close_backing()
    images = {
        image.name: hashlib.sha256(image.read_bytes()).hexdigest()
        for image in sorted(directory.iterdir())
    }
    # Nothing but the ten disk images: an idle tier leaves no file behind.
    assert sorted(images) == sorted(f"disk.d{i}" for i in range(10))
    return {"statistics": statistics, "files": files, "images": images}


def array_run(directory: Path) -> dict:
    pinned = {
        "patsy": {policy: array_patsy_run(policy) for policy in ("periodic", "nvram")},
        "pfs": array_pfs_run(directory),
    }
    return json.loads(json.dumps(pinned))


def test_array_replay_matches_golden(tmp_path):
    run = array_run(tmp_path)
    golden = json.loads(ARRAY_GOLDEN.read_text())
    hint = f"; if the stack was meant to change, regenerate with `{REGENERATE}`"
    for policy, pinned in golden["patsy"].items():
        # The run really seals segments and reads cold extents.
        assert pinned["layout"]["index_writes"] > 0 and pinned["layout"]["cold_read_runs"] > 0
        assert run["patsy"][policy] == pinned, (
            f"the sun4_280 replay under the {policy} flush policy moved" + hint
        )
    assert len(golden["pfs"]["images"]) == 10
    assert run["pfs"]["files"] == golden["pfs"]["files"], (
        "a PFS file reads back different bytes after remount" + hint
    )
    assert run["pfs"] == golden["pfs"], "PFS statistics or backing images moved" + hint


# --------------------------------------------------------------------------- no array section

SINGLE_PRESETS = {
    "small_test": small_test_config,
    "sprite_server": lambda: sun4_280_config(scale=0.02, volumes=1, placement="hash"),
}
SINGLE_PFS_BYTES = 16 * MB


def single_patsy_run(preset: str, policy: str) -> dict:
    config = SINGLE_PRESETS[preset]()
    config = replace(config, flush=replace(config.flush, policy=policy))
    simulator = PatsySimulator(config)
    simulator.scheduler.enable_schedule_hash()
    result = simulator.replay(array_trace(), trace_name="golden")
    return {
        "summary": result.summary(),
        "schedule_digests": result.schedule_digests,
        "sectors": {
            d.name: [d.stats.sectors_read, d.stats.sectors_written] for d in simulator.drivers
        },
    }


def _pinned_statistics(pfs: PegasusFileSystem) -> dict:
    statistics = pfs.statistics()
    return {section: statistics[section] for section in ("cache", "layout", "driver")}


def single_pfs_run(backing: Path | None) -> dict:
    """The default PFS on one memory disk (``backing`` None: the remount is
    a second instance given the first one's image) or on one backing file."""
    pfs = PegasusFileSystem(backing=backing, size_bytes=SINGLE_PFS_BYTES)
    paths, _ = pfs_script(pfs)
    written = _pinned_statistics(pfs)
    pfs.unmount()
    if backing is None:
        (disk,) = pfs.drivers
        image = disk.snapshot()
    else:
        pfs.close_backing()
        image = backing.read_bytes()

    pfs = PegasusFileSystem(backing=backing, size_bytes=SINGLE_PFS_BYTES)
    if backing is None:
        pfs.drivers[0].restore(image)
    pfs.mount()
    files = {path: hashlib.sha256(pfs.read_file(path)).hexdigest() for path in paths}
    statistics = {"first_mount": written, "remount": _pinned_statistics(pfs)}
    pfs.unmount()
    pfs.close_backing()
    if backing is not None:
        # Nothing but the disk image: an idle tier leaves no file behind.
        assert [entry.name for entry in backing.parent.iterdir()] == [backing.name]
    return {
        "statistics": statistics,
        "files": files,
        "image": hashlib.sha256(image).hexdigest(),
    }


def single_volume_run(directory: Path) -> dict:
    pinned = {
        "patsy": {
            f"{preset}/{policy}/lfs": single_patsy_run(preset, policy)
            for preset in SINGLE_PRESETS
            for policy in ("periodic", "nvram")
        },
        "pfs": {"memory": single_pfs_run(None), "file": single_pfs_run(directory / "disk")},
    }
    return json.loads(json.dumps(pinned))


def test_single_volume_replay_matches_golden(tmp_path):
    run = single_volume_run(tmp_path)
    golden = json.loads(SINGLE_GOLDEN.read_text())
    hint = f"; if the stack was meant to change, regenerate with `{REGENERATE}`"
    assert len(golden["patsy"]) == 4
    for name, pinned in golden["patsy"].items():
        assert pinned["summary"]["errors"] == 0
        assert any(written for _, written in pinned["sectors"].values())
        assert run["patsy"][name] == pinned, f"the {name} replay moved" + hint
    # One spec, one script: a memory disk and a backing file hold the same bytes.
    assert golden["pfs"]["memory"] == golden["pfs"]["file"]
    for backing, pinned in golden["pfs"].items():
        assert run["pfs"][backing]["files"] == pinned["files"], (
            f"a default-PFS file ({backing}) reads back different bytes after remount" + hint
        )
        assert run["pfs"][backing] == pinned, (
            f"default-PFS statistics or the disk image ({backing}) moved" + hint
        )


# --------------------------------------------------------------------------- the event loop

PROGRAMS = 210
POLICIES = (RandomSchedulingPolicy, FifoSchedulingPolicy, NodeMergeSchedulingPolicy)
EVENTS = 3
#: quarter-second steps, so wake times tie with each other and with the
#: ``until`` of a slice; the odd ones keep some sleepers strictly first.
DELAYS = (0.0, 0.25, 0.25, 0.5, 0.5, 0.75, 1.0, 1.0, 1.5, 2.0, 0.1, 0.3, 0.7, 1.3)


def _draws(seed: int):
    """``draw(n)``: the 31-bit LCG of :func:`golden_trace`, one stream per program."""
    state = 977 * seed + 1

    def draw(n: int) -> int:
        nonlocal state
        state = (state * 1103515245 + 12345) % 2**31
        return (state >> 8) % n

    return draw


def _thread_program(draw, depth: int) -> list:
    """One thread's instructions, generated before anything runs (so the
    program does not depend on the schedule it is there to pin)."""
    program: list = []
    for _ in range(2 + draw(7)):
        kind = draw(20)
        if kind < 7:
            program.append(["delay", DELAYS[draw(len(DELAYS))]])
        elif kind < 9:
            program.append(["sleep", DELAYS[draw(len(DELAYS))]])
        elif kind < 11:
            program.append(["wait", draw(EVENTS)])
        elif kind < 14:
            program.append(["signal", draw(EVENTS)])
        elif kind < 16:
            program.append(["reschedule"])
        elif kind < 18 and depth < 2:
            program.append(["spawn", _thread_program(draw, depth + 1), bool(draw(4) == 0), draw(3)])
        elif kind == 18:
            program.append(["join", draw(4), bool(draw(2))])
        elif draw(6) == 0:
            program.append(["abort"] if draw(3) == 0 else ["raise"])
        else:
            program.append(["delay", DELAYS[draw(len(DELAYS))]])
    return program


def program_run(seed: int) -> dict:
    draw = _draws(seed)
    scheduler = Scheduler(clock=VirtualClock(), seed=seed, policy=POLICIES[seed % 3]())
    scheduler.enable_schedule_hash()
    events = [scheduler.new_event(f"e{i}") for i in range(EVENTS)]
    order = blake2b(digest_size=8)  # what ran, in the order it ran
    threads = []

    def body(name: str, program: list):
        children = []
        done = 0
        for step in program:
            kind = step[0]
            order.update(f"{scheduler.now!r} {name} {kind}\n".encode())
            if kind == "delay":
                yield Delay(step[1])
            elif kind == "sleep":
                yield from scheduler.sleep(step[1])
            elif kind == "wait":
                done += (yield from events[step[1]].wait()) or 0
            elif kind == "signal":
                events[step[1]].signal(done)
            elif kind == "reschedule":
                yield RESCHEDULE
            elif kind == "spawn":
                child = f"{name}.{len(children)}"
                children.append(
                    scheduler.spawn(body, child, step[1], name=child, daemon=step[2], node=step[3])
                )
                threads.append(children[-1])
            elif kind == "join" and children:
                try:
                    yield from children[step[1] % len(children)].join()
                except ValueError:
                    if not step[2]:
                        raise
            elif kind == "raise":
                raise ValueError(name)
            elif kind == "abort":
                scheduler.abort(RuntimeError(name))
            done += 1
        return [done, scheduler.now]

    for index in range(2 + draw(5)):
        name = f"t{index}"
        threads.append(
            scheduler.spawn(body, name, _thread_program(draw, 0), name=name, node=draw(3))
        )

    slices = []

    def drive(call, **kwargs) -> None:
        error = None
        try:
            call(raise_failures=False, **kwargs)
        except (ReproError, ValueError, RuntimeError) as exc:  # deadlock, a thread's own, abort
            error = f"{type(exc).__name__}: {exc}"
        slices.append([scheduler.now, scheduler.context_switches, error])

    drive(scheduler.run, until=0.25 * draw(8), inclusive=bool(draw(2)))
    drive(scheduler.run, max_steps=1 + draw(6))
    drive(scheduler.run, until=scheduler.now + 0.25 * draw(8), inclusive=bool(draw(2)))
    if draw(2):
        drive(lambda **kwargs: scheduler.run_until_complete(threads[0], **kwargs))
    drive(scheduler.run)
    return {
        "seed": seed,
        "slices": slices,
        "schedule_digests": scheduler.schedule_digests(),
        "order": order.hexdigest(),
        "threads": {
            t.name: [t.state.value, t.result, type(t.exception).__name__ if t.exception else None]
            for t in threads
        },
        "failures": [t.name for t in scheduler.failures],
    }


def programs_run() -> list:
    return json.loads(json.dumps([program_run(seed) for seed in range(PROGRAMS)]))


def test_scheduler_programs_match_golden():
    golden = json.loads(PROGRAMS_GOLDEN.read_text())
    assert len(golden) == PROGRAMS
    # The programs really sleep, block for good, fail, abort and stop mid-way.
    outcomes = {state for pinned in golden for state, _, _ in pinned["threads"].values()}
    assert {"finished", "failed", "blocked"} <= outcomes
    assert any(error and error.startswith("RuntimeError") for p in golden for _, _, error in p["slices"])
    hint = f"; if the event loop was meant to change, regenerate with `{REGENERATE}`"
    for run, pinned in zip(programs_run(), golden):
        assert run == pinned, f"thread program {pinned['seed']} ran differently" + hint


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden_run(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    with tempfile.TemporaryDirectory() as scratch:
        ARRAY_GOLDEN.write_text(
            json.dumps(array_run(Path(scratch)), indent=2, sort_keys=True) + "\n"
        )
    print(f"wrote {ARRAY_GOLDEN}")
    with tempfile.TemporaryDirectory() as scratch:
        SINGLE_GOLDEN.write_text(
            json.dumps(single_volume_run(Path(scratch)), indent=2, sort_keys=True) + "\n"
        )
    print(f"wrote {SINGLE_GOLDEN}")
    # One program a line: a moved schedule shows up as the lines that moved.
    lines = ",\n".join(json.dumps(run, sort_keys=True) for run in programs_run())
    PROGRAMS_GOLDEN.write_text(f"[\n{lines}\n]\n")
    print(f"wrote {PROGRAMS_GOLDEN}")
