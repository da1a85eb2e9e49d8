"""Disk queue scheduling policies."""

import pytest

from repro.core.driver import IOKind, IORequest
from repro.assembly.registry import registry
from repro.errors import ConfigurationError


def req(sector, deadline=None):
    return IORequest(kind=IOKind.READ, sector=sector, count=8, deadline=deadline)


def drain(scheduler, head=0):
    order = []
    position = head
    while len(scheduler):
        request = scheduler.next(position)
        order.append(request.sector)
        position = request.sector
    return order


def test_fcfs_preserves_arrival_order():
    sched = registry.create("iosched", "fcfs")
    for sector in (500, 100, 900, 300):
        sched.add(req(sector))
    assert drain(sched) == [500, 100, 900, 300]


def test_clook_services_ascending_then_wraps():
    sched = registry.create("iosched", "clook")
    for sector in (500, 100, 900, 300):
        sched.add(req(sector))
    assert drain(sched, head=400) == [500, 900, 100, 300]


def test_clook_empty_returns_none():
    sched = registry.create("iosched", "clook")
    assert sched.next(0) is None


def test_look_elevator_reverses_at_edge():
    sched = registry.create("iosched", "look")
    for sector in (500, 100, 900):
        sched.add(req(sector))
    order = drain(sched, head=450)
    assert order == [500, 900, 100]


def test_scan_services_all_requests():
    sched = registry.create("iosched", "scan")
    sectors = [10, 990, 400, 600]
    for sector in sectors:
        sched.add(req(sector))
    assert sorted(drain(sched, head=500)) == sorted(sectors)


def test_cscan_wraps_to_lowest():
    sched = registry.create("iosched", "cscan")
    for sector in (800, 200, 600):
        sched.add(req(sector))
    assert drain(sched, head=500) == [600, 800, 200]


def test_scan_edf_prefers_earliest_deadline():
    sched = registry.create("iosched", "scan-edf")
    late = req(100, deadline=10.0)
    soon = req(900, deadline=1.0)
    none = req(50, deadline=None)
    for r in (late, soon, none):
        sched.add(r)
    assert sched.next(0) is soon
    assert sched.next(0) is late
    assert sched.next(0) is none


def test_scan_edf_uses_scan_within_deadline_class():
    sched = registry.create("iosched", "scan-edf")
    a = req(700, deadline=1.0)
    b = req(300, deadline=1.02)  # same deadline class at default granularity
    sched.add(a)
    sched.add(b)
    assert sched.next(200) is b


def test_pending_property():
    sched = registry.create("iosched", "fcfs")
    sched.add(req(1))
    assert len(sched.pending) == 1


def test_unknown_policy_rejected():
    with pytest.raises(ConfigurationError):
        registry.create("iosched", "elevator-2000")
