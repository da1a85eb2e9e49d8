"""The cooperative thread scheduler: threads, events, virtual time."""

import pytest

from repro.core.clock import RealClock, VirtualClock
from repro.core.scheduler import (
    Delay,
    Event,
    FifoSchedulingPolicy,
    RandomSchedulingPolicy,
    Reschedule,
    Scheduler,
    ThreadState,
)
from repro.errors import DeadlockError, SchedulerError
from tests.conftest import run


def test_spawn_and_run_simple_thread(scheduler):
    log = []

    def body():
        log.append("ran")
        return 42
        yield  # pragma: no cover

    thread = scheduler.spawn(body)
    result = scheduler.run_until_complete(thread)
    assert result == 42
    assert log == ["ran"]
    assert thread.state is ThreadState.FINISHED


def test_delay_advances_virtual_time(scheduler):
    def body():
        yield Delay(5.0)
        yield Delay(2.5)
        return scheduler.now

    result = run(scheduler, body)
    assert result == pytest.approx(7.5)
    assert scheduler.now == pytest.approx(7.5)


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        Delay(-1.0)


def test_nan_delay_rejected():
    # It would sit in the delayed heap comparing unordered with everything.
    with pytest.raises(ValueError):
        Delay(float("nan"))
    assert Delay(2).seconds == 2.0 and isinstance(Delay(2).seconds, float)


def test_sleep_helper(scheduler):
    def body():
        yield from scheduler.sleep(3.0)
        return "done"

    assert run(scheduler, body) == "done"
    assert scheduler.now == pytest.approx(3.0)


def test_event_signal_wakes_waiter(scheduler):
    event = scheduler.new_event("test")
    values = []

    def waiter():
        value = yield from event.wait()
        values.append(value)

    def signaller():
        yield Delay(1.0)
        event.signal("hello")

    t1 = scheduler.spawn(waiter)
    scheduler.spawn(signaller)
    scheduler.run_until_complete(t1)
    assert values == ["hello"]
    assert scheduler.now == pytest.approx(1.0)


def test_event_signal_before_wait_is_latched(scheduler):
    event = scheduler.new_event()
    event.signal("early")
    assert event.is_signalled

    def waiter():
        return (yield from event.wait())

    assert run(scheduler, waiter) == "early"
    assert not event.is_signalled


def test_event_broadcast_wakes_all_waiters(scheduler):
    event = scheduler.new_event()
    woken = []

    def waiter(name):
        yield from event.wait()
        woken.append(name)

    threads = [scheduler.spawn(waiter, i) for i in range(3)]

    def signaller():
        yield Delay(0.1)
        assert event.waiter_count == 3
        event.signal()

    scheduler.spawn(signaller)
    for thread in threads:
        scheduler.run_until_complete(thread)
    assert sorted(woken) == [0, 1, 2]


def test_event_clear_drops_latched_signal(scheduler):
    event = scheduler.new_event()
    event.signal()
    event.clear()
    assert not event.is_signalled


def test_reschedule_keeps_thread_runnable(fifo_scheduler):
    order = []

    def yielder():
        order.append("a1")
        yield Reschedule()
        order.append("a2")

    def other():
        order.append("b")
        return
        yield  # pragma: no cover

    t1 = fifo_scheduler.spawn(yielder)
    fifo_scheduler.spawn(other)
    fifo_scheduler.run_until_complete(t1)
    assert order == ["a1", "b", "a2"]


def test_join_returns_result(scheduler):
    def worker():
        yield Delay(2.0)
        return "worker-result"

    def parent():
        child = scheduler.spawn(worker)
        result = yield from child.join()
        return result

    assert run(scheduler, parent) == "worker-result"


def test_join_reraises_child_exception(scheduler):
    def worker():
        yield Delay(1.0)
        raise ValueError("boom")

    def parent():
        child = scheduler.spawn(worker)
        try:
            yield from child.join()
        except ValueError as exc:
            return str(exc)
        return "no error"

    assert run(scheduler, parent) == "boom"


def test_unhandled_thread_failure_raises_from_run(scheduler):
    def failing():
        yield Delay(0.1)
        raise RuntimeError("unhandled")

    scheduler.spawn(failing)
    with pytest.raises(SchedulerError):
        scheduler.run()


def test_run_until_complete_raises_thread_exception(scheduler):
    def failing():
        yield Delay(0.1)
        raise KeyError("missing")

    thread = scheduler.spawn(failing)
    with pytest.raises(KeyError):
        scheduler.run_until_complete(thread)


def test_deadlock_detection(scheduler):
    event = scheduler.new_event()

    def stuck():
        yield from event.wait()

    thread = scheduler.spawn(stuck)
    with pytest.raises(DeadlockError):
        scheduler.run_until_complete(thread)


def test_run_until_time_bound(scheduler):
    def forever():
        while True:
            yield Delay(1.0)

    scheduler.spawn(forever, daemon=True)
    stopped_at = scheduler.run(until=10.0)
    assert stopped_at >= 10.0
    assert scheduler.now >= 10.0


def test_run_returns_when_nothing_left(scheduler):
    def short():
        yield Delay(0.5)

    scheduler.spawn(short)
    end = scheduler.run()
    assert end == pytest.approx(0.5)


def test_random_policy_is_seed_deterministic():
    def make(seed):
        sched = Scheduler(clock=VirtualClock(), seed=seed, policy=RandomSchedulingPolicy())
        order = []

        def body(name):
            order.append(name)
            yield Delay(0.1)
            order.append(name)

        for i in range(5):
            sched.spawn(body, i)
        sched.run()
        return order

    assert make(1) == make(1)
    assert make(1) != make(2) or make(3) != make(4)  # at least some variation across seeds


def test_fifo_policy_runs_in_spawn_order():
    sched = Scheduler(clock=VirtualClock(), policy=FifoSchedulingPolicy())
    order = []

    def body(name):
        order.append(name)
        return
        yield  # pragma: no cover

    for i in range(4):
        sched.spawn(body, i)
    sched.run()
    assert order == [0, 1, 2, 3]


def test_spawn_rejects_non_generator(scheduler):
    with pytest.raises(SchedulerError):
        scheduler.spawn(lambda: 42)


def test_unknown_yield_command_fails_thread(scheduler):
    def bad():
        yield "not-a-command"

    thread = scheduler.spawn(bad)
    with pytest.raises(SchedulerError):
        scheduler.run_until_complete(thread)


def test_context_switch_counter(scheduler):
    def body():
        yield Delay(0.1)
        yield Delay(0.1)

    run(scheduler, body)
    assert scheduler.context_switches >= 3


def test_delayed_threads_wake_in_time_order(fifo_scheduler):
    order = []

    def sleeper(name, duration):
        yield Delay(duration)
        order.append(name)

    fifo_scheduler.spawn(sleeper, "late", 5.0)
    fifo_scheduler.spawn(sleeper, "early", 1.0)
    fifo_scheduler.spawn(sleeper, "middle", 3.0)
    fifo_scheduler.run()
    assert order == ["early", "middle", "late"]


def test_threads_property_and_names(scheduler):
    def body():
        return
        yield  # pragma: no cover

    thread = scheduler.spawn(body, name="my-thread")
    assert thread.name == "my-thread"
    assert thread in scheduler.threads
    scheduler.run()
    assert thread not in scheduler.threads


def test_finished_threads_are_not_retained(scheduler):
    """The scheduler's memory follows the live population, not the number
    of threads ever spawned (a day of replay spawns thousands of short
    helpers): finished threads leave the table, a blocked daemon stays."""
    never = scheduler.new_event("never")

    def daemon():
        yield from never.wait()

    def short(i):
        yield Delay(0.001)
        return i

    blocked = scheduler.spawn(daemon, name="blocked-daemon", daemon=True)
    for i in range(2000):
        assert run(scheduler, short, i) == i
        assert len(scheduler._threads) <= 2
    assert scheduler.threads == (blocked,)
    assert blocked.alive


# --------------------------------------------------------------------------- a lone sleeper
#
# A thread that sleeps while nothing else is runnable and nothing in the
# delayed heap is due before it: what the run loops promise about it.


def ticker(log, scheduler, period=1.0):
    while True:
        log.append(scheduler.now)
        yield Delay(period)


def test_run_until_leaves_a_later_sleeper_delayed(scheduler):
    log = []
    thread = scheduler.spawn(ticker, log, scheduler, 1.0)
    assert scheduler.run(until=2.5) == 2.5
    assert log == [0.0, 1.0, 2.0]
    assert scheduler.now == 2.5
    assert thread.state is ThreadState.DELAYED
    assert scheduler._delayed[0][0] == 3.0
    assert scheduler.context_switches == 3


def test_run_until_boundary_exclusive_and_inclusive():
    for inclusive, stepped, state in (
        (False, [0.0, 1.0], ThreadState.RUNNABLE),  # released at 2.0, not executed
        (True, [0.0, 1.0, 2.0], ThreadState.DELAYED),
    ):
        scheduler = Scheduler(clock=VirtualClock(), seed=7)
        log = []
        thread = scheduler.spawn(ticker, log, scheduler, 1.0)
        assert scheduler.run(until=2.0, inclusive=inclusive) == 2.0
        assert log == stepped
        assert thread.state is state
        assert scheduler.context_switches == len(stepped)


def test_max_steps_counts_every_resumption_of_a_lone_sleeper(scheduler):
    log = []
    scheduler.spawn(ticker, log, scheduler, 1.0)
    scheduler.run(max_steps=3)
    assert log == [0.0, 1.0, 2.0]
    assert scheduler.context_switches == 3
    assert scheduler.now == 2.0
    scheduler.run(max_steps=2)
    assert log == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert scheduler.context_switches == 5


def test_abort_from_a_lone_sleeper_stops_before_its_next_resume(scheduler):
    log = []

    def doomed():
        while True:
            log.append(scheduler.now)
            if len(log) == 3:
                scheduler.abort(RuntimeError("power failure"))
            yield Delay(1.0)

    def service():
        yield Delay(100.0)

    daemon = scheduler.spawn(service, daemon=True)
    thread = scheduler.spawn(doomed)
    with pytest.raises(RuntimeError, match="power failure"):
        scheduler.run_until_complete(thread)
    assert log == [0.0, 1.0, 2.0]
    assert scheduler.now == 2.0
    # The crash took the daemon with it, out of the heap too.
    assert not daemon.alive
    assert [entry[2] for entry in scheduler._delayed] == [thread]
    assert scheduler.cancel_daemons() == 0


def test_equal_wake_times_run_in_sequence_order(fifo_scheduler):
    """``late`` goes to sleep alone, until the instant ``early`` already
    sleeps to: the entry pushed first runs first."""
    order = []

    def sleeper(name):
        yield Delay(1.0)
        order.append((name, fifo_scheduler.now))
        yield Delay(1.0)
        order.append((name, fifo_scheduler.now))

    fifo_scheduler.spawn(sleeper, "early")
    fifo_scheduler.run(max_steps=1)  # early sleeps; late is not there yet
    fifo_scheduler.spawn(sleeper, "late")
    fifo_scheduler.run()
    assert order == [("early", 1.0), ("late", 1.0), ("early", 2.0), ("late", 2.0)]


def test_real_clock_sleeps_through_a_lone_sleeper():
    wall = {"now": 50.0}
    slept = []

    def sleep(seconds):
        slept.append(seconds)
        wall["now"] += seconds

    clock = RealClock(sleep=sleep, monotonic=lambda: wall["now"])
    scheduler = Scheduler(clock=clock, seed=7)

    def body():
        for _ in range(3):
            yield Delay(0.5)
        return scheduler.now

    assert run(scheduler, body) == 1.5
    assert slept == [0.5, 0.5, 0.5]
    assert scheduler.context_switches == 4


def test_direct_resumes_counts_sleeps_that_end_first(fifo_scheduler):
    """A sleeper is resumed in place when it alone is due next — counted in
    ``direct_resumes``, and as the context switch it is — and goes through
    the delayed heap when another thread is due first or at the same time."""
    log = []
    fifo_scheduler.spawn(ticker, log, fifo_scheduler, 1.0, name="lone")
    fifo_scheduler.run(max_steps=4)
    assert (fifo_scheduler.direct_resumes, fifo_scheduler.context_switches) == (3, 4)

    # A second ticker with the same period: every wake-up is now a tie.
    fifo_scheduler.spawn(ticker, log, fifo_scheduler, 1.0, name="twin")
    fifo_scheduler.run(until=8.0)
    assert fifo_scheduler.direct_resumes == 3
    assert log == sorted(log)

    # An always-runnable thread: nobody is ever resumed in place.
    def spinner():
        while True:
            yield Reschedule()

    fifo_scheduler.spawn(spinner, daemon=True)
    before = fifo_scheduler.context_switches
    fifo_scheduler.run(max_steps=50)
    assert fifo_scheduler.context_switches == before + 50
    assert fifo_scheduler.direct_resumes == 3
