"""The cut-and-paste thread scheduler.

The scheduler is the first core component of the framework (Section 2 of the
paper): it "implements threads, synchronization primitives and real or
virtual time".  Independent file-system activities — client requests, the
cache-flush daemon, the LFS cleaner, each simulated disk — run as separate
cooperative threads on top of it.

Threads are Python generators.  A thread's body ``yield``\\ s small command
objects back to the scheduler:

* :class:`Delay` — suspend for some amount of (virtual or real) time,
* :class:`WaitEvent` — block until an :class:`Event` is signalled,
* :class:`Reschedule` — give up the processor but stay runnable.

Nested calls simply use ``yield from``, so a deep call chain (client
interface -> file -> cache -> storage layout -> disk driver) suspends and
resumes as a single logical thread, exactly like the C++ threads in the
original system.

When the scheduler is configured with a :class:`~repro.core.clock.VirtualClock`
it is a discrete-event simulator: time jumps to the expiry of the earliest
delayed thread whenever nothing is runnable.  With a
:class:`~repro.core.clock.RealClock` the same code waits in real time, which
is how a PFS instantiation serves real clients.

As in the paper, the default scheduling policy picks a *random* runnable
thread; other policies are derived classes of :class:`SchedulingPolicy`.

Multi-node stacks run this same event loop.  Every thread carries the
``node`` it runs on, and :class:`NodeMergeSchedulingPolicy` orders runnable
threads by lowest node first, then arrival stamp — which makes a cluster
replay a deterministic pure function of the trace.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import random
from abc import ABC, abstractmethod
from hashlib import blake2b
from typing import Any, Callable, Dict, Generator, Iterable, Optional, Sequence

from repro.core.clock import Clock, VirtualClock
from repro.errors import DeadlockError, SchedulerError

__all__ = [
    "Delay",
    "DELAY_ZERO",
    "WaitEvent",
    "Reschedule",
    "RESCHEDULE",
    "Event",
    "Thread",
    "ThreadState",
    "SchedulingPolicy",
    "RandomSchedulingPolicy",
    "FifoSchedulingPolicy",
    "NodeMergeSchedulingPolicy",
    "Scheduler",
]


# ---------------------------------------------------------------------------
# Primitives yielded by thread bodies
# ---------------------------------------------------------------------------


class Delay:
    """Suspend the calling thread for ``seconds`` of scheduler time."""

    __slots__ = ("seconds",)

    def __init__(self, seconds: float):
        # ``not >=`` rather than ``<``: NaN compares false both ways, and in
        # the delayed heap it would order against nothing.
        if not seconds >= 0:
            raise ValueError(f"cannot delay for a negative duration: {seconds}")
        self.seconds = float(seconds)

    def __repr__(self) -> str:
        return f"Delay({self.seconds!r})"


class WaitEvent:
    """Block the calling thread until ``event`` is signalled.

    The value passed to :meth:`Event.signal` becomes the result of the
    ``yield`` expression in the waiting thread.
    """

    __slots__ = ("event",)

    def __init__(self, event: "Event"):
        self.event = event

    def __repr__(self) -> str:
        return f"WaitEvent({self.event!r})"


class Reschedule:
    """Yield the processor voluntarily; the thread stays runnable."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "Reschedule()"


#: interned command singletons.  Commands are immutable once constructed and
#: the scheduler never stores them, so the same object can be yielded by any
#: number of threads; replaying millions of trace operations then allocates
#: no command objects for reschedules and zero-length delays.  Events intern
#: their own :class:`WaitEvent` the same way (see :meth:`Event.wait`).
RESCHEDULE = Reschedule()
DELAY_ZERO = Delay(0.0)


# ---------------------------------------------------------------------------
# Events
# ---------------------------------------------------------------------------


class Event:
    """The scheduler's basic synchronisation primitive.

    Following the paper, "each thread can pick a unique event and block on
    it; once a thread has blocked itself, another thread signals the event
    through the scheduler to make the thread runnable again".

    To avoid lost wake-ups in a cooperative system, a signal delivered while
    no thread is waiting is remembered: the next :meth:`wait` consumes it and
    returns immediately.  Signalling with waiters present wakes *all* of
    them (broadcast), each receiving the signalled value.
    """

    _counter = itertools.count()

    __slots__ = ("name", "_scheduler", "_waiters", "_pending", "_pending_value", "_wait_command")

    def __init__(self, scheduler: Optional["Scheduler"] = None, name: str = ""):
        self.name = name or f"event-{next(Event._counter)}"
        self._scheduler = scheduler
        self._waiters: list[Thread] = []
        self._pending = False
        self._pending_value: Any = None
        #: interned WaitEvent command — immutable, so one object serves every
        #: wait on this event (no allocation per blocking wait).
        self._wait_command: Optional[WaitEvent] = None

    # -- introspection ------------------------------------------------------

    @property
    def is_signalled(self) -> bool:
        """True if a signal is pending (delivered with no waiters present)."""
        return self._pending

    @property
    def waiter_count(self) -> int:
        return len(self._waiters)

    # -- signalling ----------------------------------------------------------

    def signal(self, value: Any = None) -> int:
        """Wake every waiting thread, delivering ``value``.

        Returns the number of threads woken.  If nobody is waiting the
        signal is latched for the next waiter.
        """
        if self._waiters:
            waiters, self._waiters = self._waiters, []
            for thread in waiters:
                if thread.alive:  # Thread._wake, inlined
                    thread._send_value = value
                    thread._waiting_on = None
                    thread.scheduler._make_runnable(thread)
            return len(waiters)
        self._pending = True
        self._pending_value = value
        return 0

    def clear(self) -> None:
        """Drop any latched signal."""
        self._pending = False
        self._pending_value = None

    # -- waiting -------------------------------------------------------------

    def wait(self) -> Generator[Any, Any, Any]:
        """Generator helper: ``value = yield from event.wait()``."""
        if self._pending:
            self._pending = False
            value, self._pending_value = self._pending_value, None
            return value
        command = self._wait_command
        if command is None:
            command = self._wait_command = WaitEvent(self)
        value = yield command
        return value

    # -- scheduler hooks ------------------------------------------------------

    def _add_waiter(self, thread: "Thread") -> None:
        self._waiters.append(thread)

    def _remove_waiter(self, thread: "Thread") -> None:
        if thread in self._waiters:
            self._waiters.remove(thread)

    def __repr__(self) -> str:
        return f"Event({self.name!r}, waiters={len(self._waiters)}, pending={self._pending})"


# ---------------------------------------------------------------------------
# Threads
# ---------------------------------------------------------------------------


class ThreadState(enum.Enum):
    NEW = "new"
    RUNNABLE = "runnable"
    RUNNING = "running"
    DELAYED = "delayed"
    BLOCKED = "blocked"
    FINISHED = "finished"
    FAILED = "failed"


class Thread:
    """A cooperative thread of control managed by the :class:`Scheduler`.

    Threads are created by :meth:`Scheduler.spawn`; user code never
    instantiates this class directly.  The ``daemon`` flag marks service
    threads (disk controllers, the cleaner, flush daemons) that are expected
    to be blocked forever when a run ends; they are excluded from deadlock
    accounting.  ``node`` is the cluster node the thread belongs to (0 for
    single-machine stacks); :class:`NodeMergeSchedulingPolicy` orders by it
    and the schedule hash keeps one stream per node.
    """

    _counter = itertools.count(1)

    __slots__ = (
        "scheduler",
        "name",
        "daemon",
        "node",
        "ident",
        "state",
        "alive",
        "result",
        "exception",
        "finished_at",
        "_generator",
        "_send_value",
        "_joiners",
        "_waiting_on",
        "_heap_entry",
        "_stamp",
    )

    def __init__(
        self,
        scheduler: "Scheduler",
        generator: Generator[Any, Any, Any],
        name: str,
        daemon: bool = False,
        node: int = 0,
    ):
        if node < 0:
            raise SchedulerError(f"thread {name!r} placed on a negative node: {node}")
        self.scheduler = scheduler
        self.name = name
        self.daemon = daemon
        self.node = node
        self.ident = next(Thread._counter)
        self.state = ThreadState.NEW
        #: kept as a plain attribute (not derived from ``state``) because the
        #: run loops test it once per step; flipped exactly once, on death.
        self.alive = True
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        self._generator = generator
        self._send_value: Any = None
        self._joiners: list[Thread] = []
        self._waiting_on: Optional[Event] = None
        #: reusable delayed-heap entry ([wake_time, seq, thread]); a thread
        #: has at most one entry in the heap at a time, so the list object is
        #: recycled across delays instead of allocated per sleep.
        self._heap_entry: Optional[list] = None
        #: global arrival stamp assigned each time the thread becomes
        #: runnable; the deterministic node-merge order is (node, _stamp).
        self._stamp = 0
        #: time at which the thread became runnable/finished, for accounting.
        self.finished_at: Optional[float] = None

    # -- queries --------------------------------------------------------------

    @property
    def failed(self) -> bool:
        return self.state is ThreadState.FAILED

    # -- cooperation -----------------------------------------------------------

    def join(self) -> Generator[Any, Any, Any]:
        """Generator helper: wait until this thread terminates.

        Returns the thread's result, or re-raises the exception that killed
        it.  Usable from other threads as ``result = yield from t.join()``.
        """
        if self.alive:
            current = self.scheduler.current_thread
            if current is None:
                raise SchedulerError("join() may only be used from inside a thread")
            if current is self:
                raise SchedulerError(f"thread {self.name!r} cannot join itself")
            self._joiners.append(current)
            current.state = ThreadState.BLOCKED
            yield WaitEvent(_JOIN_SENTINEL)
        if self.exception is not None:
            raise self.exception
        return self.result

    # -- scheduler internals ----------------------------------------------------

    def _wake(self, value: Any = None) -> None:
        """Move a blocked/delayed thread back to the runnable set."""
        if not self.alive:
            return
        self._send_value = value
        self._waiting_on = None
        self.scheduler._make_runnable(self)

    def __repr__(self) -> str:
        return f"Thread(#{self.ident} {self.name!r} {self.state.value} node={self.node})"


class _JoinSentinelEvent(Event):
    """Placeholder event for join(): the scheduler never registers waiters on
    it because the joining thread is woken directly by thread completion."""

    def _add_waiter(self, thread: "Thread") -> None:  # pragma: no cover - trivial
        # Joiners are woken explicitly via Thread._joiners; nothing to do.
        return


_JOIN_SENTINEL = _JoinSentinelEvent(name="join-sentinel")


# ---------------------------------------------------------------------------
# Scheduling policies
# ---------------------------------------------------------------------------


class SchedulingPolicy(ABC):
    """Chooses which runnable thread runs next.

    The base framework ships random scheduling (the paper's default) and a
    FIFO policy; real-time policies for continuous-media files would be
    further derived classes.
    """

    @abstractmethod
    def select(self, runnable: Sequence[Thread], rng: random.Random) -> int:
        """Return the index of the thread to run next."""


class RandomSchedulingPolicy(SchedulingPolicy):
    """Pick a random runnable thread (the paper's default policy)."""

    def select(self, runnable: Sequence[Thread], rng: random.Random) -> int:
        return rng.randrange(len(runnable))


class FifoSchedulingPolicy(SchedulingPolicy):
    """Run threads in the order they became runnable (deterministic)."""

    def select(self, runnable: Sequence[Thread], rng: random.Random) -> int:
        return 0


class NodeMergeSchedulingPolicy(SchedulingPolicy):
    """Deterministic cluster merge order: lowest node first, then arrival.

    At equal simulated time the runnable thread with the smallest
    ``(node, arrival stamp)`` pair runs first (time is handled by the delayed
    heap).  Nothing in the rule is random, so the schedule of a multi-node
    stack is a pure function of the workload;
    ``tests/golden/cluster_schedule.json`` pins it.
    """

    def select(self, runnable: Sequence[Thread], rng: random.Random) -> int:
        best = 0
        thread = runnable[0]
        best_key = (thread.node, thread._stamp)
        for index in range(1, len(runnable)):
            thread = runnable[index]
            key = (thread.node, thread._stamp)
            if key < best_key:
                best_key = key
                best = index
        return best


# ---------------------------------------------------------------------------
# The scheduler proper
# ---------------------------------------------------------------------------


class Scheduler:
    """Cooperative thread scheduler with real or virtual time.

    Parameters
    ----------
    clock:
        Time source; defaults to a fresh :class:`VirtualClock` (simulator
        behaviour).  Pass a :class:`~repro.core.clock.RealClock` for an
        on-line instantiation.
    seed:
        Seed for the random scheduling policy, so simulations are
        reproducible run-to-run.
    policy:
        A :class:`SchedulingPolicy`; defaults to random scheduling.
    """

    def __init__(
        self,
        clock: Optional[Clock] = None,
        seed: int = 0,
        policy: Optional[SchedulingPolicy] = None,
    ):
        self.clock = clock if clock is not None else VirtualClock()
        self.rng = random.Random(seed)
        self.policy = policy if policy is not None else RandomSchedulingPolicy()
        self._runnable: list[Thread] = []
        #: min-heap of [wake_time, seq, thread] entries (mutable lists so a
        #: thread's entry can be recycled across repeated delays).
        self._delayed: list[list] = []
        self._seq = itertools.count()
        #: arrival stamps for the deterministic node-merge order.
        self._stamp_counter = itertools.count()
        #: every thread that has not run to completion, in spawn order (a
        #: dict for O(1) removal); :meth:`_finish` drops a thread, so memory
        #: follows the live population, not the number ever spawned.
        self._threads: Dict[Thread, None] = {}
        self._failures: list[Thread] = []
        self.current_thread: Optional[Thread] = None
        #: number of thread resumptions performed (context switches).
        self.context_switches = 0
        #: how many of those resumed a sleeper in place (see :meth:`_run`).
        self.direct_resumes = 0
        #: set by abort(): the run loops re-raise it instead of stepping on,
        #: so one thread can take the whole scheduler down (crash injection).
        self._abort: Optional[BaseException] = None
        #: per-node schedule hashers (None = recording off); see
        #: :meth:`enable_schedule_hash`.
        self._schedule_hash: Optional[Dict[int, Any]] = None

    # -- time -------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.clock.now()

    def sleep(self, seconds: float) -> Generator[Any, Any, None]:
        """Generator helper: ``yield from scheduler.sleep(t)``."""
        yield DELAY_ZERO if seconds == 0 else Delay(seconds)

    # -- thread management --------------------------------------------------------

    def spawn(
        self,
        target: Callable[..., Generator[Any, Any, Any]] | Generator[Any, Any, Any],
        *args: Any,
        name: Optional[str] = None,
        daemon: bool = False,
        node: Optional[int] = None,
        **kwargs: Any,
    ) -> Thread:
        """Create a new thread from a generator function (or generator).

        The thread becomes runnable immediately; it first runs when the
        scheduler next picks it.  ``node`` places the thread on a cluster
        node; by default a thread inherits the node of the thread that
        spawned it (so e.g. a flush daemon's helper threads stay on the
        daemon's node), and threads spawned from outside run on node 0.
        """
        if callable(target):
            generator = target(*args, **kwargs)
            default_name = getattr(target, "__name__", "thread")
        else:
            if args or kwargs:
                raise SchedulerError("arguments are only valid with a callable target")
            generator = target
            default_name = getattr(target, "__name__", "thread")
        if not isinstance(generator, Generator):
            raise SchedulerError(
                f"spawn() needs a generator function, got {type(generator).__name__}"
            )
        if node is None:
            current = self.current_thread
            node = current.node if current is not None else 0
        thread = Thread(self, generator, name or default_name, daemon=daemon, node=node)
        self._threads[thread] = None
        self._make_runnable(thread)
        return thread

    def new_event(self, name: str = "") -> Event:
        """Create an :class:`Event` bound to this scheduler."""
        return Event(self, name)

    def signal(self, event: Event, value: Any = None) -> int:
        """Signal ``event`` on behalf of code running outside any thread."""
        return event.signal(value)

    @property
    def threads(self) -> tuple[Thread, ...]:
        """The live threads, in spawn order."""
        return tuple(t for t in self._threads if t.alive)

    @property
    def failures(self) -> tuple[Thread, ...]:
        return tuple(self._failures)

    def abort(self, exc: BaseException) -> None:
        """Stop the whole scheduler: the current run loop re-raises ``exc``
        before its next step, regardless of which thread is affected.

        Used by crash injection (:mod:`repro.core.metadata.crash`) to model
        a machine dying — every thread stops mid-flight, not just the one
        that tripped the crash point.
        """
        self._abort = exc

    def _check_abort(self) -> None:
        if self._abort is not None:
            exc, self._abort = self._abort, None
            # The machine died: daemons (flush/WAL/cleaner service threads,
            # including lazily-spawned ones) must not survive into the
            # post-crash recovery run, or an armed crash point can leave a
            # queue non-empty and hang the recovery matrix.
            self.cancel_daemons()
            raise exc

    def cancel_daemons(self) -> int:
        """Terminate every live daemon thread without running it further.

        Models a crash taking the service threads down with the machine: the
        generators are abandoned mid-flight (no ``finally`` cleanup runs, as
        none would on a real power failure) and their queue entries are
        purged so no queue retains work.  Returns the number cancelled.

        Cancelled threads stay referenced from the thread table: releasing
        an unfinished generator would close it, which runs exactly the
        ``finally`` blocks a power failure never reaches.
        """
        now = self.clock.now()
        cancelled = 0
        for thread in self._threads:
            if thread.alive and thread.daemon:
                thread.alive = False
                thread.state = ThreadState.FINISHED
                thread.finished_at = now
                waiting = thread._waiting_on
                if waiting is not None:
                    waiting._remove_waiter(thread)
                    thread._waiting_on = None
                cancelled += 1
        if cancelled:
            self._runnable[:] = [t for t in self._runnable if t.alive]
            live = [entry for entry in self._delayed if entry[2].alive]
            if len(live) != len(self._delayed):
                self._delayed[:] = live
                heapq.heapify(self._delayed)
        return cancelled

    # -- schedule recording ----------------------------------------------------

    def enable_schedule_hash(self) -> None:
        """Record a per-node hash of the executed schedule.

        Every step folds ``(time, thread name)`` into the hasher of the
        stepped thread's node.  Per-node streams (rather than one global
        stream) say *which* node's schedule moved when a digest changes.
        """
        if self._schedule_hash is None:
            self._schedule_hash = {}

    def schedule_digests(self) -> Dict[int, str]:
        """Hex digests of the per-node schedule streams recorded so far."""
        if self._schedule_hash is None:
            return {}
        return {node: h.hexdigest() for node, h in sorted(self._schedule_hash.items())}

    def _record_step(self, thread: Thread) -> None:
        hashers = self._schedule_hash
        node = thread.node
        h = hashers.get(node)
        if h is None:
            h = hashers[node] = blake2b(digest_size=16)
        h.update(b"%r %s\n" % (self.clock.now(), thread.name.encode()))

    # -- the run loop ---------------------------------------------------------------

    def run(
        self,
        until: Optional[float] = None,
        max_steps: Optional[int] = None,
        raise_failures: bool = True,
        inclusive: bool = False,
    ) -> float:
        """Run threads until nothing remains runnable or delayed.

        ``until`` bounds (virtual or real) time: the scheduler stops once the
        clock would pass it.  By default threads scheduled at exactly
        ``until`` are released but not executed; ``inclusive`` also executes
        everything due at that instant (what a caller polling in fixed
        steps wants: a daemon due exactly at the step boundary runs in this
        step, not the next).  Returns the clock value when the run stopped.
        """
        self._run(None, until, inclusive, max_steps)
        if raise_failures:
            self._raise_pending_failure()
        return self.clock.now()

    def run_until_complete(self, thread: Thread, raise_failures: bool = True) -> Any:
        """Drive the scheduler until ``thread`` terminates; return its result.

        Raises :class:`DeadlockError` if the thread can never complete
        because nothing is runnable or delayed.
        """
        self._run(thread)
        if thread.alive:
            blocked = [t.name for t in self._threads if t.alive and not t.daemon]
            raise DeadlockError(
                f"thread {thread.name!r} cannot complete: no runnable or delayed "
                f"threads remain (blocked non-daemon threads: {blocked})"
            )
        if thread in self._failures:
            self._failures.remove(thread)
        if thread.exception is not None:
            if self._abort is thread.exception:
                self._abort = None
            raise thread.exception
        if raise_failures:
            self._raise_pending_failure()
        return thread.result

    def run_all(self, threads: Iterable[Thread]) -> list[Any]:
        """Run until every thread in ``threads`` has terminated."""
        results = []
        for thread in threads:
            results.append(self.run_until_complete(thread))
        return results

    def _run(
        self,
        target: Optional[Thread] = None,
        until: Optional[float] = None,
        inclusive: bool = False,
        max_steps: Optional[int] = None,
    ) -> None:
        """The event loop: step threads until ``target`` has terminated (if
        one is given), a bound of :meth:`run` is reached, or nothing is
        runnable or delayed any more.

        Every turn checks whether to stop, picks the thread to step — the
        policy's choice among the runnable ones, or else whoever sleeps
        until the earliest instant, after advancing the clock to it — and
        sends into its generator.  Two short cuts skip part of a turn
        without changing which thread runs when:

        * a lone sleeper due goes from the delayed heap straight into its
          step, not through the runnable list (one runnable thread is never
          put to the policy, and costs no random number);
        * a thread that yields a :class:`Delay` is *resumed in place* when
          the next turn could only hand it back: nothing is runnable; its
          wake time is strictly earlier than the top of the heap (on a tie
          the entry already there has the earlier sequence number and runs
          first); no abort is pending, ``target`` is alive, and ``max_steps``
          and ``until`` leave room for the step — the turn would not stop
          instead.  The clock is advanced and the generator sent into again,
          counted and hashed as the context switch it is.
        """
        runnable = self._runnable
        delayed = self._delayed
        now = self.clock.now
        advance_to = self.clock.advance_to
        heappush, heappop = heapq.heappush, heapq.heappop
        delayed_state, running_state = ThreadState.DELAYED, ThreadState.RUNNING
        steps = 0
        while target is None or target.alive:
            if self._abort is not None:
                self._check_abort()
            if max_steps is not None and steps >= max_steps:
                return
            if until is not None:
                current = now()
                if current > until or not inclusive and current >= until:
                    return
            if runnable:
                if len(runnable) == 1:
                    # Nothing to choose: no policy dispatch and, for the
                    # random policy, no draw.
                    thread = runnable.pop()
                else:
                    thread = runnable.pop(self.policy.select(runnable, self.rng))
                steps += 1
                if not thread.alive:
                    continue
                send_value, thread._send_value = thread._send_value, None
            elif delayed:
                wake_time = delayed[0][0]
                if until is not None and wake_time > until:
                    advance_to(until)
                    return
                advance_to(wake_time)
                thread = heappop(delayed)[2]
                released = thread.alive and thread.state is delayed_state
                if (delayed and delayed[0][0] <= wake_time) or (
                    wake_time == until and not inclusive
                ):
                    # Several sleepers are due, or this one exactly at a
                    # bound that releases without executing: to the
                    # runnable list, and the next turn decides.
                    if released:
                        thread._send_value = None
                        self._make_runnable(thread)
                    self._release_expired(wake_time)
                    continue
                if not released:
                    continue
                steps += 1
                send_value = None
            else:
                return
            while True:
                if self._schedule_hash is not None:
                    self._record_step(thread)
                self.current_thread = thread
                thread.state = running_state
                self.context_switches += 1
                try:
                    command = thread._generator.send(send_value)
                except StopIteration as stop:
                    self._finish(thread, result=stop.value)
                    break
                except BaseException as exc:  # noqa: BLE001 - thread bodies may raise anything
                    self._finish(thread, exception=exc)
                    break
                finally:
                    self.current_thread = None
                if not isinstance(command, Delay):
                    self._dispatch(thread, command)
                    break
                wake_time = now() + command.seconds
                if (
                    not runnable
                    and (not delayed or wake_time < delayed[0][0])
                    and self._abort is None
                    and (max_steps is None or steps < max_steps)
                    and (until is None or wake_time < until)
                    and thread.alive
                    and (target is None or target.alive)
                ):
                    advance_to(wake_time)
                    steps += 1
                    self.direct_resumes += 1
                    send_value = None
                    continue
                thread.state = delayed_state
                entry = thread._heap_entry
                if entry is None:
                    thread._heap_entry = entry = [0.0, 0, thread]
                # The entry is out of the heap here (a delayed thread cannot
                # yield again before it is popped), so it is reused: a
                # thread sleeps many times and allocates one entry.
                entry[0] = wake_time
                entry[1] = next(self._seq)
                heappush(delayed, entry)
                break

    # -- internals ---------------------------------------------------------------------

    def _make_runnable(self, thread: Thread) -> None:
        thread.state = ThreadState.RUNNABLE
        thread._stamp = next(self._stamp_counter)
        self._runnable.append(thread)

    def _release_expired(self, now: float) -> None:
        delayed = self._delayed
        pop = heapq.heappop
        delayed_state = ThreadState.DELAYED
        while delayed and delayed[0][0] <= now:
            thread = pop(delayed)[2]
            if thread.alive and thread.state is delayed_state:
                thread._send_value = None
                self._make_runnable(thread)

    def _dispatch(self, thread: Thread, command: Any) -> None:
        """What a stepped thread asked for, other than a :class:`Delay`
        (which the loop handles itself)."""
        if isinstance(command, WaitEvent):
            event = command.event
            if event._pending:  # a latched signal: consumed, no wait
                event._pending = False
                thread._send_value, event._pending_value = event._pending_value, None
                self._make_runnable(thread)
            else:
                thread.state = ThreadState.BLOCKED
                thread._waiting_on = event
                event._add_waiter(thread)
        elif command is None or isinstance(command, Reschedule):
            self._make_runnable(thread)
        else:
            error = SchedulerError(
                f"thread {thread.name!r} yielded an unknown command: {command!r}"
            )
            self._finish(thread, exception=error)

    def _finish(
        self,
        thread: Thread,
        result: Any = None,
        exception: Optional[BaseException] = None,
    ) -> None:
        thread.result = result
        thread.exception = exception
        thread.state = ThreadState.FAILED if exception is not None else ThreadState.FINISHED
        thread.alive = False
        thread.finished_at = self.clock.now()
        del self._threads[thread]
        joiners, thread._joiners = thread._joiners, []
        if exception is not None and not joiners:
            # Nobody is waiting to observe the failure; remember it so run()
            # can surface it instead of silently dropping the error.
            self._failures.append(thread)
        for joiner in joiners:
            joiner._wake(thread.result)

    def _raise_pending_failure(self) -> None:
        if not self._failures:
            return
        thread = self._failures.pop(0)
        raise SchedulerError(
            f"thread {thread.name!r} died with an unhandled exception"
        ) from thread.exception
