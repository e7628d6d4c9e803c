"""Event loop, events, and generator-based processes.

The kernel follows the classic event-list design: a binary heap of
``(time, sequence, event)`` entries. Ties in time break by insertion
sequence, which makes every simulation run deterministic — an invariant
the reproduction relies on (all tables must be bit-for-bit repeatable).

Every entry point — :meth:`Environment.run`, :meth:`~Environment.run_window`,
:meth:`~Environment.step` and :meth:`~Environment.run_until_complete` —
drives the same private dispatch loop.  Instrumentation composes through
one :class:`Observer` protocol: ``env.observe(obj)`` appends to the
``env.observers`` tuple, the loop calls ``note_event(time, seq, event)``
on each observer after popping an event and before its callbacks, and
``end_loop()`` once whenever the loop returns.  The sanitizer monitor,
:class:`EngineTelemetry` and the ``--profile`` self-profile are such
observers; any subset may be attached at once.  Observers are pure
bookkeeping — they never create events or read the simulated clock — so
the event stream is identical with or without them, and with none
attached the loop pays one truth test per event.

A pending :class:`Timeout` can be withdrawn with :meth:`Timeout.cancel`.
Its heap entry stays where it is, so every live event keeps its
sequence number and its order; the loop drops the entry when it pops
it, before any observer sees it, and counts it in
:attr:`Environment.events_cancelled`.  Popping it still advances the
clock, exactly as dispatching a timer with nothing left to do would.
A process that waits on a cancelled timeout, or yields one, fails with
:class:`~repro.errors.SimulationError` rather than waiting forever.
A timeout that only its owner's own callback awaits (a fair-share wake,
a Raft member's timer) is withdrawn with the private
``Timeout._withdraw``, which skips that waiter scan.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Generator, Iterable, List, Optional, Protocol, Tuple

from repro.errors import SimulationError

__all__ = [
    "Environment",
    "EngineTelemetry",
    "Observer",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
]


class Observer(Protocol):
    """Per-event hook attached with :meth:`Environment.observe`."""

    __slots__ = ()

    def note_event(self, time: float, seq: int, event: "Event") -> None:
        """Called after each pop of a live (not cancelled) event, before
        its callbacks run."""

    def end_loop(self) -> None:
        """Called once each time a dispatch loop returns."""


class EngineTelemetry:
    """Deterministic hot-loop counters for the engine itself.

    Counts *work*, never time: events dispatched per event class, heap
    traffic, coroutine resumes, and fair-share re-rates.  Every value is
    a pure function of the event stream, so the same seed produces the
    same counters on any host and at any shard count — the merge layer
    can sum them bit-identically.  Attached as an :class:`Observer` via
    ``repro.obs.attach(..., telemetry=True)`` (the ``repro profile`` CLI
    path); ``Process`` and ``FairShareServer`` bump the other counters
    through ``env.telemetry``.
    """

    __slots__ = ("dispatch", "heap_pops", "resumes", "fairshare_recomputes",
                 "fairshare_flows", "_published")

    def __init__(self) -> None:
        self.dispatch: dict = {}  # event class name -> dispatch count
        self.heap_pops = 0
        self.resumes = 0
        self.fairshare_recomputes = 0
        self.fairshare_flows = 0
        self._published = False

    def note_event(self, time: float, seq: int, event: "Event") -> None:
        name = type(event).__name__
        self.dispatch[name] = self.dispatch.get(name, 0) + 1
        self.heap_pops += 1

    def end_loop(self) -> None:
        """Counters need no flush."""

    def publish(self, metrics: Any, env: "Environment") -> None:
        """Fold the counters into a metrics registry (idempotent).

        ``engine.heap.pushes`` is the environment's scheduled-event
        total — every push goes through ``_schedule``, which already
        counts via ``_seq``.  ``engine.heap.cancelled`` counts the
        entries the loop dropped without dispatch; observers never see
        them, so ``engine.heap.pops`` adds them to the dispatches.  On
        a drained run pushes equal pops.
        """
        if self._published:
            return
        self._published = True
        for name in sorted(self.dispatch):
            metrics.counter(f"engine.dispatch.{name}").add(self.dispatch[name])
        metrics.counter("engine.heap.pushes").add(env.events_scheduled)
        metrics.counter("engine.heap.cancelled").add(env.events_cancelled)
        metrics.counter("engine.heap.pops").add(
            self.heap_pops + env.events_cancelled)
        metrics.counter("engine.coroutine.resumes").add(self.resumes)
        metrics.counter("engine.fairshare.recomputes").add(
            self.fairshare_recomputes)
        metrics.counter("engine.fairshare.flows").add(self.fairshare_flows)


class Event:
    """A one-shot occurrence in simulated time.

    An event is *triggered* when given a value (or an exception), and
    *processed* once the loop has run its callbacks. Processes wait on
    events by ``yield``-ing them.
    """

    __slots__ = (
        "env",
        "callbacks",
        "_value",
        "_exc",
        "_triggered",
        "_processed",
        "_had_callbacks",
    )

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._triggered = False
        self._processed = False
        self._had_callbacks = False

    # -- state ------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has been given a value or exception."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once the loop has run this event's callbacks."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._triggered and self._exc is None

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event value read before trigger")
        if self._exc is not None:
            raise self._exc
        return self._value

    # -- trigger ----------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully; runs callbacks at the current time."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        self.env._schedule(self, 0.0)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception, raised in waiting processes."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exc!r}")
        self._triggered = True
        self._exc = exc
        self.env._schedule(self, 0.0)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self._triggered else "pending"
        return f"<{type(self).__name__} {state} at t={self.env.now:.6f}>"


class Timeout(Event):
    """An event that fires a fixed delay after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if not delay >= 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # The Event slots, set here rather than through super().__init__:
        # a timeout is born triggered, and this is the hottest constructor.
        self.env = env
        self.callbacks = []
        self._value = value
        self._exc = None
        self._triggered = True
        self._processed = False
        self._had_callbacks = False
        self.delay = delay
        env._schedule(self, delay)

    def cancel(self) -> None:
        """Withdraw the timeout: the loop will drop it without dispatch.

        Its heap entry stays put, so no live event changes its order.
        Cancelling a timeout that was already dispatched (or cancelled)
        does nothing.  A process, or a condition that has not triggered
        yet, still waiting on the timeout fails with
        :class:`SimulationError`: a cancel never strands a waiter.
        """
        callbacks = self.callbacks
        if callbacks is None:
            return
        self.callbacks = None
        for callback in callbacks:
            waiter = getattr(callback, "__self__", None)
            if isinstance(waiter, (Process, _Condition)) and not waiter._triggered:
                error = SimulationError("a timeout was cancelled while awaited")
                if isinstance(waiter, Process):
                    waiter._fail_process(error)
                else:
                    waiter.fail(error)

    def _withdraw(self) -> None:
        """:meth:`cancel` for a timeout awaited only by its owner's callback.

        The owner scheduled the timeout and attached its own callback, so
        no process or condition can be waiting on it: the waiter scan is
        skipped.  Withdrawing a dispatched timeout does nothing.
        """
        self.callbacks = None


class Process(Event):
    """A generator-driven coroutine; completes when the generator returns.

    The process's own completion is an event: other processes may
    ``yield proc`` to join it. The generator's ``return`` value becomes
    the event value; an uncaught exception fails the event (and
    propagates to the loop if nobody is waiting — silent failures would
    hide model bugs).
    """

    __slots__ = ("_generator",)

    def __init__(self, env: "Environment", generator: Generator[Event, Any, Any]) -> None:
        super().__init__(env)
        self._generator = generator
        # Bootstrap: step the process at the current time.
        bootstrap = Event(env)
        bootstrap.callbacks.append(self._resume)
        bootstrap._triggered = True
        env._schedule(bootstrap, 0.0)

    # -- stepping -----------------------------------------------------------

    def _resume(self, event: Event) -> None:
        telemetry = self.env.telemetry
        if telemetry is not None:
            telemetry.resumes += 1
        try:
            if event._exc is not None:
                target = self._generator.throw(event._exc)
            else:
                target = self._generator.send(event._value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - must surface model errors
            self._fail_process(exc)
            return
        self._wait_on(target)

    def _wait_on(self, target: Event) -> None:
        if not isinstance(target, Event):
            self._fail_process(
                SimulationError(f"process yielded non-event {target!r}")
            )
            return
        if target.callbacks is None:
            if not target._processed:
                self._fail_process(
                    SimulationError("process yielded a cancelled timeout")
                )
                return
            # Already processed: resume immediately (same timestep).
            kick = Event(self.env)
            kick.callbacks.append(self._resume)
            kick._triggered = True
            kick._value = target._value
            kick._exc = target._exc
            self.env._schedule(kick, 0.0)
        else:
            target.callbacks.append(self._resume)

    def _finish(self, value: Any) -> None:
        if self._triggered:
            raise SimulationError(f"process ended twice: {self!r}")
        self._triggered = True
        self._value = value
        self.env._schedule(self, 0.0)

    def _fail_process(self, exc: BaseException) -> None:
        if self._triggered:
            raise SimulationError(f"process ended twice: {self!r}") from exc
        self.env.fail(self, exc)


class _Condition(Event):
    """Base for AnyOf / AllOf composite events."""

    __slots__ = ("events", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self.events = list(events)
        self._remaining = len(self.events)
        if not self.events:
            self.succeed([])
            return
        for event in self.events:
            if event.callbacks is None:
                if not event._processed:
                    raise SimulationError("condition over a cancelled timeout")
                self._on_child(event)
            else:
                event.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _collect(self) -> List[Any]:
        return [e._value for e in self.events if e._triggered and e._exc is None]


class AnyOf(_Condition):
    """Triggers when the first child event triggers."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if event._exc is not None:
            self.fail(event._exc)
        else:
            self.succeed(self._collect())


class AllOf(_Condition):
    """Triggers once every child event has triggered."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if event._exc is not None:
            self.fail(event._exc)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._collect())


class Environment:
    """The simulation clock and event queue."""

    __slots__ = ("_now", "_queue", "_seq", "_failures", "obs", "monitor",
                 "telemetry", "observers", "events_cancelled")

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: List[tuple] = []
        self._seq = 0
        #: Cancelled heap entries the loop has popped and dropped.
        self.events_cancelled = 0
        self._failures: List[tuple] = []
        self.obs = None  # ObsContext, attached by repro.obs.attach()
        self.monitor = None  # sanitizer Monitor (repro.analysis.sanitize)
        self.telemetry: Optional[EngineTelemetry] = None  # repro.obs.attach(telemetry=True)
        #: Per-event observers, in attach order; filled only by observe().
        self.observers: Tuple[Observer, ...] = ()

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def observe(self, observer: Observer) -> None:
        """Attach ``observer`` to every later dispatch loop (idempotent)."""
        if observer not in self.observers:
            self.observers += (observer,)

    # -- factories ----------------------------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event bound to this environment."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        """Start a coroutine process; the return value is also its join event."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event triggering when every child has triggered."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event triggering on the first child trigger."""
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------

    def _schedule(self, event: Event, delay: float) -> None:
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (self._now + delay, seq, event))

    def peek(self) -> Optional[float]:
        """Timestamp of the next pending event, or None when drained."""
        return self._queue[0][0] if self._queue else None

    @property
    def events_scheduled(self) -> int:
        """Total events ever scheduled — the determinism fingerprint's
        cheap proxy for 'same event stream'."""
        return self._seq

    def fail(self, event: Event, exc: BaseException) -> None:
        """Fail ``event`` with ``exc``, and abort the run if nobody sees it.

        Unlike :meth:`Event.fail`, a failure raised here must be
        observed: if ``event`` is processed with no callback waiting on
        it, the loop raises ``exc``.  A failed process ends this way, and
        so does any callback-driven operation whose completion event
        stands in for one.
        """
        event.fail(exc)
        self._failures.append((event, exc))

    # -- main loop -----------------------------------------------------------

    def _loop(self, limit: float, stop: Optional[Event] = None) -> None:
        """The one dispatch loop: process events with ``t <= limit``.

        Returns when the queue drains, the next event lies beyond
        ``limit``, or ``stop`` has triggered after a dispatch.  Raises
        the exception of any process (or other :meth:`fail`-ed event)
        that failed with nobody waiting on it — silent process death
        would corrupt results.  A popped entry whose callbacks are
        ``None`` was cancelled: it moves the clock and is counted, but
        no observer or callback sees it.
        """
        queue = self._queue
        pop = heapq.heappop
        observers = self.observers
        try:
            while queue:
                time = queue[0][0]
                if time > limit:
                    break
                if time < self._now - 1e-12:
                    raise SimulationError("time went backwards (scheduler bug)")
                _time, seq, event = pop(queue)
                if time > self._now:
                    self._now = time
                callbacks = event.callbacks
                if callbacks is None:
                    self.events_cancelled += 1
                    continue
                if observers:
                    for observer in observers:
                        observer.note_event(time, seq, event)
                event.callbacks = None
                event._processed = True
                if callbacks:
                    event._had_callbacks = True
                    for callback in callbacks:
                        callback(event)
                if self._failures:
                    self._raise_orphans()
                if stop is not None and stop._triggered:
                    break
        finally:
            for observer in observers:
                observer.end_loop()
        if self._failures:
            self._raise_orphans()

    def step(self) -> None:
        """Dispatch the next live event, dropping cancelled entries before it."""
        if not self._queue:
            raise SimulationError("step() on empty event queue")
        once = Event(self)
        once._triggered = True
        self._loop(math.inf, stop=once)

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or simulated time reaches ``until``.

        Raises the exception of any process (or other :meth:`fail`-ed
        event) that failed with nobody waiting on it — silent process
        death would corrupt results.  Returns the final simulation time.
        """
        self._loop(math.inf if until is None else until)
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def run_window(self, horizon: float) -> float:
        """Process every event strictly before ``horizon``; leave the rest.

        Steps a run in half-open windows ``[T, horizon)``, so the caller
        can inspect the model between windows.  Unlike :meth:`run`, events
        *at* the horizon stay queued for the next window, and the clock
        is not advanced past the last processed event.
        """
        # For floats, t >= horizon  <=>  t > nextafter(horizon, -inf).
        self._loop(math.nextafter(horizon, -math.inf))
        return self._now

    def run_until_complete(self, event: Event, limit: float = math.inf) -> Any:
        """Run until ``event`` triggers; convenience for tests and drivers."""
        if not event._triggered:
            self._loop(limit, stop=event)
            if not event._triggered:
                if not self._queue:
                    raise SimulationError("event can never trigger: queue empty")
                raise SimulationError(f"event did not trigger before t={limit}")
        # Drain same-time callbacks so the event is fully processed.
        self._loop(self._now)
        return event.value

    def _raise_orphans(self) -> None:
        """Raise the exception of any :meth:`fail`-ed event nobody awaited.

        A failure with a registered waiter is delivered into the waiter
        (who may handle it); a failure with *no* waiter would otherwise
        vanish, so it aborts the run here.
        """
        if not self._failures:
            return
        still_pending = []
        for event, exc in self._failures:
            if event.processed:
                if not event._had_callbacks:
                    self._failures = []
                    raise exc
                # A waiter observed the failure; considered handled.
            else:
                still_pending.append((event, exc))
        self._failures = still_pending
