"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, Interrupt


def test_timeout_advances_clock():
    env = Environment()
    done = []

    def proc():
        yield env.timeout(1.5)
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done == [1.5]
    assert env.now == 1.5


def test_timeout_value_passthrough():
    env = Environment()
    seen = []

    def proc():
        value = yield env.timeout(0.1, value="hello")
        seen.append(value)

    env.process(proc())
    env.run()
    assert seen == ["hello"]


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_nan_delay_rejected_and_infinite_delay_allowed():
    """NaN passed ``delay < 0`` and fired wherever the heap put it."""
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(float("nan"))
    never = env.timeout(float("inf"))
    env.run(until=10.0)
    assert not never.processed


def test_events_fire_in_time_order():
    env = Environment()
    order = []

    def proc(delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    env.process(proc(3.0, "c"))
    env.process(proc(1.0, "a"))
    env.process(proc(2.0, "b"))
    env.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fifo_deterministic():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in range(10):
        env.process(proc(tag))
    env.run()
    assert order == list(range(10))


def test_process_join_returns_value():
    env = Environment()
    results = []

    def child():
        yield env.timeout(2.0)
        return 42

    def parent():
        value = yield env.process(child())
        results.append((env.now, value))

    env.process(parent())
    env.run()
    assert results == [(2.0, 42)]


def test_process_exception_propagates_to_joiner():
    env = Environment()
    caught = []

    def child():
        yield env.timeout(1.0)
        raise ValueError("boom")

    def parent():
        try:
            yield env.process(child())
        except ValueError as exc:
            caught.append(str(exc))

    env.process(parent())
    env.run()
    assert caught == ["boom"]


def test_orphan_process_failure_aborts_run():
    env = Environment()

    def child():
        yield env.timeout(1.0)
        raise ValueError("unheard scream")

    env.process(child())
    with pytest.raises(ValueError, match="unheard scream"):
        env.run()


def test_env_fail_aborts_the_run_unless_someone_waits():
    """``Environment.fail`` gives any event a failed process's semantics."""
    env = Environment()
    env.fail(env.event(), ValueError("unheard"))
    with pytest.raises(ValueError, match="unheard"):
        env.run()

    env = Environment()
    heard = env.event()
    caught = []

    def waiter():
        try:
            yield heard
        except ValueError as exc:
            caught.append(str(exc))

    env.process(waiter())
    env.fail(heard, ValueError("heard"))
    env.run()
    assert caught == ["heard"]

    # A plain Event.fail nobody waits on stays silent.
    env = Environment()
    env.event().fail(ValueError("quiet"))
    env.run()


def test_run_until_time_horizon():
    env = Environment()
    fired = []

    def proc():
        yield env.timeout(10.0)
        fired.append(True)

    env.process(proc())
    env.run(until=5.0)
    assert env.now == 5.0
    assert fired == []
    env.run()
    assert fired == [True]


def test_manual_event_succeed():
    env = Environment()
    gate = env.event()
    seen = []

    def waiter():
        value = yield gate
        seen.append((env.now, value))

    def opener():
        yield env.timeout(3.0)
        gate.succeed("open")

    env.process(waiter())
    env.process(opener())
    env.run()
    assert seen == [(3.0, "open")]


def test_event_double_trigger_rejected():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_all_of_waits_for_every_event():
    env = Environment()
    times = []

    def proc():
        yield env.all_of([env.timeout(1.0), env.timeout(5.0), env.timeout(3.0)])
        times.append(env.now)

    env.process(proc())
    env.run()
    assert times == [5.0]


def test_any_of_fires_on_first():
    env = Environment()
    times = []

    def proc():
        yield env.any_of([env.timeout(4.0), env.timeout(2.0)])
        times.append(env.now)

    env.process(proc())
    env.run()
    assert times == [2.0]


def test_all_of_empty_fires_immediately():
    env = Environment()
    times = []

    def proc():
        yield env.all_of([])
        times.append(env.now)

    env.process(proc())
    env.run()
    assert times == [0.0]


def test_yield_already_processed_event():
    env = Environment()
    order = []

    def proc():
        done = env.timeout(1.0)
        yield env.timeout(2.0)  # `done` fires and is processed meanwhile
        value = yield done
        order.append((env.now, value))

    env.process(proc())
    env.run()
    assert order == [(2.0, None)]


def test_interrupt_delivers_cause():
    env = Environment()
    outcomes = []

    def sleeper():
        try:
            yield env.timeout(100.0)
            outcomes.append("slept")
        except Interrupt as intr:
            outcomes.append(("interrupted", env.now, intr.cause))

    def interrupter(target):
        yield env.timeout(2.5)
        target.interrupt(cause="power-loss")

    target = env.process(sleeper())
    env.process(interrupter(target))
    env.run()
    assert outcomes == [("interrupted", 2.5, "power-loss")]


def test_interrupt_finished_process_is_error():
    env = Environment()

    def quick():
        yield env.timeout(0.1)

    proc = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_run_until_complete():
    env = Environment()

    def proc():
        yield env.timeout(7.0)
        return "done"

    result = env.run_until_complete(env.process(proc()))
    assert result == "done"
    assert env.now == 7.0


def test_nested_subgenerators_via_yield_from():
    env = Environment()
    trail = []

    def inner():
        yield env.timeout(1.0)
        trail.append("inner")
        return 10

    def outer():
        value = yield from inner()
        trail.append(("outer", value))
        yield env.timeout(1.0)
        return value * 2

    result = env.run_until_complete(env.process(outer()))
    assert result == 20
    assert trail == ["inner", ("outer", 10)]
    assert env.now == 2.0


def test_yielding_non_event_fails_process():
    env = Environment()

    def bad():
        yield 42

    env.process(bad())
    with pytest.raises(SimulationError):
        env.run()


def test_clock_monotonicity_under_many_processes():
    env = Environment()
    stamps = []

    def proc(i):
        yield env.timeout(i % 7 * 0.1)
        stamps.append(env.now)
        yield env.timeout(0.05)
        stamps.append(env.now)

    for i in range(50):
        env.process(proc(i))
    env.run()
    assert stamps == sorted(stamps)


# -- interrupts land on whatever the process waits on then --------------------


def _sleeper(env, log):
    """Sleeps 5 s; on an interrupt, logs it and sleeps 10 s instead."""
    try:
        yield env.timeout(5.0)
    except Interrupt as intr:
        log.append(("interrupted", intr.cause, env.now))
    yield env.timeout(10.0)
    log.append(("woke", env.now))


def test_interrupt_detaches_from_a_pending_timeout():
    env = Environment()
    log = []
    target = env.process(_sleeper(env, log))

    def interrupter():
        yield env.timeout(1.0)
        target.interrupt("now")

    env.process(interrupter())
    env.run()
    # The 5 s timeout must not resume the process a second time.
    assert log == [("interrupted", "now", 1.0), ("woke", 11.0)]
    assert env.now == 11.0


def test_interrupt_before_the_first_step_lands_after_it():
    env = Environment()
    log = []
    target = env.process(_sleeper(env, log))
    target.interrupt("early")
    env.run()
    assert log == [("interrupted", "early", 0.0), ("woke", 10.0)]


def test_interrupt_detaches_from_the_resume_of_a_processed_event():
    env = Environment()
    log = []
    done = env.timeout(0.5)

    def interrupter():
        yield env.timeout(1.0)
        target.interrupt("mid")

    def waiter():
        yield env.timeout(1.0)  # fires after the interrupter's, same step
        try:
            yield done  # already processed: resumed by a same-time event
        except Interrupt:
            log.append(("interrupted", env.now))
        yield env.timeout(2.0)
        log.append(("woke", env.now))

    env.process(interrupter())
    target = env.process(waiter())
    env.run()
    assert log == [("interrupted", 1.0), ("woke", 3.0)]


def test_interrupt_landing_after_its_target_ended_is_dropped():
    env = Environment()

    def interrupter():
        yield env.timeout(1.0)
        target.interrupt("late")

    def quick():
        yield env.timeout(1.0)  # fires after the interrupter's, same step
        return "done"

    env.process(interrupter())
    target = env.process(quick())
    env.run()
    assert target.value == "done"


# -- cancellable timeouts -------------------------------------------------------


class _Seen:
    """Observer recording every event the loop dispatches."""

    def __init__(self):
        self.events = []

    def note_event(self, time, seq, event):
        self.events.append(event)

    def end_loop(self):
        pass


def test_cancelled_timeout_is_dropped_unseen_and_counted():
    env = Environment()
    seen = _Seen()
    env.observe(seen)
    fired = []
    kept = env.timeout(1.0)
    dropped = env.timeout(2.0)
    dropped.callbacks.append(fired.append)
    dropped.cancel()
    env.run()
    assert fired == []
    assert seen.events == [kept]
    assert not dropped.processed
    assert (env.events_scheduled, env.events_cancelled) == (2, 1)
    # Popping the cancelled entry still advances the clock.
    assert env.now == 2.0


def test_cancel_after_dispatch_does_nothing():
    env = Environment()
    fired = []
    timer = env.timeout(1.0, value="v")
    timer.callbacks.append(lambda event: fired.append(env.now))
    env.run()
    timer.cancel()
    timer.cancel()
    assert fired == [1.0]
    assert timer.processed and env.events_cancelled == 0

    def late():
        return (yield timer)  # still an ordinary processed event

    assert env.run_until_complete(env.process(late())) == "v"


def test_yielding_a_cancelled_timeout_fails_the_process():
    env = Environment()

    def proc():
        timer = env.timeout(1.0)
        timer.cancel()
        yield timer

    env.process(proc())
    with pytest.raises(SimulationError, match="cancelled"):
        env.run()


def test_cancelling_an_awaited_timeout_fails_the_waiter():
    env = Environment()
    timer = env.timeout(5.0)

    def sleeper():
        yield timer

    def canceller():
        yield env.timeout(1.0)
        timer.cancel()

    env.process(sleeper())
    env.process(canceller())
    with pytest.raises(SimulationError, match="cancelled"):
        env.run()
    assert env.now == 1.0


def test_a_condition_cannot_wait_on_a_cancelled_timeout():
    env = Environment()
    timer = env.timeout(5.0)
    both = env.all_of([timer, env.timeout(1.0)])
    timer.cancel()  # the pending all_of fails rather than hang

    def waiter():
        yield both

    env.process(waiter())
    with pytest.raises(SimulationError, match="cancelled"):
        env.run()
    with pytest.raises(SimulationError, match="cancelled"):
        env.any_of([timer])


def test_step_skips_cancelled_entries():
    env = Environment()
    seen = _Seen()
    env.observe(seen)
    first, second, third = (env.timeout(t) for t in (1.0, 2.0, 3.0))
    first.cancel()
    second.cancel()
    env.step()
    assert seen.events == [third]
    assert env.now == 3.0
    assert env.events_cancelled == 2
