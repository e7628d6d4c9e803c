"""Runtime sanitizers: planted bugs are caught, clean runs pass."""

import numpy as np
import pytest

from repro.analysis.sanitize import (
    Monitor,
    attach_if_active,
    first_divergence,
    note_mutation,
    sanitized_run,
    session,
)
from repro.core.config import RuntimeConfig
from repro.core.data_plane import DataPlane
from repro.fabric.transport import LocalPCIeTransport
from repro.nvme import SSD, Payload
from repro.sim.engine import Environment
from repro.sim.resources import Resource
from repro.units import GiB, MiB

from tests.conftest import deterministic_spec


def _monitored_env():
    env = Environment()
    attach_if_active(env, label="toy")
    return env


# -- determinism sanitizer ----------------------------------------------------


def test_clean_run_passes_all_sanitizers():
    def run():
        env = _monitored_env()
        resource = Resource(env, capacity=1)

        def proc(env):
            yield from resource.serve(1.0)

        env.process(proc(env))
        env.process(proc(env))
        env.run()
        return env.now

    result, report = sanitized_run(run)
    assert result == 2.0
    assert report.ok, report.render()
    assert "OK (both runs bit-identical)" in report.render()


def test_planted_nondeterminism_is_localized():
    calls = []

    def run():
        calls.append(None)
        delay = 1.0 if len(calls) == 1 else 2.0  # differs between runs

        env = _monitored_env()

        def proc(env):
            yield env.timeout(delay)

        env.process(proc(env))
        env.run()

    _, report = sanitized_run(run)
    assert not report.ok
    assert report.divergences
    finding = report.divergences[0]
    assert finding.sanitizer == "determinism"
    # Localized to this file's coroutine layer, at the diverging
    # Timeout event itself (not the downstream Process-end event).
    assert "test_sanitize.py" in finding.message
    assert "Timeout" in finding.message


def test_environment_count_mismatch_is_a_divergence():
    calls = []

    def tick(env):
        yield env.timeout(1.0)

    def run():
        calls.append(None)
        for _ in range(len(calls)):  # run 2 builds one env more
            env = _monitored_env()
            env.process(tick(env))
            env.run()

    _, report = sanitized_run(run)
    assert not report.ok
    assert any("environments" in f.message for f in report.divergences)


def test_first_divergence_on_hand_fed_monitors():
    class FakeEvent:
        callbacks = []

    a, b = Monitor("a"), Monitor("b")
    for seq in range(3):
        a.note_event(float(seq), seq, FakeEvent())
        b.note_event(float(seq), seq, FakeEvent())
    assert first_divergence(a, b) is None
    b.note_event(9.0, 3, FakeEvent())
    layer, index, got_a, got_b = first_divergence(a, b)
    assert layer == "<engine>"
    assert index == 3
    assert got_a is None and "9.0" in got_b


# -- leak sanitizer -----------------------------------------------------------


def test_planted_resource_leak_is_reported():
    def run():
        env = _monitored_env()
        resource = Resource(env, capacity=1)

        def hog(env):
            req = resource.request()
            yield req
            yield env.timeout(1.0)
            # request() without release(): the planted leak

        env.process(hog(env))
        env.run()

    _, report = sanitized_run(run)
    assert not report.ok
    assert any(
        "slot(s) still held" in f.message for f in report.leaks
    ), report.render()
    assert all(f.sanitizer == "leak" for f in report.leaks)


def test_stranded_waiter_is_reported():
    def run():
        env = _monitored_env()
        resource = Resource(env, capacity=1)

        def hog(env):
            yield resource.request()
            yield env.timeout(1.0)

        def stranded(env):
            yield resource.request()  # never granted: hog never releases

        env.process(hog(env))
        env.process(stranded(env))
        env.run()

    _, report = sanitized_run(run)
    assert any("waiter(s) still queued" in f.message for f in report.leaks)


@pytest.mark.parametrize("until,leaked", [(1e-3, True), (None, False)])
def test_unfinished_dataplane_io_is_reported(until, leaked):
    # A 64 MiB write takes tens of ms; cutting the run at 1 ms leaves it
    # parked inside DataPlane.submit.
    def run():
        env = _monitored_env()
        ssd = SSD(env, deterministic_spec(), "s0", rng=np.random.default_rng(0))
        ns = ssd.create_namespace(GiB(4))
        plane = DataPlane(env, LocalPCIeTransport(env, ssd), ns.nsid,
                          RuntimeConfig())
        env.process(plane.write_runs([(0, Payload.synthetic("ckpt", MiB(64)))]))
        env.run(until=until)

    _, report = sanitized_run(run)
    named = [f for f in report.leaks if "dataplane.write" in f.subject]
    assert bool(named) is leaked, report.render()
    assert all("never completed" in f.message for f in named)


def test_released_resource_is_not_a_leak():
    def run():
        env = _monitored_env()
        resource = Resource(env, capacity=1)

        def polite(env):
            yield from resource.serve(1.0)

        env.process(polite(env))
        env.run()

    _, report = sanitized_run(run)
    assert report.ok, report.render()


# -- race detector ------------------------------------------------------------


class _Ledger:
    """A shared object with no declared tie-break discipline."""

    def __init__(self):
        self.value = 0


class _FifoLedger(_Ledger):
    _san_tiebreak = "fifo"


def _race_run(ledger_cls):
    def run():
        env = _monitored_env()
        ledger = ledger_cls()

        def bump(env):
            yield env.timeout(1.0)  # both processes wake at t=1.0
            note_mutation(env, ledger, "bump")
            ledger.value += 1

        env.process(bump(env))
        env.process(bump(env))
        env.run()

    return run


def test_same_timestamp_multi_actor_mutation_is_a_race():
    _, report = sanitized_run(_race_run(_Ledger))
    assert not report.ok
    assert len(report.races) == 1
    finding = report.races[0]
    assert "_Ledger" in finding.subject
    assert "2 actors" in finding.message and "no" in finding.message


def test_declared_tiebreak_silences_the_race():
    _, report = sanitized_run(_race_run(_FifoLedger))
    assert report.ok, report.render()


def test_different_timestamps_are_not_a_race():
    def run():
        env = _monitored_env()
        ledger = _Ledger()

        def bump(env, at):
            yield env.timeout(at)
            note_mutation(env, ledger, "bump")
            ledger.value += 1

        env.process(bump(env, 1.0))
        env.process(bump(env, 2.0))
        env.run()

    _, report = sanitized_run(run)
    assert report.ok, report.render()


# -- session plumbing ---------------------------------------------------------


def test_attach_only_inside_session():
    env = Environment()
    attach_if_active(env)  # no session open
    assert env.monitor is None
    with session() as s:
        attach_if_active(env, label="fleet")
        assert env.monitor is not None
        assert s.monitors == [env.monitor]
    env2 = Environment()
    attach_if_active(env2)  # session closed again
    assert env2.monitor is None


def test_monitor_never_schedules_events():
    """Bit-identity spot check: same event count with and without."""

    def workload(env):
        resource = Resource(env, capacity=1)

        def proc(env):
            yield from resource.serve(1.0)

        env.process(proc(env))
        env.process(proc(env))
        env.run()

    plain = Environment()
    workload(plain)
    with session():
        monitored = Environment()
        attach_if_active(monitored)
        workload(monitored)
        assert monitored.now == plain.now
        assert monitored.monitor.events > 0


def test_windowed_runs_feed_the_monitor():
    """``run_window`` dispatches through the monitored loop too."""
    with session() as s:
        env = Environment()
        attach_if_active(env)

        def proc(env):
            for _ in range(5):
                yield env.timeout(1.0)

        env.process(proc(env))
        horizon = 0.0
        while env.peek() is not None:
            horizon += 0.5
            env.run_window(horizon)
    (monitor,) = s.monitors
    assert env.events_scheduled == 7  # bootstrap, five timeouts, completion
    assert monitor.events == env.events_scheduled
