"""Sanitizer zero-perturbation pin: monitored runs stay bit-identical.

The monitor is pure bookkeeping — attaching it must not add, drop, or
reorder a single event. A monitored fig7a reference workload keeps its
golden makespan (``tests/golden/fig7a_ref.json``), the monitor sees
exactly the events the engine dispatched, and its per-layer
event-stream digests repeat on a freshly built second run — the
``--sanitize`` run-twice check.
"""

from repro import obs
from repro.analysis.sanitize import sanitized_run, session
from tests.conftest import FIG7A_REF, fig7a_run


def _dispatched(ctx):
    return sum(ctx.env.telemetry.dispatch.values())


def test_monitored_run_is_bit_identical_to_baseline():
    with obs.capture(telemetry=True) as cap, session() as s:
        makespan = fig7a_run()  # registry attaches the monitor
    assert makespan == FIG7A_REF["makespan_s"]
    (monitor,) = s.monitors
    assert monitor.events == _dispatched(cap.contexts[0])
    with session() as again:
        assert fig7a_run() == makespan
    assert again.monitors[0].digests() == monitor.digests()
    assert s.finish() == []  # no leaks, no races


def test_sanitized_double_run_passes_and_reproduces_baseline():
    with obs.capture(telemetry=True) as cap:
        makespan, report = sanitized_run(fig7a_run)
    assert makespan == FIG7A_REF["makespan_s"]
    assert report.ok, report.render()
    monitors = report.run1.monitors + report.run2.monitors
    assert [m.events for m in monitors] == [_dispatched(c) for c in cap.contexts]
    assert ([m.digests() for m in report.run1.monitors]
            == [m.digests() for m in report.run2.monitors])
