"""Sanitizer zero-perturbation pin: monitored runs stay bit-identical.

The monitor is pure bookkeeping — attaching it must not add, drop, or
reorder a single event. This pins the monitored fig7a reference workload
to its golden makespan, event count and per-layer event-stream digests
(``tests/golden/fig7a_ref.json``, recorded before any instrumentation
refactor).
"""

from repro.analysis.sanitize import sanitized_run, session
from tests.conftest import FIG7A_REF, fig7a_run


def test_monitored_run_is_bit_identical_to_baseline():
    with session() as s:
        makespan = fig7a_run()  # registry attaches the monitor
    assert makespan == FIG7A_REF["makespan_s"]
    (monitor,) = s.monitors
    assert monitor.events == FIG7A_REF["events"]
    assert monitor.digests() == FIG7A_REF["layer_digests"]
    assert s.finish() == []  # no leaks, no races


def test_sanitized_double_run_passes_and_reproduces_baseline():
    makespan, report = sanitized_run(fig7a_run)
    assert makespan == FIG7A_REF["makespan_s"]
    assert report.ok, report.render()
    assert sum(m.events for m in report.run1.monitors) == FIG7A_REF["events"]
