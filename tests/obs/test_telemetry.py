"""Engine self-telemetry: counter values, publish idempotence, and
bit-identical merges across shard counts.

The counters are *semantic* (events dispatched by class, heap traffic,
coroutine resumes, fair-share recomputes) — they must not depend on how
the work was partitioned across shards, which process executed it, or
whether a profiler was watching.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.analysis.sanitize import session
from repro.exec import ExecutionPlan, Executor, SimUnit
from repro.units import KiB, MiB
from tests.conftest import FIG7A_REF, fig7a_run


def _engine_counters(ctx):
    flat = ctx.flat_extra()
    return {k: v for k, v in sorted(flat.items()) if k.startswith("engine.")}


def _dispatched(counters):
    return sum(v for k, v in counters.items() if k.startswith("engine.dispatch."))


def test_telemetry_counters_match_engine_accounting():
    with obs.capture(telemetry=True) as cap:
        makespan = fig7a_run()
    assert makespan == FIG7A_REF["makespan_s"]
    ctx = cap.contexts[0]
    env = ctx.env
    counters = _engine_counters(ctx)
    # Heap traffic reconciles exactly with the engine's own counters.
    assert counters["engine.heap.pushes"] == env.events_scheduled
    assert counters["engine.heap.cancelled"] == env.events_cancelled
    assert counters["engine.heap.cancelled"] > 0  # superseded wakes
    # The run drained: every push was popped, and every pop was either
    # dispatched (class counts) or dropped as cancelled.
    assert counters["engine.heap.pops"] == counters["engine.heap.pushes"]
    assert (_dispatched(counters) + counters["engine.heap.cancelled"]
            == counters["engine.heap.pushes"])
    assert counters["engine.coroutine.resumes"] > 0
    assert counters["engine.fairshare.flows"] > 0
    assert counters["engine.fairshare.recomputes"] > 0


def test_telemetry_publish_is_idempotent():
    with obs.capture(telemetry=True) as cap:
        fig7a_run()
    ctx = cap.contexts[0]
    once = _engine_counters(ctx)
    # A second publish must not double-count.
    ctx.publish_telemetry()
    ctx.env.telemetry.publish(ctx.metrics, ctx.env)
    assert _engine_counters(ctx) == once


def test_telemetry_off_means_no_engine_counters():
    with obs.capture(telemetry=False) as cap:
        makespan = fig7a_run()
    assert makespan == FIG7A_REF["makespan_s"]
    assert _engine_counters(cap.contexts[0]) == {}


def test_telemetry_composes_with_the_sanitizer_monitor():
    """Both observers see every dispatched event when attached together,
    and the monitor's streams match those of a monitor attached alone."""
    with obs.capture(telemetry=True) as cap, session() as s:
        makespan = fig7a_run()
    assert makespan == FIG7A_REF["makespan_s"]
    env = cap.contexts[0].env
    dispatched = _dispatched(_engine_counters(cap.contexts[0]))
    assert dispatched == env.events_scheduled - env.events_cancelled
    (monitor,) = s.monitors
    assert monitor.events == dispatched
    with session() as alone:
        assert fig7a_run() == makespan
    assert alone.monitors[0].digests() == monitor.digests()


def test_profile_composes_with_telemetry():
    """``--metrics`` self-profiling, telemetry and the sanitizer monitor,
    attached together, report the same dispatched count."""
    with obs.capture(profile=True, telemetry=True) as cap, session() as s:
        fig7a_run()
    ctx = cap.contexts[0]
    flat = ctx.flat_extra()
    dispatched = _dispatched(flat)
    assert dispatched == ctx.env.events_scheduled - ctx.env.events_cancelled
    assert flat["sim.events"] == dispatched
    assert sum(ctx.selfprof.calls.values()) == dispatched
    assert s.monitors[0].events == dispatched


def test_telemetry_does_not_perturb_the_simulation():
    with obs.capture(telemetry=True):
        with_telemetry = fig7a_run()
    plain = fig7a_run()
    assert with_telemetry == plain == FIG7A_REF["makespan_s"]


# ---------------------------------------------------------------------------
# shard-merge identity
# ---------------------------------------------------------------------------

def _fig7a_plan(n_units=4):
    units = [
        SimUnit(
            index=i, label=f"fig7a/{i}",
            fn="repro.bench.experiments:_fig7a_unit",
            params={
                "block": KiB(32), "nprocs": 4,
                "file_bytes": MiB(32), "seed": 2 + i,
            },
        )
        for i in range(n_units)
    ]
    return ExecutionPlan(
        title="fig7a-telemetry", units=units,
        reduce=lambda results: [r.payload["time_s"] for r in results],
    )


@pytest.mark.parametrize("shards", [2, 4])
def test_counters_merge_identically_across_shard_counts(shards):
    plan = _fig7a_plan()
    with obs.capture(telemetry=True) as cap_one:
        one = Executor(1, start_method="inline").execute(plan)
    counters_one = [_engine_counters(c) for c in cap_one.contexts]

    with obs.capture(telemetry=True) as cap_n:
        many = Executor(shards, start_method="inline").execute(plan)
    counters_n = [_engine_counters(c) for c in cap_n.contexts]

    assert one.merged.fingerprint == many.merged.fingerprint
    assert one.merged.events_scheduled == many.merged.events_scheduled
    assert one.value == many.value
    # Per-unit engine counters are bit-identical regardless of sharding
    # (context harvest order may differ, so compare as multisets).
    key = lambda c: sorted(c.items())
    assert sorted(counters_one, key=key) == sorted(counters_n, key=key)
    assert all(c["engine.heap.pushes"] > 0 for c in counters_one)


def test_forked_workers_capture_with_the_parent_sessions_switches():
    """A worker process opens its own capture with the parent's
    switches, so forked units harvest what inline units harvest."""
    plan = _fig7a_plan(2)
    with obs.capture(telemetry=True):
        inline = Executor(2, start_method="inline").execute(plan)
        forked = Executor(2, start_method="fork").execute(plan)
    assert forked.merged.fingerprint == inline.merged.fingerprint
    assert "engine.coroutine.resumes" in forked.merged.metrics.flat()
