"""Observability cost and the span-measured NVMf overhead (Figure 8a).

Two acceptance claims from the subsystem design:

* near-zero cost when disabled — a run with observability attached
  (tracing off) must schedule and cancel exactly the events a bare run
  of the same build does, end at the same clock with the pinned fig7a
  makespan (``tests/golden/fig7a_ref.json``), and not be materially
  slower than one without;
* the paper's "< 3.5% NVMf overhead" (§IV-F) must be *measurable from
  span data alone*: summing the ``nvmf.rtt`` fabric-wait spans of a
  remote run reproduces the remote-vs-local makespan delta.
"""

import time

import pytest

from repro import obs
from repro.bench.harness import dump_files
from repro.core.config import RuntimeConfig
from repro.obs.export import total_duration
from repro.systems import build
from repro.units import MiB
from tests.conftest import FIG7A_FILE_BYTES, FIG7A_REF, fig7a_fleet, fig7a_run


def test_disabled_tracer_adds_no_events():
    """An attached run pushes, cancels and ends exactly as a bare one."""
    with obs.capture(profile=True) as cap:
        makespan = fig7a_run()
    bare = fig7a_fleet()
    bare.env.obs = None  # sever observability entirely
    bare_makespan = bare.makespan(dump_files(FIG7A_FILE_BYTES))
    assert makespan == bare_makespan == FIG7A_REF["makespan_s"]
    env = cap.contexts[0].env
    assert (env.events_scheduled, env.events_cancelled, env.now) == (
        bare.env.events_scheduled, bare.env.events_cancelled, bare.env.now)
    events = cap.contexts[0].metrics.counter("sim.events").value
    assert events == env.events_scheduled - env.events_cancelled
    # Self-profile lives in its own labelled channel, never in spans.
    assert cap.contexts[0].selfprof.wall_s
    assert cap.n_spans() == 0


@pytest.mark.slow
def test_disabled_observability_wall_cost():
    """Runs with obs attached (tracing off) stay near the plain-run cost."""

    def run_plain():
        fleet = fig7a_fleet()
        fleet.env.obs = None  # sever observability entirely
        t0 = time.perf_counter()
        fleet.makespan(dump_files(FIG7A_FILE_BYTES))
        return time.perf_counter() - t0

    def run_attached():
        fleet = fig7a_fleet()  # registry attach, NULL_TRACER
        t0 = time.perf_counter()
        fleet.makespan(dump_files(FIG7A_FILE_BYTES))
        return time.perf_counter() - t0

    for fn in (run_plain, run_attached):  # warm caches
        fn()
    plain = min(run_plain() for _ in range(5))
    attached = min(run_attached() for _ in range(5))
    # Metrics counters stay on when attached, so allow generous headroom;
    # the claim is "no blow-up", not cycle parity.
    assert attached <= 2.0 * plain + 0.01, (plain, attached)


@pytest.mark.slow
def test_nvmf_overhead_measured_from_spans():
    """Figure 8(a): < 3.5% remote overhead, reproduced from span data."""
    config = RuntimeConfig(log_region_bytes=MiB(4), state_region_bytes=MiB(16))
    nprocs, nbytes = 28, MiB(64)
    times = {}
    contexts = {}
    for name in ("microfs", "microfs-remote"):
        with obs.capture(trace=True) as cap:
            fleet = build(name, nprocs=nprocs, config=config,
                          partition_bytes=2 * nbytes + MiB(64), seed=6)
            times[name] = fleet.makespan(dump_files(nbytes))
            contexts[name] = cap.contexts[0]
    local, remote = times["microfs"], times["microfs-remote"]
    measured = remote / local - 1.0
    assert 0 <= measured < 0.035, measured  # the paper's bound

    # Span-only reconstruction: the added time is the fabric round trips,
    # i.e. the nvmf.rtt spans (pipelined, so the per-rank share bounds
    # the critical-path delta).
    rtt_total = total_duration(contexts["microfs-remote"], name="nvmf.rtt")
    assert rtt_total > 0
    span_overhead = rtt_total / nprocs / local
    assert span_overhead < 0.035, span_overhead
    # The span estimate bounds the measured delta from above (pipelining
    # overlaps some of the waits) and is the right order of magnitude.
    assert remote - local <= rtt_total
    # Counters agree with spans about what the fabric cost.
    wait = contexts["microfs-remote"].metrics.counter("nvmf.fabric_wait_s").value
    assert wait == pytest.approx(rtt_total, rel=0.05)
    # The local run pays no fabric wait at all.
    local_extra = contexts["microfs"].flat_extra()
    assert local_extra.get("nvmf.fabric_wait_s", 0.0) == 0.0
