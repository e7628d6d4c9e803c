"""The fair-share kernel against its reference: equal results, bit for bit.

``tests/sim/reference_fairshare.py`` is the server before the hot path
was rewritten (sort on every re-rate, separate passes, generation-tagged
wakes).  Both run the same schedule on twin environments, and every
observable must be ``==``: completion order and times, bytes served,
events scheduled and the engine's fair-share counters.  The kernel
takes its rates from a per-count memo while no cap can bind, and
water-fills otherwise; the memo is checked against the reference's
water-filling directly, and the examples below switch between the two
paths mid-run.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench import calibration as cal
from repro.sim import Environment, FairShareServer
from repro.sim.engine import EngineTelemetry
from tests.sim.reference_fairshare import FairShareServer as ReferenceServer

CAPACITY = 100.0
MAX_FLOWS = 16

# Exact repeats make same-timestamp arrivals; the inexact i * 0.1 values
# left fp dust in test_fp_dust_never_schedules_negative_horizon.
_starts = st.one_of(
    st.sampled_from([0.0, 0.1, 0.2, 0.5, 3 * 0.1, 7 * 0.1]),
    st.floats(0.0, 5.0),
)
_sizes = st.one_of(
    st.just(0.0),
    st.floats(1e-9, 1e-6),  # at or below the completion epsilon
    st.floats(1e-3, 1000.0),
)
_mixed_cap = st.one_of(
    st.none(),
    st.just(math.inf),
    st.sampled_from([5.0, 10.0, 50.0]),  # repeated caps tie in the sort
    st.floats(0.5, 2 * CAPACITY),
)


@st.composite
def schedules(draw):
    """``[(start, nbytes, cap), ...]`` under one of four cap regimes."""
    n = draw(st.integers(1, MAX_FLOWS))
    starts = draw(st.lists(_starts, min_size=n, max_size=n))
    sizes = draw(st.lists(_sizes, min_size=n, max_size=n))
    regime = draw(st.sampled_from(["uncapped", "binding", "slack", "mixed"]))
    if regime == "uncapped":
        caps = [None] * n
    elif regime == "binding":  # below C / MAX_FLOWS: binds at any flow count
        caps = [draw(st.floats(0.5, CAPACITY / MAX_FLOWS))] * n
    elif regime == "slack":  # at or above C: never binds
        caps = [draw(st.floats(CAPACITY, 10 * CAPACITY))] * n
    else:
        caps = draw(st.lists(_mixed_cap, min_size=n, max_size=n))
    return list(zip(starts, sizes, caps))


def _observe(server_cls, schedule):
    env = Environment()
    env.telemetry = EngineTelemetry()
    server = server_cls(env, capacity=CAPACITY)
    completions = []

    def client(i, start, nbytes, cap):
        yield env.timeout(start)
        yield server.transfer(nbytes, cap=cap)
        completions.append((i, env.now))

    for i, spec in enumerate(schedule):
        env.process(client(i, *spec))
    env.run()
    telemetry = env.telemetry
    return {
        "completions": completions,
        "bytes_served": server.bytes_served,
        "events_scheduled": env.events_scheduled,
        "fairshare_flows": telemetry.fairshare_flows,
        "fairshare_recomputes": telemetry.fairshare_recomputes,
    }


# The arrivals of test_fp_dust_never_schedules_negative_horizon (its
# bare-timeout clients never touch the server).
_FP_DUST = [
    (i * 0.1, 50.0, None) if kind == 0 else (i * 0.1, 25.0, 10.0)
    for i, kind in enumerate([2, 0, 2, 1, 2, 1, 2, 2, 0])
    if kind != 1
]


# Two uncapped flows share by the memo until a binding 5 B/s cap arrives
# at t=1 and forces the water-filling; it finishes first (t=3), and the
# memo rates the survivors again.
_CAP_ARRIVES = [(0.0, 500.0, None), (0.0, 400.0, None), (1.0, 10.0, 5.0)]
# Distinct limits, all at or above capacity: no cap binds, but the rates
# follow the stable sort by limit, not arrival order.
_SLACK_LIMITS = [(0.0, 300.0, 150.0), (0.0, 200.0, None), (0.5, 100.0, CAPACITY),
                 (0.5, 50.0, None)]


@settings(max_examples=200, deadline=None)
@given(schedule=schedules())
@example(schedule=_FP_DUST)
@example(schedule=_CAP_ARRIVES)
@example(schedule=_SLACK_LIMITS)
def test_kernel_matches_reference_exactly(schedule):
    assert _observe(FairShareServer, schedule) == _observe(ReferenceServer, schedule)


@pytest.mark.slow
@settings(max_examples=2000, deadline=None)
@given(schedule=schedules())
def test_kernel_matches_reference_exactly_deep(schedule):
    """The same property over ten times as many schedules."""
    assert _observe(FairShareServer, schedule) == _observe(ReferenceServer, schedule)


@pytest.mark.parametrize("capacity", [
    100.0,
    cal.P4800X_WRITE_BANDWIDTH,
    1 / cal.P4800X_PER_COMMAND_COST,
    3 * 0.1,  # not a binary fraction
])
def test_memoized_shares_equal_the_water_filling(capacity):
    """For 1 to 64 flows, the rates memoized from uncapped flows are the
    reference's water-filling for flows capped at exactly the capacity,
    bit for bit (positive floats, so ``==`` is bit equality): with no
    cap that can bind they depend only on the count.  A second re-rate
    at that count takes them from the memo."""
    env = Environment()
    server = FairShareServer(env, capacity=capacity)
    reference = ReferenceServer(env, capacity=capacity)
    for count in range(1, 65):
        server.start(float(count), None, lambda _elapsed: None)
        reference.transfer(1.0, cap=capacity)
        memoized = server._shares[count]
        server._rerate_and_schedule()
        assert server._rates is memoized
        assert memoized == tuple(flow.rate for flow in reference._flows.values())
