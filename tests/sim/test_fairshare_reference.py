"""The fair-share kernel against its reference: equal results, bit for bit.

``tests/sim/reference_fairshare.py`` is the server before the hot path
was rewritten (sort on every re-rate, separate passes, generation-tagged
wakes).  Both run the same schedule on twin environments, and every
observable must be ``==``: completion order and times, bytes served,
events scheduled and the engine's fair-share counters.  The kernel
takes its rates from a memo keyed by flow count and the one limit every
flow shares, and water-fills when two or more limits are present; the
memo is checked against the reference's water-filling directly, and the
examples below switch between the two paths mid-run.  The kernel's
finish bound is checked against the reference's exact finish test.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench import calibration as cal
from repro.sim import Environment, FairShareServer
from repro.sim.engine import EngineTelemetry
from tests.sim.reference_fairshare import FairShareServer as ReferenceServer
from tests.sim.reference_fairshare import _EPSILON_BYTES
from tests.sim.reference_fairshare import Flow as ReferenceFlow

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
# One cap of 30 shared by five arrivals: it binds at one to three flows
# (30 < 100 / n) and not at four or five, and the departures take every
# rate from the memo's capped keys.
_ONE_CAP = [(start, 40.0, 30.0) for start in (0.0, 0.1, 0.2, 0.5, 0.7)]
# Two flows capped at 30 are rated by the memo until a distinct 5 B/s
# cap arrives at t=0.5 and forces the water-filling; it finishes first
# (t=0.7), and the memo rates the survivors again on their capped key.
_SECOND_CAP = [(0.0, 60.0, 30.0), (0.0, 90.0, 30.0), (0.5, 1.0, 5.0)]
# The same flow counts under two limits in turn: two flows capped at 30
# finish before two uncapped ones arrive, so a memo keyed by the count
# alone would hand the uncapped flows the capped rates.
_LIMIT_CHANGES = [(0.0, 10.0, 30.0), (0.0, 10.0, 30.0), (1.0, 100.0, None),
                  (1.0, 100.0, None)]


@settings(max_examples=200, deadline=None)
@given(schedule=schedules())
@example(schedule=_FP_DUST)
@example(schedule=_CAP_ARRIVES)
@example(schedule=_SLACK_LIMITS)
@example(schedule=_ONE_CAP)
@example(schedule=_SECOND_CAP)
@example(schedule=_LIMIT_CHANGES)
def test_kernel_matches_reference_exactly(schedule):
    assert _observe(FairShareServer, schedule) == _observe(ReferenceServer, schedule)


@pytest.mark.slow
@settings(max_examples=2000, deadline=None)
@given(schedule=schedules())
def test_kernel_matches_reference_exactly_deep(schedule):
    """The same property over ten times as many schedules."""
    assert _observe(FairShareServer, schedule) == _observe(ReferenceServer, schedule)


_CAPACITIES = [
    100.0,
    cal.P4800X_WRITE_BANDWIDTH,
    1 / cal.P4800X_PER_COMMAND_COST,
    3 * 0.1,  # not a binary fraction
]


def _check_memo(capacity, cap):
    """For 1 to 64 flows sharing ``cap``, the memoized rates are the
    reference's water-filling bit for bit (positive floats, so ``==`` is
    bit equality), and a second re-rate at that key takes them from the
    memo."""
    env = Environment()
    server = FairShareServer(env, capacity=capacity)
    reference = ReferenceServer(env, capacity=capacity)
    limit = math.inf if cap is None else cap
    for count in range(1, 65):
        server.start(float(count), cap, lambda _elapsed: None)
        reference.transfer(1.0, cap=capacity if cap is None else cap)
        memoized = server._shares[count, limit]
        server._rerate_and_schedule()
        assert server._rates is memoized
        assert memoized == tuple(flow.rate for flow in reference._flows.values())


@pytest.mark.parametrize("capacity", _CAPACITIES)
def test_memoized_shares_equal_the_water_filling(capacity):
    """Uncapped flows are keyed ``inf`` and compared with flows capped at
    exactly the capacity: no cap can bind, so the rates depend only on
    the count."""
    _check_memo(capacity, None)


@pytest.mark.parametrize("capacity", _CAPACITIES)
@pytest.mark.parametrize("cap_of", [
    lambda capacity: capacity / 100,  # binds at every count
    lambda capacity: capacity / 8,  # binds up to seven flows
    lambda capacity: capacity * (1 - 2**-52),  # binds at one flow only
], ids=["c-over-100", "c-over-8", "just-below-c"])
def test_memoized_capped_shares_equal_the_water_filling(capacity, cap_of):
    """One cap below capacity keys its own rates, compared with the
    reference's for flows capped at it; it binds at low flow counts and
    stops binding at higher ones."""
    cap = cap_of(capacity)
    assert cap < capacity
    _check_memo(capacity, cap)


def _around(x):
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


@st.composite
def finish_cases(draw):
    """``(capacity, rate, remaining)``: a rate at most the capacity, and
    a remaining byte count at the finish test's thresholds (the epsilon
    and a picosecond of service at ``rate``, each with its neighbours),
    near them, or negative dust."""
    capacity = draw(st.one_of(st.sampled_from(_CAPACITIES + [12.5e9]),
                              st.floats(1e-3, 1e15)))
    rate = draw(st.one_of(st.just(capacity), st.floats(0.0, capacity)))
    remaining = draw(st.one_of(
        st.sampled_from(_around(_EPSILON_BYTES) + _around(rate * 1e-12)),
        st.floats(-1e-9, 0.0),
        st.floats(0.0, 2 * max(_EPSILON_BYTES, rate * 1e-12)),
    ))
    return capacity, rate, remaining


@settings(max_examples=500, deadline=None)
@given(case=finish_cases())
# 0.0125 B at 12.5 GB/s is one float above rate * 1e-12, yet its service
# time still rounds to a picosecond.
@example(case=(12.5e9, 12.5e9, 0.0125))
# A picosecond at 10 GB/s is 0.01 B, far above the epsilon.
@example(case=(1e10, 1e10, 1e-2))
def test_finish_bound_admits_every_finishing_flow(case):
    """Whenever the reference's exact finish test passes, the flow's
    remaining bytes are at most the kernel's finish bound, so testing
    the bound first never skips a flow that finishes."""
    capacity, rate, remaining = case
    flow = ReferenceFlow(0, 1.0, None, None, 0.0)
    flow.remaining = remaining
    flow.rate = rate
    if ReferenceServer._is_done(flow):
        bound = FairShareServer(Environment(), capacity=capacity)._finish_bound
        assert remaining <= bound
