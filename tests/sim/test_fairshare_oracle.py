"""The fair-share server against exact rational arithmetic, capped flows included.

``tests/sim/exact_fairshare.py`` computes the fluid max-min completion
times of a schedule in :class:`~fractions.Fraction` arithmetic.  Mixes of
capped and uncapped flows with staggered arrivals run on the float
server through :meth:`FairShareServer.start`; every completion must be
within 1e-9 relative of the exact time, and the completions must come
in the exact order wherever the exact times differ.

Sizes are whole bytes and arrivals sit on a 1/64 s grid, so distinct
exact completions lie far apart compared with the server's completion
epsilon (1e-6 bytes, or a picosecond of service), which lumps only
completions that are that close.

A completion may start the next flow on the same server from inside the
wake that finishes it, before the wake re-rates; the server's rates are
kept by position, so this checks that they stay aligned with its flows.
Those flows start at float completion instants, so only their times are
checked, against the oracle run on the recorded start instants.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import Environment, FairShareServer
from tests.sim.exact_fairshare import completion_times

CAPACITY = 100.0

_caps = st.one_of(
    st.none(),
    st.just(math.inf),
    st.sampled_from([0.5, 5.0, 10.0, 12.5, 50.0, 150.0]),  # ties in the sort
    st.floats(0.5, 2 * CAPACITY),
)
_flows = st.tuples(
    st.integers(0, 320).map(lambda k: k / 64),  # staggered, with repeats
    st.one_of(st.just(0), st.integers(1, 1000)),
    _caps,
)


def _run(flows):
    env = Environment()
    server = FairShareServer(env, capacity=CAPACITY)
    finished = []

    def flow(i, start, nbytes, cap):
        yield env.timeout(start)
        server.start(nbytes, cap, lambda _elapsed: finished.append((i, env.now)))

    for i, spec in enumerate(flows):
        env.process(flow(i, *spec))
    env.run()
    return finished


@settings(max_examples=300, deadline=None)
@given(st.lists(_flows, min_size=1, max_size=12))
@example([(0.0, 100, 10.0), (0.0, 100, None), (0.5, 50, 80.0), (1.0, 0, 5.0)])
@example([(0.0, 1000, 0.5), (0.0, 1000, math.inf), (0.25, 10, 150.0)])
def test_completions_match_exact_fluid_max_min(flows):
    exact = completion_times(CAPACITY, flows)
    finished = _run(flows)
    assert sorted(i for i, _t in finished) == list(range(len(flows)))
    for i, got in finished:
        assert abs(got - float(exact[i])) <= 1e-9 * float(exact[i]), (i, got, exact[i])
    position = {i: n for n, (i, _t) in enumerate(finished)}
    for i in range(len(flows)):
        for j in range(len(flows)):
            if exact[i] < exact[j]:
                assert position[i] < position[j], (i, j)


_follow_ons = st.one_of(st.none(), st.tuples(st.integers(0, 1000), _caps))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_flows, _follow_ons), min_size=1, max_size=8))
@example([((0.0, 100, None), (50, None)), ((0.0, 200, None), None)])
@example([((0.0, 100, 10.0), (100, None)), ((0.0, 300, None), (20, 5.0)),
          ((0.5, 0, None), (40, None))])
def test_completion_that_starts_a_flow_matches_exact_times(specs):
    """Each flow's completion may start one more flow on the same server."""
    env = Environment()
    server = FairShareServer(env, capacity=CAPACITY)
    started = []  # (start instant, nbytes, cap) of every flow, by index
    finished = []

    def launch(nbytes, cap, follow_on):
        index = len(started)
        started.append((env.now, nbytes, cap))

        def done(_elapsed):
            finished.append((index, env.now))
            if follow_on is not None:
                launch(*follow_on, None)

        server.start(nbytes, cap, done)

    def flow(start, nbytes, cap, follow_on):
        yield env.timeout(start)
        launch(nbytes, cap, follow_on)

    for (start, nbytes, cap), follow_on in specs:
        env.process(flow(start, nbytes, cap, follow_on))
    env.run()
    assert len(started) == len(specs) + sum(f is not None for _s, f in specs)
    assert sorted(i for i, _t in finished) == list(range(len(started)))
    exact = completion_times(CAPACITY, started)
    for i, got in finished:
        assert abs(got - float(exact[i])) <= 1e-9 * float(exact[i]), (i, got, exact[i])


def test_oracle_water_fills_capped_flows():
    """Hand-checked: a 10 B/s cap leaves 90 B/s for the uncapped flow."""
    exact = completion_times(CAPACITY, [(0.0, 10, 10.0), (0.0, 90, None)])
    assert exact == [1, 1]
    exact = completion_times(CAPACITY, [(0.0, 20, 10.0), (0.0, 90, None), (1.0, 0, None)])
    # After 1 s the capped flow has 10 B left and the other is done;
    # alone, it still runs at its 10 B/s cap.
    assert exact == [2, 1, 1]
