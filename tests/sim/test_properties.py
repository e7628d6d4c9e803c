"""Property-based tests for the simulation kernel."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.analysis.sanitize import SanitizeSession
from repro.sim import Environment, FairShareServer, Interrupt, Resource


@settings(max_examples=50, deadline=None)
@given(delays=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=40))
def test_events_always_fire_in_order(delays):
    env = Environment()
    fired = []

    def proc(d):
        yield env.timeout(d)
        fired.append(env.now)

    for d in delays:
        env.process(proc(d))
    env.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert env.now == max(delays)


@settings(max_examples=40, deadline=None)
@given(
    transfers=st.lists(
        st.tuples(st.floats(0.0, 5.0), st.floats(1.0, 1000.0)),
        min_size=1, max_size=25,
    ),
    capacity=st.floats(10.0, 1000.0),
)
def test_fairshare_conserves_work(transfers, capacity):
    """Total bytes served equals total bytes submitted, and the makespan
    is never below the work-conserving lower bound."""
    env = Environment()
    server = FairShareServer(env, capacity=capacity)
    done = []

    def client(start, nbytes):
        yield env.timeout(start)
        yield server.transfer(nbytes)
        done.append(env.now)

    for start, nbytes in transfers:
        env.process(client(start, nbytes))
    env.run()
    total = sum(n for _s, n in transfers)
    assert server.bytes_served == pytest_approx(total)
    last_arrival = max(s for s, _n in transfers)
    lower_bound = total / capacity  # all work at full capacity
    # Rate integration accumulates *relative* float error (near-
    # simultaneous arrivals make the service interval a ~1e-8-wide
    # difference of large timestamps), so the slack must be relative too.
    assert max(done) >= lower_bound * (1.0 - 1e-6) - 1e-9
    assert max(done) <= last_arrival + lower_bound * (1.0 + 1e-6) + 1e-6


def pytest_approx(value, rel=1e-6):
    import pytest

    return pytest.approx(value, rel=rel)


@settings(max_examples=40, deadline=None)
@given(
    jobs=st.lists(st.floats(0.01, 2.0), min_size=1, max_size=30),
    capacity=st.integers(1, 5),
)
def test_resource_work_conservation(jobs, capacity):
    """FCFS server pool: makespan within [work/capacity, sum(work)]."""
    env = Environment()
    server = Resource(env, capacity=capacity)

    def client(duration):
        yield from server.serve(duration)

    for duration in jobs:
        env.process(client(duration))
    env.run()
    total = sum(jobs)
    assert env.now >= max(max(jobs), total / capacity) - 1e-9
    assert env.now <= total + 1e-9


@settings(max_examples=30, deadline=None)
@given(
    seed_ops=st.lists(st.integers(0, 2), min_size=2, max_size=20),
)
def test_deterministic_replay(seed_ops):
    """Two identical environments produce identical timelines."""

    def build():
        env = Environment()
        server = FairShareServer(env, capacity=100.0)
        trace = []

        def client(i, kind):
            yield env.timeout(i * 0.1)
            if kind == 0:
                yield server.transfer(50.0)
            elif kind == 1:
                yield env.timeout(0.05)
            else:
                yield server.transfer(25.0, cap=10.0)
            trace.append((i, env.now))

        for i, kind in enumerate(seed_ops):
            env.process(client(i, kind))
        env.run()
        return trace

    assert build() == build()


# -- observer composition -----------------------------------------------------

_delay = st.floats(0.0, 2.0)
_op = st.one_of(
    st.tuples(st.just("timeout"), _delay),
    st.tuples(st.just("join"), st.integers(0, 7)),
    st.tuples(st.just("all"), st.lists(_delay, max_size=3)),
    st.tuples(st.just("any"), st.lists(_delay, min_size=1, max_size=3)),
    st.tuples(st.just("interrupt"), st.integers(0, 7)),
    st.tuples(st.just("cancel"), st.tuples(_delay, _delay)),
)
_workloads = st.lists(st.lists(_op, max_size=4), min_size=1, max_size=6)
_OBSERVERS = ("monitor", "telemetry", "profile")
_SUBSETS = [tuple(name for bit, name in enumerate(_OBSERVERS) if mask >> bit & 1)
            for mask in range(1 << len(_OBSERVERS))]


def _drive(env, procs, mode):
    if mode == "run":
        env.run()
    elif mode == "until":
        env.run(until=0.5)
        env.run()
    elif mode == "window":
        horizon = 0.0
        while env.peek() is not None:
            horizon += 0.375
            env.run_window(horizon)
    elif mode == "step":
        while env.peek() is not None:
            env.step()
    else:
        env.run_until_complete(procs[0])
        env.run()


def _observed_run(workload, subset, mode):
    """Run ``workload`` with the ``subset`` observers attached; return the
    clock, scheduled events, the next pending time, the process trace,
    cancelled events, and each observer's output."""
    env = Environment()
    sanitize = SanitizeSession()
    if "monitor" in subset:
        sanitize.attach(env)
    ctx = obs.attach(env, profile="profile" in subset,
                     telemetry="telemetry" in subset)
    trace = []
    procs = []

    def body(i, ops):
        for kind, arg in ops:
            try:
                if kind == "timeout":
                    yield env.timeout(arg)
                elif kind == "join" and i:
                    yield procs[arg % i]
                elif kind in ("all", "any"):
                    children = [env.timeout(d) for d in arg]
                    join = env.all_of if kind == "all" else env.any_of
                    yield join(children)
                elif kind == "interrupt":
                    target = procs[arg % len(procs)]
                    if target is not procs[i] and target.is_alive:
                        target.interrupt(i)
                    yield env.timeout(0.0)
                elif kind == "cancel":
                    # Raft's node loop: the timer only an any_of waits on
                    # is cancelled once the any_of returns, whichever won.
                    first, timer_delay = arg
                    timer = env.timeout(timer_delay)
                    yield env.any_of([env.timeout(first), timer])
                    timer.cancel()
            except Interrupt as intr:
                trace.append((i, "interrupted", intr.cause, env.now))
            trace.append((i, kind, env.now))
        return i

    for i, ops in enumerate(workload):
        procs.append(env.process(body(i, ops)))
    _drive(env, procs, mode)
    outputs = {}
    if "monitor" in subset:
        (monitor,) = sanitize.monitors
        outputs["monitor"] = (monitor.events, monitor.digests())
    if "telemetry" in subset:
        t = env.telemetry
        outputs["telemetry"] = (t.dispatch, t.heap_pops, t.resumes)
    if "profile" in subset:
        outputs["profile"] = (ctx.metrics.counter("sim.events").value,
                              ctx.selfprof.calls)
    return (env.now, env.events_scheduled, env.peek(), trace,
            env.events_cancelled), outputs


@settings(max_examples=40, deadline=None)
@given(workload=_workloads,
       mode=st.sampled_from(("run", "until", "window", "step", "complete")))
def test_every_observer_subset_sees_what_each_sees_alone(workload, mode):
    """Observers compose: any subset leaves the run unchanged and gives
    each observer exactly the output it gives when attached alone."""
    runs = {subset: _observed_run(workload, subset, mode) for subset in _SUBSETS}
    baseline, _ = runs[()]
    alone = {name: runs[(name,)][1][name] for name in _OBSERVERS}
    for subset, (result, outputs) in runs.items():
        assert result == baseline, subset
        for name in subset:
            assert outputs[name] == alone[name], (subset, name)
    if baseline[2] is None:  # drained: every push was dispatched or cancelled
        dispatched = baseline[1] - baseline[4]
        assert alone["monitor"][0] == dispatched
        assert alone["telemetry"][1] == dispatched
        assert alone["profile"][0] == dispatched
