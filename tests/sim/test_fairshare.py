"""Unit tests for the fluid fair-share bandwidth server."""

import math
import random
import statistics

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, FairShareServer


def run_transfers(env, server, specs):
    """specs: list of (start_time, nbytes, cap). Returns completion times."""
    completions = {}

    def client(i, start, nbytes, cap):
        yield env.timeout(start)
        yield server.transfer(nbytes, cap=cap)
        completions[i] = env.now

    for i, (start, nbytes, cap) in enumerate(specs):
        env.process(client(i, start, nbytes, cap))
    env.run()
    return completions


def test_single_flow_full_capacity():
    env = Environment()
    server = FairShareServer(env, capacity=100.0)
    done = run_transfers(env, server, [(0.0, 1000.0, None)])
    assert done[0] == pytest.approx(10.0)


def test_two_equal_flows_share_equally():
    env = Environment()
    server = FairShareServer(env, capacity=100.0)
    done = run_transfers(env, server, [(0.0, 500.0, None), (0.0, 500.0, None)])
    # Each gets 50 B/s -> both finish at t=10.
    assert done[0] == pytest.approx(10.0)
    assert done[1] == pytest.approx(10.0)


def test_short_flow_releases_capacity_to_long_flow():
    env = Environment()
    server = FairShareServer(env, capacity=100.0)
    done = run_transfers(env, server, [(0.0, 1000.0, None), (0.0, 200.0, None)])
    # Phase 1: both at 50 B/s until short flow (200B) ends at t=4.
    assert done[1] == pytest.approx(4.0)
    # Long flow: 200B done by t=4, 800B left at 100 B/s -> t=12.
    assert done[0] == pytest.approx(12.0)


def test_late_arrival_rerates_inflight_flow():
    env = Environment()
    server = FairShareServer(env, capacity=100.0)
    done = run_transfers(env, server, [(0.0, 1000.0, None), (5.0, 250.0, None)])
    # Flow 0 alone until t=5 (500B moved), then 50 B/s each.
    # Flow 1: 250B at 50 B/s -> ends t=10. Flow 0: 250B left at t=10 -> t=12.5.
    assert done[1] == pytest.approx(10.0)
    assert done[0] == pytest.approx(12.5)


def test_rate_cap_limits_flow():
    env = Environment()
    server = FairShareServer(env, capacity=100.0)
    done = run_transfers(env, server, [(0.0, 100.0, 10.0)])
    assert done[0] == pytest.approx(10.0)


def test_capped_flow_leaves_capacity_for_others():
    env = Environment()
    server = FairShareServer(env, capacity=100.0)
    done = run_transfers(
        env, server, [(0.0, 100.0, 10.0), (0.0, 900.0, None)]
    )
    # Capped flow: 10 B/s -> t=10. Uncapped gets 90 B/s -> 900B at t=10.
    assert done[0] == pytest.approx(10.0)
    assert done[1] == pytest.approx(10.0)


def test_many_flows_aggregate_to_capacity():
    env = Environment()
    server = FairShareServer(env, capacity=100.0)
    n = 20
    done = run_transfers(env, server, [(0.0, 100.0, None)] * n)
    # Total 2000B at 100 B/s = 20s; symmetric flows end together.
    for i in range(n):
        assert done[i] == pytest.approx(20.0)


def test_zero_byte_transfer_completes_immediately():
    env = Environment()
    server = FairShareServer(env, capacity=100.0)
    event = server.transfer(0)
    assert event.triggered


def test_negative_transfer_rejected():
    env = Environment()
    server = FairShareServer(env, capacity=100.0)
    with pytest.raises(SimulationError):
        server.transfer(-1)


@pytest.mark.parametrize("nbytes", [math.nan, math.inf])
def test_non_finite_transfer_rejected(nbytes):
    """NaN passed the ``nbytes < 0`` check, never drained, and stalled
    the clock for every flow on the server; ``inf`` scheduled its wake
    at t=inf. Both are refused before any state changes."""
    env = Environment()
    server = FairShareServer(env, capacity=100.0)
    with pytest.raises(SimulationError):
        server.transfer(nbytes)
    assert server.active_flows == 0
    assert env.events_scheduled == 0


def test_nan_cap_rejected_and_infinite_cap_is_uncapped():
    """A NaN cap passed ``cap <= 0`` and was served as uncapped."""
    env = Environment()
    server = FairShareServer(env, capacity=100.0)
    with pytest.raises(SimulationError):
        server.transfer(100.0, cap=math.nan)
    assert server.active_flows == 0
    assert env.events_scheduled == 0
    done = run_transfers(env, server, [(0.0, 100.0, math.inf), (0.0, 100.0, None)])
    assert done == {0: 2.0, 1: 2.0}


def test_invalid_capacity_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        FairShareServer(env, capacity=0.0)


def test_bytes_served_accounting():
    env = Environment()
    server = FairShareServer(env, capacity=100.0)
    run_transfers(env, server, [(0.0, 300.0, None), (1.0, 200.0, None)])
    assert server.bytes_served == pytest.approx(500.0)


def test_utilisation_full_when_saturated():
    env = Environment()
    server = FairShareServer(env, capacity=100.0)
    run_transfers(env, server, [(0.0, 1000.0, None)])
    assert server.utilisation(since=0.0) == pytest.approx(1.0)


def test_utilisation_partial_with_cap():
    env = Environment()
    server = FairShareServer(env, capacity=100.0)
    run_transfers(env, server, [(0.0, 100.0, 50.0)])
    # 2s at 50/100 capacity -> 0.5.
    assert server.utilisation(since=0.0) == pytest.approx(0.5)


def test_staggered_flows_water_filling_three_way():
    env = Environment()
    server = FairShareServer(env, capacity=90.0)
    done = run_transfers(
        env,
        server,
        [(0.0, 900.0, None), (0.0, 900.0, None), (0.0, 90.0, 10.0)],
    )
    # Capped flow: 10 B/s the whole time -> ends t=9.
    assert done[2] == pytest.approx(9.0)
    # Others: 40 B/s until t=9 (360B each), then 45 B/s for 540B -> 12s more.
    assert done[0] == pytest.approx(21.0)
    assert done[1] == pytest.approx(21.0)


def test_fp_dust_never_schedules_negative_horizon():
    """Regression: an arrival landing just as another flow finishes could
    leave ``remaining`` at ~-1e-16, so the next-completion horizon went
    negative and ``env.timeout`` raised mid-simulation. Found by
    test_deterministic_replay with ops [2, 0, 2, 1, 2, 1, 2, 2, 0]."""
    env = Environment()
    server = FairShareServer(env, capacity=100.0)
    ops = [2, 0, 2, 1, 2, 1, 2, 2, 0]
    done = []

    def client(i, kind):
        yield env.timeout(i * 0.1)
        if kind == 0:
            yield server.transfer(50.0)
        elif kind == 1:
            yield env.timeout(0.05)
        else:
            yield server.transfer(25.0, cap=10.0)
        done.append(i)

    for i, kind in enumerate(ops):
        env.process(client(i, kind))
    env.run()
    assert sorted(done) == list(range(len(ops)))


@pytest.mark.parametrize("sizes", ["exponential", "deterministic"])
def test_uncapped_server_is_mg1_processor_sharing(sizes):
    """Semantic oracle: uncapped, the server is egalitarian processor
    sharing. With Poisson arrivals at load rho, M/G/1-PS mean sojourn is
    E[size] / (C (1 - rho)) for any size distribution (insensitivity),
    so the normalised mean sojourn below is 1."""
    rng = random.Random(20240517)
    capacity, mean_size, rho, jobs = 2e6, 1e6, 0.5, 20_000
    env = Environment()
    server = FairShareServer(env, capacity=capacity)
    sojourns = []

    def source():
        for _ in range(jobs):
            yield env.timeout(rng.expovariate(rho * capacity / mean_size))
            if sizes == "exponential":
                size = rng.expovariate(1.0 / mean_size)
            else:
                size = mean_size
            server.transfer(size).callbacks.append(lambda ev: sojourns.append(ev.value))

    env.process(source())
    env.run()
    assert len(sojourns) == jobs
    normalised = statistics.fmean(sojourns) * capacity * (1.0 - rho) / mean_size
    assert normalised == pytest.approx(1.0, rel=0.05)
