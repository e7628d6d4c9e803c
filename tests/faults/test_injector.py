"""Hazard-draw determinism and the injector's schedule order."""

from repro.faults.hazard import HazardSpec, campaign_failure_times, draw_arrival_times
from repro.faults.injector import FaultInjector
from repro.faults.model import NodeCrash
from repro.sim import Environment


# -- hazard draws -----------------------------------------------------------


def test_hazard_draws_are_deterministic_and_sorted():
    spec = HazardSpec("node", mtbf=50.0)
    a = draw_arrival_times(7, spec, "comp00", horizon=500.0)
    b = draw_arrival_times(7, spec, "comp00", horizon=500.0)
    assert a == b
    assert a == sorted(a)
    assert all(0 < t <= 500.0 for t in a)


def test_hazard_streams_are_independent_per_component():
    spec = HazardSpec("node", mtbf=50.0)
    a = draw_arrival_times(7, spec, "comp00", horizon=500.0)
    b = draw_arrival_times(7, spec, "comp01", horizon=500.0)
    assert a != b


def test_weibull_shape_changes_the_law_but_not_determinism():
    exp = HazardSpec("ssd", mtbf=100.0)
    wei = HazardSpec("ssd", mtbf=100.0, shape=2.0)
    assert draw_arrival_times(3, exp, "s0", 1000.0) != draw_arrival_times(
        3, wei, "s0", 1000.0
    )
    assert draw_arrival_times(3, wei, "s0", 1000.0) == draw_arrival_times(
        3, wei, "s0", 1000.0
    )


def test_campaign_failure_times_ignore_the_system_under_test():
    # CRN: keyed by (seed, mtbf, rank) only — any two systems compared
    # under one seed see the identical strike sequence.
    assert campaign_failure_times(9, 60.0, 600.0) == campaign_failure_times(
        9, 60.0, 600.0
    )
    assert campaign_failure_times(9, 60.0, 600.0, rank=1) != campaign_failure_times(
        9, 60.0, 600.0, rank=0
    )


# -- scheduling ---------------------------------------------------------------


def test_planned_schedule_is_stable_under_insertion_order():
    env = Environment()
    inj = FaultInjector(env)
    inj.at(2.0, NodeCrash("comp00"))
    inj.at(1.0, NodeCrash("comp01"))
    inj.at(1.0, NodeCrash("comp02"))
    inj.start()
    env.run()
    records = inj.timeline.records
    assert [r.injected_at for r in records] == [1.0, 1.0, 2.0]
    # Ties keep insertion order.
    assert [r.target for r in records] == ["comp01", "comp02", "comp00"]
