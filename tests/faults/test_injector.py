"""Injector determinism, physical effects, and the hypothesis property:
identical seeds produce identical fault timelines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.deployment import Deployment
from repro.errors import FabricError
from repro.faults.hazard import HazardSpec, campaign_failure_times, draw_arrival_times
from repro.faults.injector import FaultInjector
from repro.faults.model import (
    LinkDegrade,
    NodeCrash,
    NVMfTargetDeath,
    SSDPowerLoss,
)
from repro.nvme import SSD
from repro.sim import Environment

from tests.conftest import deterministic_spec


def small_deployment(seed=0):
    return Deployment(
        seed=seed, storage_nodes=2, compute_nodes=2, deterministic_devices=True
    )


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


# -- physical effects -------------------------------------------------------


def test_injection_cuts_ssd_power_and_repair_restores():
    dep = small_deployment()
    inj = FaultInjector.for_deployment(dep, seed=1)
    inj.at(1.0, SSDPowerLoss("stor00"), repair_after=2.0)
    inj.start()
    ssd = dep.ssds["stor00"]
    powered_mid_fault = []

    def probe():
        yield dep.env.timeout(2.0)
        powered_mid_fault.append(ssd.powered)

    dep.env.process(probe())
    dep.env.run()
    assert powered_mid_fault == [False]
    assert ssd.powered  # repaired by the end
    assert ssd.counters.get("power_failures") == 1
    rec = inj.timeline.records[0]
    assert rec.injected_at == pytest.approx(1.0)
    assert rec.repaired_at == pytest.approx(3.0)


def test_power_loss_without_repair_leaves_a_hand_attached_ssd_off():
    """With no cluster, an SSD attached by hand is the whole blast radius
    of a power loss on its node name, and no repair means it stays off."""
    env = Environment()
    ssd = SSD(env, deterministic_spec(), "s0", rng=np.random.default_rng(0))
    inj = FaultInjector(env)
    inj.attach_ssd("s0", ssd)
    inj.at(0.5, SSDPowerLoss("s0"))
    inj.start()
    env.run()
    assert not ssd.powered
    assert ssd.counters.get("power_failures") == 1
    (rec,) = inj.timeline.records
    assert rec.injected_at == pytest.approx(0.5)
    assert rec.repaired_at is None


def test_target_death_breaks_sessions_and_blocks_connects():
    dep = small_deployment()
    inj = FaultInjector.for_deployment(dep, seed=1)
    target = dep.targets["stor01"][0]
    inj.at(0.5, NVMfTargetDeath("stor01"))
    inj.start()
    dep.env.run()
    assert not target.alive
    from repro.fabric.nvmf import NVMfInitiator

    initiator = NVMfInitiator(dep.env, "comp00", dep.fabric)
    with pytest.raises(FabricError, match="dead"):
        initiator.connect(target)


def test_link_degrade_stretches_latency_and_caps_bandwidth():
    dep = small_deployment()
    base = dep.fabric.one_way_latency("comp00", "stor00")
    inj = FaultInjector.for_deployment(dep, seed=1)
    inj.at(0.0, LinkDegrade("comp00", factor=0.25), repair_after=5.0)
    inj.start()
    dep.env.run_until_complete(dep.env.process(_sleep(dep.env, 1.0)))
    assert dep.fabric.one_way_latency("comp00", "stor00") == pytest.approx(4 * base)
    assert dep.fabric.payload_cap("comp00", "stor00") == pytest.approx(
        dep.fabric.spec.link_bandwidth / 4
    )
    dep.env.run()
    assert dep.fabric.one_way_latency("comp00", "stor00") == pytest.approx(base)


def test_node_crash_marks_scheduler_node_down_and_up():
    dep = small_deployment()
    inj = FaultInjector.for_deployment(dep, seed=1)
    inj.at(1.0, NodeCrash("comp01"), repair_after=3.0)
    inj.start()
    dep.env.run_until_complete(dep.env.process(_sleep(dep.env, 2.0)))
    assert "comp01" in dep.scheduler.down_nodes()
    assert "comp01" not in dep.scheduler.free_compute_nodes()
    dep.env.run()
    assert "comp01" not in dep.scheduler.down_nodes()
    assert "comp01" in dep.scheduler.free_compute_nodes()


def _sleep(env, t):
    yield env.timeout(t)


# -- determinism ------------------------------------------------------------


def _run_hazard_schedule(seed):
    dep = small_deployment(seed=0)
    inj = FaultInjector.for_deployment(dep, seed=seed)
    inj.arm_hazard(
        HazardSpec("node", mtbf=20.0), ["comp00", "comp01"], horizon=100.0,
        fault_factory=NodeCrash, repair_after=1.0,
    )
    inj.arm_hazard(
        HazardSpec("ssd", mtbf=40.0, shape=1.5), ["stor00"], horizon=100.0,
        fault_factory=SSDPowerLoss, repair_after=0.5,
    )
    inj.start()
    dep.env.run()
    return inj.timeline


def test_planned_schedule_is_stable_under_insertion_order():
    dep = small_deployment()
    inj = FaultInjector.for_deployment(dep, seed=5)
    inj.at(2.0, NodeCrash("comp00"))
    inj.at(1.0, NodeCrash("comp01"))
    inj.at(1.0, SSDPowerLoss("stor00"))
    plan = inj.planned()
    assert [t for t, _ in plan] == [1.0, 1.0, 2.0]
    # Ties keep insertion order.
    assert plan[0][1] == NodeCrash("comp01")
    assert plan[1][1] == SSDPowerLoss("stor00")


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_identical_seeds_produce_identical_timelines(seed):
    one = _run_hazard_schedule(seed)
    two = _run_hazard_schedule(seed)
    assert one.fingerprint() == two.fingerprint()
    assert one.to_json() == two.to_json()


def test_different_seeds_usually_differ():
    assert _run_hazard_schedule(1).fingerprint() != _run_hazard_schedule(2).fingerprint()


def test_timeline_summary_counts_kinds():
    timeline = _run_hazard_schedule(3)
    summary = timeline.summary()
    assert summary["faults_injected"] == len(timeline.records)
    per_kind = sum(v for k, v in summary.items() if k.startswith("faults["))
    assert per_kind == summary["faults_injected"]
