"""Unit tests for the callback-driven command path: failures, the
arbiter slot, and the completion of zero-size flows."""

import dataclasses

import numpy as np
import pytest

from repro.errors import DevicePoweredOff
from repro.fabric import NVMfInitiator, NVMfTarget, RdmaFabric, edr_infiniband
from repro.io.qos import QoSClass
from repro.nvme import SSD, Payload
from repro.nvme.device import generic_nand_ssd
from repro.nvme.queues import WrrArbiter
from repro.sim import Environment, FairShareServer
from repro.topology import NetworkTopology, paper_testbed
from repro.units import GiB, KiB, MiB

from tests.conftest import deterministic_spec


class Boom(Exception):
    """A model bug raised inside a command callback."""


def _ssd(env, spec=None):
    ssd = SSD(env, spec or deterministic_spec(), "ssd0", rng=np.random.default_rng(0))
    return ssd, ssd.create_namespace(GiB(1))


def test_exception_in_a_callback_fails_only_that_command():
    env = Environment()
    ssd, ns = _ssd(env)
    commit = ns.store.write

    def store_write(offset, payload):
        if offset == MiB(8):
            raise Boom("extent store bug")
        commit(offset, payload)

    ns.store.write = store_write
    outcome = {}

    def client(name, offset, nbytes):
        try:
            result = yield ssd.write(ns.nsid, offset, Payload.synthetic(name, nbytes),
                                     KiB(32))
            outcome[name] = ("ok", env.now, result.latency)
        except Boom:
            outcome[name] = ("boom", env.now)

    # "b" finishes first on the shared write server, in the middle of
    # "a"'s flow; its failure must not disturb the server.
    env.process(client("a", 0, MiB(4)))
    env.process(client("b", MiB(8), MiB(1)))
    env.run()
    assert outcome["b"][0] == "boom"
    assert outcome["a"][0] == "ok" and outcome["a"][1] > outcome["b"][1]
    assert ssd._write_server.active_flows == 0 and ssd._cmd_server.active_flows == 0
    assert ssd._write_server.bytes_served == pytest.approx(MiB(5))
    assert ns.store.read(0, MiB(4))[0].payload.tag == "a"
    assert ns.store.read(MiB(8), MiB(1)) == []


def test_failed_command_nobody_awaits_aborts_the_run():
    env = Environment()
    ssd, ns = _ssd(env)
    ssd.write(ns.nsid, 0, Payload.synthetic("orphan", MiB(64)), KiB(32))

    def cut():
        yield env.timeout(1e-3)
        ssd.power_fail()

    env.process(cut())
    with pytest.raises(DevicePoweredOff):
        env.run()


def test_failed_nvmf_io_nobody_awaits_aborts_the_run():
    env = Environment()
    fabric = RdmaFabric(NetworkTopology(paper_testbed()), edr_infiniband(), env=env)
    ssd, ns = _ssd(env)
    session = NVMfInitiator(env, "comp00", fabric).connect(
        NVMfTarget(env, "stor00", ssd))
    session.write(ns.nsid, 0, Payload.synthetic("orphan", MiB(64)), KiB(32))

    def cut():
        yield env.timeout(1e-3)
        ssd.power_fail()

    env.process(cut())
    with pytest.raises(DevicePoweredOff):
        env.run()


def _arbitrated(spec):
    env = Environment()
    ssd, ns = _ssd(env, spec)
    ssd.arbiter = WrrArbiter(env, slots=1)
    return env, ssd, ns


def _power_loss_hands_the_slot_on(env, ssd, ns, nbytes, cut_at):
    """``first`` holds the only slot when power is cut at ``cut_at`` and
    restored at once; ``second``, submitted after the restore, waits for
    the slot and must get it when ``first`` fails."""
    outcome = {}

    def first():
        try:
            yield ssd.write(ns.nsid, 0, Payload.synthetic("first", nbytes), KiB(128))
            outcome["first"] = "ok"
        except DevicePoweredOff:
            outcome["first"] = ("lost", env.now)

    def second():
        yield env.timeout(cut_at)
        ssd.power_fail()
        ssd.power_restore()
        result = yield ssd.write(ns.nsid, MiB(512), Payload.synthetic("second", MiB(1)),
                                 KiB(128), qos=QoSClass.JOURNAL)
        outcome["second"] = (env.now, result.latency)

    env.process(first())
    env.process(second())
    env.run()
    lost_at = outcome["first"][1]
    done_at, latency = outcome["second"]
    # The slot passed straight on: the second command waited exactly
    # until the first one failed, then ran.
    assert done_at - latency == pytest.approx(cut_at)
    assert done_at > lost_at
    assert ssd.arbiter.waited[QoSClass.JOURNAL] == 1
    assert ssd.arbiter.grants[QoSClass.JOURNAL] == 1
    assert ssd.arbiter._in_service == 0
    assert ns.store.read(MiB(512), MiB(1))[0].payload.tag == "second"
    assert ns.store.read(0, nbytes) == []
    return lost_at


def test_power_loss_during_the_wait_releases_the_slot():
    # A 1 MiB RAM buffer: the 4 MiB write first waits 3 MiB at flash speed.
    spec = dataclasses.replace(generic_nand_ssd(), ram_buffer_bytes=MiB(1),
                               arbitration_beta=0.0)
    env, ssd, ns = _arbitrated(spec)
    wait = MiB(3) / spec.write_bandwidth
    lost_at = _power_loss_hands_the_slot_on(env, ssd, ns, MiB(4), cut_at=wait / 2)
    assert lost_at == pytest.approx(wait)  # failed when the wait ended
    assert ssd._write_server.bytes_served == pytest.approx(MiB(1))  # only "second"


def test_power_loss_during_the_transfer_releases_the_slot():
    env, ssd, ns = _arbitrated(deterministic_spec())
    lost_at = _power_loss_hands_the_slot_on(env, ssd, ns, MiB(64), cut_at=1e-3)
    assert lost_at > 1e-3  # failed when its flows finished
    assert ssd._write_server.bytes_served == pytest.approx(MiB(65))


def test_request_at_the_freeing_instant_queues_behind_the_granted_waiter():
    """The slot is freed inside the wake that finishes the holder's later
    flow, so a waiter queued earlier gets it before a request that
    arrives at that very instant, whatever its class."""
    env = Environment()
    ssd, ns = _ssd(env)

    def probe():
        yield ssd.write(ns.nsid, 0, Payload.synthetic("probe", MiB(1)), KiB(32))
        return env.now

    freed_at = env.run_until_complete(env.process(probe()))
    env = Environment()
    ssd, ns = _ssd(env)
    ssd.arbiter = WrrArbiter(env, slots=1)
    order = []

    def client(name, qos, offset, think=0.0):
        if think:
            yield env.timeout(think)
        yield ssd.write(ns.nsid, offset, Payload.synthetic(name, MiB(1)), KiB(32),
                        qos=qos)
        order.append(name)

    env.process(client("holder", QoSClass.CKPT_DATA, 0))
    env.process(client("waiter", QoSClass.BEST_EFFORT, MiB(1)))
    env.process(client("urgent", QoSClass.JOURNAL, MiB(2), think=freed_at))
    env.run()
    assert order == ["holder", "waiter", "urgent"]


def test_acquire_fast_path_schedules_nothing():
    env = Environment()
    arbiter = WrrArbiter(env, slots=1)
    assert arbiter.acquire(QoSClass.JOURNAL) is None
    assert env.events_scheduled == 0
    grant = arbiter.acquire(QoSClass.CKPT_DATA)
    assert grant is not None and not grant.triggered
    assert arbiter.grants[QoSClass.JOURNAL] == 1
    assert arbiter.grants[QoSClass.CKPT_DATA] == 0
    arbiter.release()
    assert grant.triggered and arbiter.grants[QoSClass.CKPT_DATA] == 1


def test_zero_size_flow_completes_at_once():
    env = Environment()
    server = FairShareServer(env, capacity=100.0)
    calls = []
    server.start(0, None, calls.append)
    assert calls == [0.0]
    assert server.active_flows == 0 and env.events_scheduled == 0
    event = server.transfer(0)
    assert event.triggered and event.value == 0.0
    assert env.events_scheduled == 1  # the event's own dispatch


def test_zero_byte_write_completes_after_its_command():
    env = Environment()
    ssd, ns = _ssd(env)
    result = env.run_until_complete(
        ssd.write(ns.nsid, 0, Payload.synthetic("empty", 0), KiB(4)))
    # One command's controller cost; the empty media flow took no time.
    assert result.latency == pytest.approx(ssd.spec.per_command_cost)
    assert ssd.counters.get("write_commands") == 1
