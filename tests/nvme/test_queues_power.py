"""Tests for queue pairs (polled completion) and the power controller."""

import numpy as np
import pytest

from repro.errors import DeviceError, DevicePoweredOff
from repro.nvme import Command, Opcode, Payload, PowerController, QueuePair, SSD
from repro.sim import Environment
from repro.units import GiB, MiB

from tests.conftest import deterministic_spec


@pytest.fixture
def qp_rig():
    env = Environment()
    ssd = SSD(env, deterministic_spec(), "s0", rng=np.random.default_rng(0))
    ns = ssd.create_namespace(GiB(2))
    return env, ssd, ns, QueuePair(env, ssd, depth=8)


def test_submit_and_poll(qp_rig):
    env, ssd, ns, qp = qp_rig
    qp.submit(Command(Opcode.WRITE, ns.nsid, slba=0, nblocks=1,
                      payload=Payload.of_bytes(b"a" * 4096)))
    assert qp.poll() == []  # nothing complete yet (no time has passed)

    def waiter():
        results = yield from qp.wait_all()
        return results

    results = env.run_until_complete(env.process(waiter()))
    assert len(results) == 1
    assert results[0].command.opcode is Opcode.WRITE


def test_batch_io_result_has_no_command_and_the_queue_pair_attaches_it(qp_rig):
    """``SSD.write``/``SSD.read`` batches span many commands, so their
    results carry none; a queue pair's completions carry the command it
    submitted."""
    env, ssd, ns, qp = qp_rig
    written = env.run_until_complete(
        ssd.write(ns.nsid, 0, Payload.of_bytes(b"w" * 8192), 4096))
    read = env.run_until_complete(ssd.read(ns.nsid, 0, 8192, 4096))
    assert written.command is None and read.command is None
    submitted = [
        Command(Opcode.WRITE, ns.nsid, slba=4, nblocks=1,
                payload=Payload.of_bytes(b"q" * 4096)),
        Command(Opcode.READ, ns.nsid, slba=4, nblocks=1),
        Command(Opcode.FLUSH, ns.nsid),
    ]
    for command in submitted:
        qp.submit(command)

    def waiter():
        return (yield from qp.wait_all())

    results = env.run_until_complete(env.process(waiter()))
    assert len(results) == len(submitted)
    assert all(r.command is c for r, c in zip(results, submitted))


def test_failed_completion_carries_its_command(qp_rig):
    env, ssd, ns, qp = qp_rig
    command = Command(Opcode.WRITE, ns.nsid, slba=0, nblocks=MiB(64) // 4096,
                      payload=Payload.synthetic("lost", MiB(64)))
    qp.submit(command)

    def power_cut():
        yield env.timeout(1e-4)
        ssd.power_fail()

    def waiter():
        return (yield from qp.wait_all())

    env.process(power_cut())
    (result,) = env.run_until_complete(env.process(waiter()))
    assert isinstance(result.extra["error"], DevicePoweredOff)
    assert result.command is command


def test_in_order_completion(qp_rig):
    """A small command submitted after a large one completes after it
    (single-queue ordering guarantee of §III-A)."""
    env, ssd, ns, qp = qp_rig
    qp.submit(Command(Opcode.WRITE, ns.nsid, slba=0, nblocks=MiB(64) // 4096,
                      payload=Payload.synthetic("large", MiB(64))))
    qp.submit(Command(Opcode.FLUSH, ns.nsid))

    def waiter():
        return (yield from qp.wait_all())

    results = env.run_until_complete(env.process(waiter()))
    assert [r.command.opcode for r in results] == [Opcode.WRITE, Opcode.FLUSH]


def test_queue_depth_enforced(qp_rig):
    env, ssd, ns, qp = qp_rig
    for _ in range(8):
        qp.submit(Command(Opcode.FLUSH, ns.nsid))
    with pytest.raises(DeviceError):
        qp.submit(Command(Opcode.FLUSH, ns.nsid))


def test_identify(qp_rig):
    env, ssd, ns, qp = qp_rig
    qp.submit(Command(Opcode.IDENTIFY, ns.nsid))

    def waiter():
        return (yield from qp.wait_all())

    results = env.run_until_complete(env.process(waiter()))
    assert results[0].extra["spec"] is ssd.spec


def test_power_controller_fail_and_restore():
    env = Environment()
    ssd = SSD(env, deterministic_spec(), "s0", rng=np.random.default_rng(0))
    ssd.create_namespace(GiB(1))
    controller = PowerController(env, [ssd])
    controller.fail_at(1.0, restore_after=0.5)
    env.run()
    assert ssd.powered
    assert [action for _t, action in controller.events] == ["fail", "restore"]
    assert controller.events[0][0] == pytest.approx(1.0)
    assert controller.events[1][0] == pytest.approx(1.5)
    assert ssd.counters.get("power_failures") == 1


def test_power_controller_permanent_failure():
    env = Environment()
    ssd = SSD(env, deterministic_spec(), "s0", rng=np.random.default_rng(0))
    controller = PowerController(env, [ssd])
    controller.fail_at(0.5)
    env.run()
    assert not ssd.powered
