"""Tests for single-command submission (``SSD.submit``) and for power
loss under a submitted command."""

import numpy as np
import pytest

from repro.errors import DevicePoweredOff, InvalidCommand
from repro.nvme import Command, Opcode, Payload, SSD
from repro.sim import Environment
from repro.units import GiB, MiB

from tests.conftest import deterministic_spec


@pytest.fixture
def rig():
    env = Environment()
    ssd = SSD(env, deterministic_spec(), "s0", rng=np.random.default_rng(0))
    ns = ssd.create_namespace(GiB(2))
    return env, ssd, ns


def test_submitted_write_reads_back(rig):
    """A WRITE completes only after simulated time passes, and a READ of
    the same blocks returns the bytes it stored."""
    env, ssd, ns = rig
    data = bytes(range(256)) * 16
    done = ssd.submit(Command(Opcode.WRITE, ns.nsid, slba=3, nblocks=1,
                              payload=Payload.of_bytes(data)))
    assert not done.triggered
    written = env.run_until_complete(done)
    assert written.latency > 0
    assert ns.store.read_bytes(3 * 4096, 4096) == data

    read = env.run_until_complete(
        ssd.submit(Command(Opcode.READ, ns.nsid, slba=3, nblocks=1)))
    (extent,) = read.extra["extents"]
    assert (extent.start, extent.payload.data) == (3 * 4096, data)
    assert ssd.counters.get("write_commands") == 1
    assert ssd.counters.get("read_commands") == 1


def test_batch_io_result_has_no_command_and_submit_attaches_it(rig):
    """``SSD.write``/``SSD.read`` batches span many commands, so their
    results carry none, and neither does a submitted WRITE's; a
    submitted FLUSH's or IDENTIFY's result carries its command."""
    env, ssd, ns = rig
    written = env.run_until_complete(
        ssd.write(ns.nsid, 0, Payload.of_bytes(b"w" * 8192), 4096))
    read = env.run_until_complete(ssd.read(ns.nsid, 0, 8192, 4096))
    assert written.command is None and read.command is None
    write = Command(Opcode.WRITE, ns.nsid, slba=4, nblocks=1,
                    payload=Payload.of_bytes(b"q" * 4096))
    assert env.run_until_complete(ssd.submit(write)).command is None
    for command in (Command(Opcode.FLUSH, ns.nsid),
                    Command(Opcode.IDENTIFY, ns.nsid)):
        assert env.run_until_complete(ssd.submit(command)).command == command


def test_power_cut_fails_a_submitted_write(rig):
    """Power lost mid-command fails the command's event, and the write
    never reaches the extent store."""
    env, ssd, ns = rig
    done = ssd.submit(Command(Opcode.WRITE, ns.nsid, slba=0,
                              nblocks=MiB(64) // 4096,
                              payload=Payload.synthetic("lost", MiB(64))))

    def power_cut():
        yield env.timeout(1e-4)
        ssd.power_fail()

    env.process(power_cut())
    with pytest.raises(DevicePoweredOff):
        env.run_until_complete(done)
    assert ns.store.bytes_stored() == 0
    with pytest.raises(DevicePoweredOff):
        ssd.submit(Command(Opcode.FLUSH, ns.nsid))


def test_identify(rig):
    env, ssd, ns = rig
    result = env.run_until_complete(ssd.submit(Command(Opcode.IDENTIFY, ns.nsid)))
    assert result.extra["spec"] is ssd.spec
    assert result.latency == 0.0


def test_submitted_write_payload_must_fit_its_blocks(rig):
    env, ssd, ns = rig
    with pytest.raises(InvalidCommand):
        ssd.submit(Command(Opcode.WRITE, ns.nsid, slba=0, nblocks=1,
                           payload=Payload.of_bytes(b"x" * 8192)))
