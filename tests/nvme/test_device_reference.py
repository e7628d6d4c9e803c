"""The callback-driven device against its generator reference.

``tests/nvme/reference_device.py`` keeps the device's command path as it
stood when every read, write and tier command was a generator process
joining its media and command-rate flows with an ``AllOf``.  Commands
now complete inside the fair-share wake that finishes their later flow,
a few dispatches earlier within the same simulated instant, so a result
may move only where another request meets the same device or arbiter at
that identical float instant.

* With no arbiter, closed-loop clients on one SSD must see exactly the
  reference's results (``==``): every command's completion time,
  latency and extents, the counters, the three servers' bytes served
  and the rng state.  Outcomes are compared per command, sorted by
  (time, client, command): commands of different clients that end at
  one instant may be recorded in another order.
* With a contended arbiter the freed slot is handed over earlier, so a
  same-instant request may win it; there the property checks
  invariants instead: every command completes once or fails with
  :class:`DevicePoweredOff`, every admission is granted, and every byte
  requested from a server is served.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.errors import DevicePoweredOff
from repro.io.qos import QoSClass
from repro.nvme import SSD, Payload
from repro.nvme.commands import CommandResult
from repro.nvme.device import generic_nand_ssd, intel_p4800x
from repro.nvme.queues import WrrArbiter
from repro.sim import Environment
from repro.units import KiB, MiB
from tests.conftest import deterministic_spec
from tests.nvme.reference_device import ReferenceSSD

#: The jitter-free P4800X makes same-instant completions common.
SPECS = {"p4800x": intel_p4800x, "nand": generic_nand_ssd,
         "no-jitter": deterministic_spec}
NS_BYTES = MiB(64)
KINDS = ("write", "read", "tier_write", "tier_read")

_sizes = st.one_of(
    st.just(0),
    st.integers(1, KiB(8)),  # sub-LBA and few-LBA commands
    st.sampled_from([KiB(4), KiB(32), MiB(1), MiB(2)]),
    st.integers(KiB(8), MiB(4)),
)
_command_sizes = st.one_of(
    st.sampled_from([KiB(4), KiB(32), KiB(128), MiB(2)]),
    st.integers(512, MiB(4)),
)
_caps = st.one_of(
    st.none(),
    st.sampled_from([1e8, 1e9]),  # repeated caps tie in the water-filling
    st.floats(1e6, 1e10),
)
# Exact repeats line clients up on the same instants.
_thinks = st.one_of(
    st.just(0.0),
    st.sampled_from([1e-5, 1e-4, 5e-4]),
    st.floats(0.0, 2e-3),
)


@st.composite
def _command(draw):
    nbytes = draw(_sizes)
    return (
        draw(_thinks),
        draw(st.sampled_from(KINDS)),
        draw(st.integers(0, NS_BYTES - nbytes)),
        nbytes,
        draw(_command_sizes),
        draw(_caps),
        draw(st.sampled_from(list(QoSClass))),
    )


@st.composite
def scenarios(draw):
    """``(spec, clients, power, seed)``: each client a list of commands,
    ``power`` an optional (loss at, restore after or ``None``)."""
    spec = draw(st.sampled_from(sorted(SPECS)))
    clients = draw(st.lists(st.lists(_command(), min_size=1, max_size=5),
                            min_size=1, max_size=8))
    power = draw(st.one_of(
        st.none(),
        st.tuples(st.floats(0.0, 4e-3),
                  st.one_of(st.none(), st.floats(0.0, 2e-3))),
    ))
    return spec, clients, power, draw(st.integers(0, 2**16))


class CountingArbiter(WrrArbiter):
    """A :class:`WrrArbiter` that counts admissions per class."""

    __slots__ = ("admitted",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.admitted = {cls: 0 for cls in self._ORDER}

    def acquire(self, qos):
        self.admitted[qos or QoSClass.BEST_EFFORT] += 1
        return super().acquire(qos)


def run(ssd_cls, scenario, arbiter=None):
    """Drive ``scenario`` on a fresh ``ssd_cls``: everything observable,
    and the device."""
    spec, clients, power, seed = scenario
    env = Environment()
    ssd = ssd_cls(env, SPECS[spec](), "ssd", rng=np.random.default_rng(seed))
    ns = ssd.create_namespace(NS_BYTES)
    if arbiter is not None:
        mode, slots = arbiter
        ssd.arbiter = CountingArbiter(env, mode=mode, slots=slots)
    servers = (ssd._write_server, ssd._read_server, ssd._cmd_server)
    requested = [0.0, 0.0, 0.0]
    for index, server in enumerate(servers):
        server.start = _counting(server.start, requested, index)
    outcomes = []

    def client(i, commands):
        for k, (think, kind, offset, nbytes, command_size, cap, qos) in enumerate(commands):
            if think:
                yield env.timeout(think)
            try:
                if kind == "write":
                    payload = Payload.synthetic(f"c{i}.{k}", nbytes)
                    event = ssd.write(ns.nsid, offset, payload, command_size,
                                      rate_cap=cap, qos=qos)
                elif kind == "read":
                    event = ssd.read(ns.nsid, offset, nbytes, command_size,
                                     rate_cap=cap, qos=qos)
                else:
                    event = getattr(ssd, kind)(nbytes)
                value = yield event
            except DevicePoweredOff:
                outcomes.append((i, k, env.now, "powered off"))
                continue
            if isinstance(value, CommandResult):
                value = (value.latency, value.extra.get("extents"))
            outcomes.append((i, k, env.now, value))

    def power_cut(at, restore_after):
        yield env.timeout(at)
        ssd.power_fail()
        if restore_after is not None:
            yield env.timeout(restore_after)
            ssd.power_restore()

    for i, commands in enumerate(clients):
        env.process(client(i, commands))
    if power is not None:
        env.process(power_cut(*power))
    env.run()
    observed = {
        "outcomes": sorted(outcomes, key=_by_time_client_command),
        "counters": ssd.counters.as_dict(),
        "bytes_served": [server.bytes_served for server in servers],
        "requested": requested,
        "rng": ssd.rng.bit_generator.state,
        "now": env.now,
    }
    return observed, ssd


def _by_time_client_command(outcome):
    client, command, time, _value = outcome
    return time, client, command


def _counting(start, requested, index):
    def counted(nbytes, cap, done):
        requested[index] += nbytes
        start(nbytes, cap, done)
    return counted


#: Identical clients on the jitter-free spec: same-instant completions.
_SAME_INSTANT = (
    "no-jitter",
    [[(0.0, "write", 0, MiB(1), KiB(32), None, QoSClass.CKPT_DATA)] * 2,
     [(0.0, "write", MiB(1), MiB(1), KiB(32), None, QoSClass.JOURNAL)] * 2,
     [(0.0, "read", 0, MiB(1), KiB(32), None, QoSClass.RECOVERY)] * 2,
     [(0.0, "tier_write", 0, MiB(2), KiB(32), None, None)] * 2],
    None, 3)


#: Power is cut at t=0, and all six commands fail at the same instant,
#: 1e-5; the device records them as clients 0...5, its reference as
#: 5, 0...4.
_SAME_INSTANT_FAILURES = (
    "no-jitter",
    [[(0.0, "write", 0, 0, KiB(4), None, None)]] * 5
    + [[(1e-5, "tier_write", 0, 0, KiB(4), None, None)]],
    (0.0, None), 0)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
@example(_SAME_INSTANT)
@example(("nand", _SAME_INSTANT[1], (1e-4, None), 0))
@example(("p4800x", [[(0.0, "write", 0, 0, KiB(4), None, None)]], None, 0))
@example(_SAME_INSTANT_FAILURES)
def test_callback_device_equals_the_generator_reference(scenario):
    assert run(SSD, scenario)[0] == run(ReferenceSSD, scenario)[0]


@pytest.mark.slow
@settings(max_examples=1500, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
def test_callback_device_equals_the_generator_reference_deep(scenario):
    """The same property over ten times as many scenarios."""
    assert run(SSD, scenario)[0] == run(ReferenceSSD, scenario)[0]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios(), st.sampled_from(["wrr", "fcfs"]), st.integers(1, 2))
@example(_SAME_INSTANT, "wrr", 1)
@example(("p4800x", _SAME_INSTANT[1], (2e-4, 1e-4), 1), "fcfs", 1)
def test_contended_arbiter_keeps_its_invariants(scenario, mode, slots):
    observed, ssd = run(SSD, scenario, arbiter=(mode, slots))
    _spec, clients, _power, _seed = scenario
    # Every command ends exactly once (a failure is DevicePoweredOff;
    # any other exception would have aborted the run).
    ended = sorted((i, k) for i, k, _t, _v in observed["outcomes"])
    assert ended == [(i, k) for i, commands in enumerate(clients)
                     for k in range(len(commands))]
    arbiter = ssd.arbiter
    assert arbiter.grants == arbiter.admitted
    assert arbiter._in_service == 0 and arbiter._waiting() == 0
    for served, requested in zip(observed["bytes_served"], observed["requested"]):
        assert served == pytest.approx(requested, rel=1e-9, abs=1e-3)
