"""Tests for how a data-plane IO fails and how its latency is recorded."""

import numpy as np
import pytest

from repro.core.config import RuntimeConfig
from repro.core.data_plane import DataPlane
from repro.errors import FabricError
from repro.fabric import (
    FabricTransport,
    LocalPCIeTransport,
    NVMfInitiator,
    NVMfTarget,
    RdmaFabric,
    edr_infiniband,
)
from repro.io import QoSClass
from repro.nvme import SSD, Payload
from repro.sim import Environment
from repro.topology import NetworkTopology, paper_testbed
from repro.units import GiB, KiB, MiB

from tests.conftest import deterministic_spec


def _fabric_plane():
    env = Environment()
    topo = NetworkTopology(paper_testbed())
    fabric = RdmaFabric(topo, edr_infiniband(), env=env)
    ssd = SSD(env, deterministic_spec(), "ssd-stor00",
              rng=np.random.default_rng(0))
    ns = ssd.create_namespace(GiB(4))
    target = NVMfTarget(env, "stor00", ssd)
    session = NVMfInitiator(env, "comp00", fabric).connect(target)
    dp = DataPlane(env, FabricTransport(session), ns.nsid,
                   RuntimeConfig(max_batch_bytes=MiB(8)))
    return env, ssd, target, dp


def test_dead_target_propagates_fabric_error():
    env, ssd, target, dp = _fabric_plane()
    target.kill()
    with pytest.raises(FabricError):
        env.run_until_complete(env.process(
            dp.write_runs([(0, Payload.synthetic("w", KiB(64)))])))
    assert ssd.counters.get("bytes_written") == 0
    assert dp.counters.get("data_bytes_written") == 0
    assert not dp.class_latencies


def test_completion_records_per_class_latency():
    env = Environment()
    ssd = SSD(env, deterministic_spec(), "s0", rng=np.random.default_rng(0))
    ns = ssd.create_namespace(GiB(4))
    dp = DataPlane(env, LocalPCIeTransport(env, ssd), ns.nsid,
                   RuntimeConfig(max_batch_bytes=MiB(8)))

    def two_writes():
        for offset in (0, MiB(1)):
            started = env.now
            yield from dp.write_runs(
                [(offset, Payload.synthetic("w", MiB(1)))], qos=QoSClass.JOURNAL)
            latencies.append(env.now - started)

    latencies = []
    env.run_until_complete(env.process(two_writes()))
    assert latencies[0] > 0
    assert dp.class_latencies[QoSClass.JOURNAL] == latencies
    assert list(dp.class_latencies) == [QoSClass.JOURNAL]
