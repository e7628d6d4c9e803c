"""Tests for doorbell batching: one fabric round trip per batch."""

import numpy as np
import pytest

from repro.core.config import RuntimeConfig
from repro.core.data_plane import DataPlane
from repro.fabric import (
    FabricTransport,
    NVMfInitiator,
    NVMfTarget,
    RdmaFabric,
    edr_infiniband,
)
from repro.nvme import SSD, Payload
from repro.obs.context import attach
from repro.obs.export import span_count
from repro.sim import Environment
from repro.topology import NetworkTopology, paper_testbed
from repro.units import GiB, KiB, MiB

from tests.conftest import deterministic_spec


@pytest.fixture
def remote():
    env = Environment()
    topo = NetworkTopology(paper_testbed())
    fabric = RdmaFabric(topo, edr_infiniband(), env=env)
    ssd = SSD(env, deterministic_spec(), "ssd-stor00",
              rng=np.random.default_rng(0))
    ns = ssd.create_namespace(GiB(8))
    target = NVMfTarget(env, "stor00", ssd)
    session = NVMfInitiator(env, "comp00", fabric).connect(target)
    return env, ssd, ns, session


def _chunks(n, size, synthetic=True):
    if synthetic:
        return [(i * size, Payload.synthetic(f"c{i}", size)) for i in range(n)]
    return [(i * size, Payload.of_bytes(bytes([i % 251]) * size))
            for i in range(n)]


def test_batch_uses_single_round_trip(remote):
    env, ssd, ns, session = remote
    ctx = attach(env, tracing=True)
    env.run_until_complete(
        session.write_batch(ns.nsid, _chunks(4, MiB(1)), KiB(32)))
    assert span_count(ctx, name="nvmf.rtt") == 1
    assert session.counters.get("batches") == 1
    assert ssd.counters.get("bytes_written") == MiB(4)


def test_unbatched_writes_pay_one_round_trip_each(remote):
    env, ssd, ns, session = remote
    ctx = attach(env, tracing=True)

    def scenario():
        for offset, payload in _chunks(4, MiB(1)):
            yield session.write(ns.nsid, offset, payload, KiB(32))

    env.run_until_complete(env.process(scenario()))
    assert span_count(ctx, name="nvmf.rtt") == 4
    assert ssd.counters.get("bytes_written") == MiB(4)


def test_batch_merges_adjacent_real_chunks(remote):
    env, ssd, ns, session = remote
    env.run_until_complete(
        session.write_batch(ns.nsid, _chunks(4, KiB(4), synthetic=False),
                            KiB(32)))
    # Adjacent real chunks fuse into one extent; read-back is intact.
    assert ns.store.extent_count() == 1
    want = b"".join(bytes([i % 251]) * KiB(4) for i in range(4))
    assert ns.store.read_bytes(0, KiB(16)) == want


def test_batch_keeps_synthetic_identity(remote):
    env, ssd, ns, session = remote
    env.run_until_complete(
        session.write_batch(ns.nsid, _chunks(3, MiB(1)), KiB(32)))
    pieces = ns.store.read(0, MiB(3))
    assert [p.payload.tag for p in pieces] == ["c0", "c1", "c2"]


def test_batch_counts_commands_per_merged_extent(remote):
    env, ssd, ns, session = remote
    env.run_until_complete(
        session.write_batch(ns.nsid, _chunks(2, MiB(1)), KiB(32)))
    assert session.counters.get("commands") == 2 * (MiB(1) // KiB(32))
    assert session.counters.get("bytes") == MiB(2)


def _fabric_plane(batching):
    env = Environment()
    topo = NetworkTopology(paper_testbed())
    fabric = RdmaFabric(topo, edr_infiniband(), env=env)
    ssd = SSD(env, deterministic_spec(), "ssd-stor00",
              rng=np.random.default_rng(0))
    ns = ssd.create_namespace(GiB(8))
    target = NVMfTarget(env, "stor00", ssd)
    session = NVMfInitiator(env, "comp00", fabric).connect(target)
    config = RuntimeConfig(max_batch_bytes=MiB(1), batching=batching)
    dp = DataPlane(env, FabricTransport(session), ns.nsid, config)
    return env, ssd, session, dp


@pytest.mark.parametrize("batching", [False, True])
def test_dataplane_round_trips_at_equal_payload(batching):
    """The acceptance property: batching reduces nvmf.rtt span counts at
    equal payload bytes."""
    env, ssd, session, dp = _fabric_plane(batching)
    ctx = attach(env, tracing=True)
    env.run_until_complete(env.process(
        dp.write_runs([(0, Payload.synthetic("ckpt", MiB(4)))])))
    assert ssd.counters.get("bytes_written") == MiB(4)
    rtts = span_count(ctx, name="nvmf.rtt")
    if batching:
        assert rtts == 1
        assert session.counters.get("batches") == 1
    else:
        assert rtts == 4  # one per 1 MiB chunk
        assert session.counters.get("batches") == 0


def test_dataplane_batching_off_by_default():
    assert RuntimeConfig().batching is False
