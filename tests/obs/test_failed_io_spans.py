"""A failed IO ends its spans when it fails, not when the capture ends.

A P4800X behind NVMf and a ``DataPlane``: an 8 MiB write loses power
mid-transfer, and the client then sleeps 5 s.  The data plane's
span, the NVMf span and the device span must each end at the
failure instant with ``error`` naming the exception, rather than being
clamped to the end of the capture by ``close_open_spans``.
"""

import numpy as np

from repro.core.config import RuntimeConfig
from repro.core.data_plane import DataPlane
from repro.errors import DevicePoweredOff
from repro.fabric import (
    FabricTransport,
    NVMfInitiator,
    NVMfTarget,
    RdmaFabric,
    edr_infiniband,
)
from repro.nvme import SSD, Payload, intel_p4800x
from repro.obs.context import attach
from repro.sim import Environment
from repro.topology import NetworkTopology, paper_testbed
from repro.units import GiB, MiB


def test_failed_write_ends_its_spans_at_the_failure():
    env = Environment()
    fabric = RdmaFabric(NetworkTopology(paper_testbed()), edr_infiniband(), env=env)
    ssd = SSD(env, intel_p4800x(), "ssd0", rng=np.random.default_rng(0))
    ns = ssd.create_namespace(GiB(8))
    session = NVMfInitiator(env, "comp00", fabric).connect(
        NVMfTarget(env, "stor00", ssd))
    plane = DataPlane(env, FabricTransport(session), ns.nsid, RuntimeConfig())
    ctx = attach(env, tracing=True)
    failed_at = []

    def client():
        try:
            yield from plane.write_runs([(0, Payload.synthetic("ckpt", MiB(8)))])
        except DevicePoweredOff:
            failed_at.append(env.now)
        yield env.timeout(5.0)

    def cut():
        yield env.timeout(1e-3)
        ssd.power_fail()

    env.process(client())
    env.process(cut())
    env.run()
    ctx.tracer.close_open_spans()
    (when,) = failed_at
    assert env.now == when + 5.0
    spans = {s.name: s for s in ctx.tracer.spans}
    for name in ("dataplane.write", "nvmf.write", "nvme.write"):
        assert spans[name].end == when, name
        assert spans[name].attrs["error"] == "DevicePoweredOff", name
    # The device's flows ran to completion before the power check.
    assert spans["nvme.media"].end == when
    assert "error" not in spans["nvme.media"].attrs
