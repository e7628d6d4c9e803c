"""RDMA fabric latency/bandwidth model.

Calibrated to 100 Gbps EDR InfiniBand with ConnectX-5 adapters (§IV-A):
~0.6 us end-to-end verbs latency plus ~0.1 us per switch hop, 12.5 GB/s
line rate. Guz et al. [6] measured ~10 us NVMf round trips and < 10 %
application-level overhead; with batched, pipelined submissions the
per-batch round trip amortises to the < 3.5 % the paper reports
(Figure 8(a)).
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.errors import FabricError
from repro.topology.network import NetworkTopology
from repro.units import Gbit_per_s, us

__all__ = ["RdmaSpec", "RdmaFabric", "edr_infiniband"]


@dataclass(frozen=True)
class RdmaSpec:
    """Static fabric characteristics."""

    name: str
    link_bandwidth: float  # bytes/s per port
    base_latency: float  # NIC-to-NIC verbs latency, seconds
    per_hop_latency: float  # per switch traversal
    per_message_cpu: float  # initiator-side post/poll cost per message

    def __post_init__(self) -> None:
        if self.link_bandwidth <= 0:
            raise FabricError(f"{self.name}: link bandwidth must be positive")


def edr_infiniband() -> RdmaSpec:
    """The paper's 100 Gbps EDR fabric."""
    return RdmaSpec(
        name="EDR InfiniBand 100Gbps",
        link_bandwidth=Gbit_per_s(100),
        base_latency=us(0.6),
        per_hop_latency=us(0.1),
        per_message_cpu=us(0.3),
    )


class RdmaFabric:
    """Topology-aware RDMA message timing."""

    def __init__(self, topo: NetworkTopology, spec: RdmaSpec, env=None):
        self.topo = topo
        self.spec = spec
        self.env = env  # optional: enables per-message metrics via env.obs

    # -- timing -------------------------------------------------------------

    def one_way_latency(self, src: str, dst: str, qos=None) -> float:
        """Propagation + switching latency for one message (no payload).

        ``qos`` (the :class:`~repro.io.qos.QoSClass` of the IO) only
        labels the per-class message counter; the wire is class-blind.
        """
        if src == dst:
            return 0.0
        hops = self.topo.hop_count(src, dst)
        latency = self.spec.base_latency + hops * self.spec.per_hop_latency
        if self.env is not None:
            ctx = self.env.obs
            if ctx is not None:
                m = ctx.metrics
                m.counter("rdma.messages").add(1)
                m.counter("rdma.hops").add(hops)
                m.histogram("rdma.one_way_latency_s").observe(latency)
                if qos is not None:
                    m.counter(f"rdma.{qos.value}.messages").add(1)
        return latency

    def round_trip(self, src: str, dst: str, qos=None) -> float:
        return 2.0 * self.one_way_latency(src, dst, qos=qos)

    def payload_cap(self) -> float:
        """Rate cap a single QP's data stream sees: the line rate."""
        return self.spec.link_bandwidth
