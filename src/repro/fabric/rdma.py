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
from typing import Optional

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
    """Topology-aware RDMA message timing.

    Hosts may carry a *degrade factor* (fault injection): a value in
    ``(0, 1]`` scales the endpoint's usable link capacity — bandwidth
    drops to ``factor`` of line rate and per-message latency stretches
    by ``1/factor`` (flapping links retransmit). ``0`` severs the link.
    """

    def __init__(self, topo: NetworkTopology, spec: RdmaSpec, env=None):
        self.topo = topo
        self.spec = spec
        self.env = env  # optional: enables per-message metrics via env.obs
        self._degraded: dict = {}  # host -> remaining capacity factor

    # -- fault injection ----------------------------------------------------

    def degrade(self, host: str, factor: float) -> None:
        """Degrade ``host``'s link to ``factor`` of capacity (0 = dead)."""
        if factor < 0 or factor > 1:
            raise FabricError(f"degrade factor must be in [0, 1], got {factor}")
        self._degraded[host] = factor

    def restore(self, host: str) -> None:
        self._degraded.pop(host, None)

    def link_factor(self, src: str, dst: str) -> float:
        """Remaining capacity along ``src -> dst`` (worst endpoint)."""
        return min(
            self._degraded.get(src, 1.0), self._degraded.get(dst, 1.0)
        )

    def is_severed(self, src: str, dst: str) -> bool:
        return src != dst and self.link_factor(src, dst) == 0.0

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
        factor = self.link_factor(src, dst)
        if factor <= 0.0:
            raise FabricError(f"link {src} -> {dst} is severed")
        latency = latency / factor
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

    def payload_cap(self, src: Optional[str] = None, dst: Optional[str] = None) -> float:
        """Rate cap a single QP's data stream sees (the line rate,
        scaled down when either endpoint's link is degraded)."""
        factor = 1.0
        if src is not None and dst is not None and src != dst:
            factor = self.link_factor(src, dst)
            if factor <= 0.0:
                raise FabricError(f"link {src} -> {dst} is severed")
        return self.spec.link_bandwidth * factor
