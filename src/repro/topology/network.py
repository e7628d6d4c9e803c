"""Switch-level network topology.

A two-tier fat-tree-ish model: every rack has a top-of-rack (ToR)
switch; ToR switches connect to a core switch. Hop counts between nodes
feed two consumers:

* the storage balancer sorts partner failure domains by hop distance,
* the fabric model charges per-hop latency on NVMf round trips.

In a two-tier tree the shortest path between two hosts is fixed by
their racks: hosts in one rack meet at its ToR, hosts in two racks at
the core, the only switch joining two ToRs. So hop counts are a closed
form of rack membership, with no graph to search.
"""

from __future__ import annotations

from typing import List

from repro.topology.cluster import CORE_SWITCH, ClusterSpec, tor_switch

__all__ = ["NetworkTopology"]


class NetworkTopology:
    """Hosts by rack, under one ToR switch per rack and one core switch."""

    def __init__(self, cluster: ClusterSpec):
        self.cluster = cluster

    def hop_count(self, a: str, b: str) -> int:
        """Number of switch hops between hosts ``a`` and ``b``.

        Same host -> 0. Same rack -> 1 (through the ToR). Cross-rack ->
        3 (ToR, core, ToR). An unknown host raises ``KeyError``.
        """
        rack_a = self.cluster.node(a).rack
        rack_b = self.cluster.node(b).rack
        if a == b:
            return 0
        return 1 if rack_a == rack_b else 3

    def switches(self) -> List[str]:
        """The core switch, then each rack's ToR, in cluster order."""
        return [CORE_SWITCH] + [tor_switch(rack.name) for rack in self.cluster.racks]
