"""Cluster hardware description.

Models the testbed of §IV-A: nodes with a core count and memory, grouped
into racks; storage nodes additionally carry NVMe SSDs (device objects
are attached later by the experiment driver — the spec layer is pure
description, so it can be built and validated without a simulation
environment).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.units import GiB

__all__ = ["CORE_SWITCH", "NodeKind", "Node", "Rack", "ClusterSpec",
           "paper_testbed", "tor_switch"]

#: The one core switch every top-of-rack switch uplinks to.
CORE_SWITCH = "switch-core"


def tor_switch(rack_name: str) -> str:
    """The name of rack ``rack_name``'s top-of-rack switch."""
    return f"switch-{rack_name}"


class NodeKind(enum.Enum):
    """Role of a node in the disaggregated cluster."""

    COMPUTE = "compute"
    STORAGE = "storage"


@dataclass(frozen=True)
class Node:
    """One physical host."""

    name: str
    kind: NodeKind
    rack: str
    pdu: str
    cores: int
    memory_bytes: int
    ssd_count: int = 0

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError(f"node {self.name}: cores must be >= 1")
        if self.kind is NodeKind.STORAGE and self.ssd_count < 1:
            raise ValueError(f"storage node {self.name} must carry >= 1 SSD")
        if self.kind is NodeKind.COMPUTE and self.ssd_count != 0:
            raise ValueError(f"compute node {self.name} must not carry SSDs")


@dataclass
class Rack:
    """A rack: one top-of-rack switch, one (modelled) PDU."""

    name: str
    nodes: List[Node] = field(default_factory=list)


class ClusterSpec:
    """Immutable-ish description of an entire cluster."""

    def __init__(self, racks: List[Rack]):
        if not racks:
            raise ValueError("cluster needs at least one rack")
        self.racks = list(racks)
        # Hosts and switches share one name space: faults name either.
        switches = {CORE_SWITCH}
        for rack in self.racks:
            if tor_switch(rack.name) in switches:
                raise ValueError(f"rack name {rack.name!r} repeats or names the core switch")
            switches.add(tor_switch(rack.name))
        self._nodes: Dict[str, Node] = {}
        for rack in self.racks:
            for node in rack.nodes:
                if node.name in self._nodes:
                    raise ValueError(f"duplicate node name {node.name!r}")
                if node.name in switches:
                    raise ValueError(f"node {node.name!r} is named like a switch")
                if node.rack != rack.name:
                    raise ValueError(
                        f"node {node.name} claims rack {node.rack!r} but "
                        f"sits in {rack.name!r}"
                    )
                self._nodes[node.name] = node

    # -- queries ---------------------------------------------------------------

    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise KeyError(f"no node named {name!r} in cluster") from None

    @property
    def nodes(self) -> List[Node]:
        return list(self._nodes.values())

    def compute_nodes(self) -> List[Node]:
        return [n for n in self._nodes.values() if n.kind is NodeKind.COMPUTE]

    def storage_nodes(self) -> List[Node]:
        return [n for n in self._nodes.values() if n.kind is NodeKind.STORAGE]

    def total_cores(self, kind: Optional[NodeKind] = None) -> int:
        return sum(
            n.cores for n in self._nodes.values() if kind is None or n.kind is kind
        )

    def total_ssds(self) -> int:
        return sum(n.ssd_count for n in self._nodes.values())


def paper_testbed(
    storage_nodes: int = 8,
    compute_nodes: int = 16,
    cores_per_node: int = 28,
) -> ClusterSpec:
    """The §IV-A testbed: one storage rack and one compute rack.

    Storage nodes: 28-core Skylake, 192 GB, one Intel P4800X each.
    Compute nodes: 28-core Broadwell, 128 GB.
    """
    storage = Rack(
        name="rack-storage",
        nodes=[
            Node(
                name=f"stor{idx:02d}",
                kind=NodeKind.STORAGE,
                rack="rack-storage",
                pdu="pdu-storage",
                cores=cores_per_node,
                memory_bytes=GiB(192),
                ssd_count=1,
            )
            for idx in range(storage_nodes)
        ],
    )
    compute = Rack(
        name="rack-compute",
        nodes=[
            Node(
                name=f"comp{idx:02d}",
                kind=NodeKind.COMPUTE,
                rack="rack-compute",
                pdu="pdu-compute",
                cores=cores_per_node,
                memory_bytes=GiB(128),
            )
            for idx in range(compute_nodes)
        ],
    )
    return ClusterSpec([storage, compute])
