"""Typed fault kinds and their blast radii (§III-E/F made executable).

The paper's resilience story rests on *failure domains*: storage for a
job is placed on partner domains so that one hardware loss never takes
compute and its checkpoints together. This module turns that story into
data: each fault kind names one physical component, and
:func:`blast_radius` expands it — through :class:`ClusterSpec` and the
derived :class:`FailureDomain` partition — into the full set of hosts,
SSDs, target daemons, and links the fault takes out. A PDU fault, for
example, kills every co-located node *and* every SSD they carry.

Faults are plain frozen dataclasses so schedules hash, compare, and
serialise deterministically (the injector sorts them into a timeline
that must be bit-identical across runs).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import ClassVar, List, Optional, Tuple

from repro.topology.cluster import ClusterSpec, NodeKind, tor_switch
from repro.topology.failure_domains import FailureDomain, derive_failure_domains

__all__ = [
    "FaultKind",
    "Fault",
    "NodeCrash",
    "SSDPowerLoss",
    "NVMfTargetDeath",
    "LinkDegrade",
    "SwitchFailure",
    "PDUFailure",
    "LeaderKill",
    "NetworkPartition",
    "BlastRadius",
    "blast_radius",
]


class FaultKind(enum.Enum):
    """Component classes a fault can strike."""

    NODE_CRASH = "node-crash"
    SSD_POWER_LOSS = "ssd-power-loss"
    NVMF_TARGET_DEATH = "nvmf-target-death"
    LINK_DEGRADE = "link-degrade"
    SWITCH_FAILURE = "switch-failure"
    PDU_FAILURE = "pdu-failure"
    LEADER_KILL = "leader-kill"
    NETWORK_PARTITION = "network-partition"


@dataclass(frozen=True)
class Fault:
    """One component-level fault; ``target`` names the component."""

    target: str
    kind: ClassVar[FaultKind]

    def describe(self) -> str:
        return f"{self.kind.value}({self.target})"


@dataclass(frozen=True)
class NodeCrash(Fault):
    """A host dies (kernel panic, DIMM failure, operator error)."""

    kind: ClassVar[FaultKind] = FaultKind.NODE_CRASH


@dataclass(frozen=True)
class SSDPowerLoss(Fault):
    """Every SSD on ``target`` loses power; the host itself survives.

    Committed data survives (device capacitance flushes the RAM buffer),
    in-flight commands are lost — the §III-E durability contract.
    """

    kind: ClassVar[FaultKind] = FaultKind.SSD_POWER_LOSS


@dataclass(frozen=True)
class NVMfTargetDeath(Fault):
    """The SPDK target daemon on ``target`` dies; device and host live.

    Sessions to the target break until it is revived — data on media is
    untouched (a software failure, not a durability event).
    """

    kind: ClassVar[FaultKind] = FaultKind.NVMF_TARGET_DEATH


@dataclass(frozen=True)
class LinkDegrade(Fault):
    """``target``'s fabric link drops to ``factor`` of its capacity."""

    factor: float = 0.25
    kind: ClassVar[FaultKind] = FaultKind.LINK_DEGRADE


@dataclass(frozen=True)
class SwitchFailure(Fault):
    """A switch dies. A ToR failure isolates its whole rack; the core
    switch partitions every rack from every other."""

    kind: ClassVar[FaultKind] = FaultKind.SWITCH_FAILURE


@dataclass(frozen=True)
class PDUFailure(Fault):
    """A power distribution unit dies: ``target`` is a failure-domain id
    (``rack/pdu``) and everything co-located goes down at once."""

    kind: ClassVar[FaultKind] = FaultKind.PDU_FAILURE


@dataclass(frozen=True)
class LeaderKill(Fault):
    """Crash whichever member currently leads the control-plane Raft
    group named ``target``.  The victim is resolved at injection time by
    the attached :class:`~repro.consensus.group.RaftGroup`, so the same
    schedule exercises whoever won the preceding election."""

    kind: ClassVar[FaultKind] = FaultKind.LEADER_KILL


@dataclass(frozen=True)
class NetworkPartition(Fault):
    """Isolate ``members`` of the Raft group ``target`` from the rest.

    Traffic within the isolated side still flows; with a minority
    isolated the majority side re-elects (if the leader was cut off)
    and keeps committing.  An empty ``members`` isolates a largest
    non-quorum minority containing the current leader — the worst
    single cut that must not lose data.
    """

    members: Tuple[str, ...] = ()
    kind: ClassVar[FaultKind] = FaultKind.NETWORK_PARTITION


@dataclass(frozen=True)
class BlastRadius:
    """Everything one fault takes out, by component class.

    * ``nodes`` — hosts that are dead or unreachable (their processes
      are gone as far as the job is concerned),
    * ``ssds`` — node names whose attached SSDs lost power,
    * ``targets`` — node names whose NVMf target daemon is down,
    * ``links`` — hosts whose fabric links are degraded,
    * ``domains`` — failure-domain ids wholly inside the blast.
    """

    nodes: Tuple[str, ...] = ()
    ssds: Tuple[str, ...] = ()
    targets: Tuple[str, ...] = ()
    links: Tuple[str, ...] = ()
    domains: Tuple[str, ...] = ()

    def is_empty(self) -> bool:
        return not (self.nodes or self.ssds or self.targets or self.links)


def _domain_by_id(domains: List[FailureDomain], domain_id: str) -> FailureDomain:
    for domain in domains:
        if domain.domain_id == domain_id:
            return domain
    raise KeyError(f"no failure domain {domain_id!r}")


def _covered_domains(
    domains: List[FailureDomain], dead_nodes: Tuple[str, ...]
) -> Tuple[str, ...]:
    """Domain ids whose *every* node is inside the blast."""
    dead = set(dead_nodes)
    return tuple(
        d.domain_id
        for d in domains
        if d.nodes and all(n.name in dead for n in d.nodes)
    )


def blast_radius(
    fault: Fault,
    cluster: Optional[ClusterSpec] = None,
    domains: Optional[List[FailureDomain]] = None,
) -> BlastRadius:
    """Expand a component fault into everything it takes out.

    Without a cluster the radius degrades to the named component alone
    (an injector built with no cluster, over devices attached by hand);
    with one, shared-hardware effects are derived from the spec and its
    failure-domain partition.
    """
    if cluster is not None and domains is None:
        domains = derive_failure_domains(cluster)
    domains = domains or []

    if isinstance(fault, NodeCrash):
        if cluster is None:
            return BlastRadius(nodes=(fault.target,))
        node = cluster.node(fault.target)
        storage = node.kind is NodeKind.STORAGE
        return BlastRadius(
            nodes=(node.name,),
            # A dead storage host takes its in-chassis SSDs offline and
            # its target daemon with it.
            ssds=(node.name,) if storage and node.ssd_count else (),
            targets=(node.name,) if storage else (),
            domains=_covered_domains(domains, (node.name,)),
        )

    if isinstance(fault, (LeaderKill, NetworkPartition)):
        # Control-plane faults: no physical hardware leaves service —
        # the injector resolves the victim against the attached
        # consensus group at injection time.
        return BlastRadius()

    if isinstance(fault, SSDPowerLoss):
        return BlastRadius(ssds=(fault.target,))

    if isinstance(fault, NVMfTargetDeath):
        return BlastRadius(targets=(fault.target,))

    if isinstance(fault, LinkDegrade):
        return BlastRadius(links=(fault.target,))

    if isinstance(fault, SwitchFailure):
        if cluster is None:
            return BlastRadius(links=(fault.target,))
        for rack in cluster.racks:
            if fault.target == tor_switch(rack.name):
                # ToR death: the rack is unreachable — hosts still run
                # but no packet reaches them, and no data is lost.
                names = tuple(n.name for n in rack.nodes)
                return BlastRadius(
                    nodes=names,
                    targets=tuple(
                        n.name for n in rack.nodes if n.kind is NodeKind.STORAGE
                    ),
                    domains=_covered_domains(domains, names),
                )
        # Core switch: every host keeps its ToR but loses cross-rack
        # connectivity; model as a degraded link on every host.
        return BlastRadius(links=tuple(n.name for n in cluster.nodes))

    if isinstance(fault, PDUFailure):
        if cluster is None:
            return BlastRadius(domains=(fault.target,))
        domain = _domain_by_id(domains, fault.target)
        names = tuple(n.name for n in domain.nodes)
        return BlastRadius(
            nodes=names,
            ssds=tuple(
                n.name for n in domain.nodes
                if n.kind is NodeKind.STORAGE and n.ssd_count
            ),
            targets=tuple(
                n.name for n in domain.nodes if n.kind is NodeKind.STORAGE
            ),
            domains=(domain.domain_id,),
        )

    raise TypeError(f"unknown fault type {type(fault).__name__}")
