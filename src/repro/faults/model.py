"""Typed fault kinds and their blast radii.

Each fault kind names one component: a host (:class:`NodeCrash`) or the
replicated control plane (:class:`LeaderKill`, :class:`NetworkPartition`).
:func:`blast_radius` expands a fault into the components it takes out,
which the :class:`~repro.faults.timeline.FaultTimeline` records: a node
crash takes its host, and a control-plane fault takes no hardware.

Faults are plain frozen dataclasses so schedules hash, compare, and
serialise deterministically (the injector sorts them into a timeline
that must be bit-identical across runs).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import ClassVar, Tuple

__all__ = [
    "FaultKind",
    "Fault",
    "NodeCrash",
    "LeaderKill",
    "NetworkPartition",
    "BlastRadius",
    "blast_radius",
]


class FaultKind(enum.Enum):
    """Component classes a fault can strike."""

    NODE_CRASH = "node-crash"
    LEADER_KILL = "leader-kill"
    NETWORK_PARTITION = "network-partition"


@dataclass(frozen=True)
class Fault:
    """One component-level fault; ``target`` names the component."""

    target: str
    kind: ClassVar[FaultKind]


@dataclass(frozen=True)
class NodeCrash(Fault):
    """A host dies (kernel panic, DIMM failure, operator error)."""

    kind: ClassVar[FaultKind] = FaultKind.NODE_CRASH


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


def blast_radius(fault: Fault) -> BlastRadius:
    """Expand a component fault into everything it takes out."""
    if isinstance(fault, NodeCrash):
        return BlastRadius(nodes=(fault.target,))
    if isinstance(fault, (LeaderKill, NetworkPartition)):
        # Control-plane faults: no physical hardware leaves service —
        # the injector resolves the victim against the attached
        # consensus group at injection time.
        return BlastRadius()
    raise TypeError(f"unknown fault type {type(fault).__name__}")
