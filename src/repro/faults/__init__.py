"""repro.faults — deterministic fault injection.

The subsystem has four layers:

* :mod:`repro.faults.model` — typed fault kinds (node crash and the two
  control-plane faults) and their blast radii;
* :mod:`repro.faults.hazard` — seeded renewal processes (exponential /
  Weibull) drawn from named RNG streams, common across systems;
* :mod:`repro.faults.injector` — the sim process that fires a fault
  schedule and applies control-plane faults to a Raft group;
* :mod:`repro.faults.timeline` — the observable record of all of it.

Checkpoint recovery itself lives with the storage it restores: MicroFS
log replay in :mod:`repro.core.microfs.recovery` and the level-2
fallback in :class:`~repro.core.multilevel.MultiLevelCheckpointer`.
"""

from repro.faults.hazard import HazardSpec, campaign_failure_times, draw_arrival_times
from repro.faults.injector import FaultInjector
from repro.faults.model import (
    BlastRadius,
    Fault,
    FaultKind,
    LeaderKill,
    NetworkPartition,
    NodeCrash,
    blast_radius,
)
from repro.faults.timeline import FaultRecord, FaultTimeline

__all__ = [
    "BlastRadius",
    "Fault",
    "FaultKind",
    "FaultInjector",
    "FaultRecord",
    "FaultTimeline",
    "HazardSpec",
    "LeaderKill",
    "NetworkPartition",
    "NodeCrash",
    "blast_radius",
    "campaign_failure_times",
    "draw_arrival_times",
]
