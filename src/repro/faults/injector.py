"""The fault injector: a sim process that actually kills things.

Before this subsystem the repo modelled failures as abstract lost time.
The injector instead fires typed faults — from a deterministic schedule
or from seeded hazard processes — and applies their *physical* effects
to the live simulation objects: SSDs lose power mid-command, NVMf target
daemons die and break their sessions, fabric links degrade, scheduler
nodes drop out of the free pool. Recovery orchestration subscribes to
injections and drives the repair machinery the codebase already has
(scheduler requeue, MicroFS log replay, the level-2 PFS tier).

Determinism: the planned schedule is sorted by ``(time, insertion
sequence)`` and hazard draws are pre-computed from named RNG streams
(:mod:`repro.faults.hazard`), so a seed fully determines the timeline.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

from repro.faults.hazard import HazardSpec, draw_arrival_times
from repro.faults.model import (
    BlastRadius,
    Fault,
    LeaderKill,
    LinkDegrade,
    NetworkPartition,
    blast_radius,
)
from repro.faults.timeline import FaultRecord, FaultTimeline
from repro.obs.context import tracer_of
from repro.sim.engine import Environment, Event, Process
from repro.topology.failure_domains import derive_failure_domains

__all__ = ["FaultInjector"]

FaultHandler = Callable[[FaultRecord, Fault, BlastRadius], None]


class FaultInjector:  # reproflow: ignore[FLOW103] (_run/_repair alternate by protocol)
    """Schedules faults and applies their physical effects.

    Component inventories are attached explicitly (or wholesale via
    :meth:`for_deployment`); faults whose targets have no attached
    hardware still land in the timeline — observability does not depend
    on wiring completeness.
    """

    def __init__(
        self,
        env: Environment,
        cluster: Any = None,
        seed: int = 0,
        timeline: Optional[FaultTimeline] = None,
    ):
        self.env = env
        self.cluster = cluster
        self.domains = (
            derive_failure_domains(cluster) if cluster is not None else []
        )
        self.seed = int(seed)
        self.timeline = timeline if timeline is not None else FaultTimeline()
        self.ssds: Dict[str, List[Any]] = {}  # node name -> SSD devices
        self.targets: Dict[str, List[Any]] = {}  # node name -> NVMf targets
        self.fabric: Any = None
        self.scheduler: Any = None
        self.consensus: Any = None  # RaftGroup for control-plane faults
        self._leader_kills: List[str] = []  # victims pending revival (FIFO)
        self.down_nodes: set = set()
        self._planned: List[Tuple[float, int, Fault, Optional[float]]] = []
        self._seq = 0
        self._handlers: List[FaultHandler] = []
        self._repair_handlers: List[FaultHandler] = []
        self._started = False

    # -- wiring -------------------------------------------------------------

    @classmethod
    def for_deployment(
        cls,
        deployment: Any,
        seed: int = 0,
        timeline: Optional[FaultTimeline] = None,
    ) -> "FaultInjector":
        """Attach every component of an :class:`apps.Deployment`."""
        injector = cls(
            deployment.env, deployment.cluster, seed=seed, timeline=timeline
        )
        for node, devices in deployment.all_ssds.items():
            for ssd in devices:
                injector.attach_ssd(node, ssd)
        for node, targets in deployment.targets.items():
            for target in targets if isinstance(targets, (list, tuple)) else [targets]:
                injector.attach_target(node, target)
        injector.fabric = deployment.fabric
        injector.scheduler = deployment.scheduler
        return injector

    def attach_ssd(self, node_name: str, ssd: Any) -> None:
        self.ssds.setdefault(node_name, []).append(ssd)

    def attach_target(self, node_name: str, target: Any) -> None:
        self.targets.setdefault(node_name, []).append(target)

    def attach_consensus(self, group: Any) -> None:
        """Wire a :class:`~repro.consensus.group.RaftGroup` so
        :class:`LeaderKill` / :class:`NetworkPartition` faults drive real
        consensus recovery instead of landing as timeline-only records."""
        self.consensus = group

    def subscribe(self, handler: FaultHandler) -> None:
        """Call ``handler(record, fault, radius)`` at each injection."""
        self._handlers.append(handler)

    def subscribe_repair(self, handler: FaultHandler) -> None:
        """Call ``handler(record, fault, radius)`` when a fault's repair
        completes (component back up; distinct from app recovery)."""
        self._repair_handlers.append(handler)

    def is_down(self, node_name: str) -> bool:
        return node_name in self.down_nodes

    def targets_on(self, node_name: str) -> List[Any]:
        """NVMf target daemons attached on one node."""
        return list(self.targets.get(node_name, []))

    # -- scheduling ---------------------------------------------------------

    def at(
        self, time: float, fault: Fault, repair_after: Optional[float] = None
    ) -> None:
        """Plan one fault at an absolute simulated time (run by
        :meth:`start`; ties break by insertion order)."""
        if self._started:
            raise RuntimeError("injector already started")
        self._planned.append((float(time), self._seq, fault, repair_after))
        self._seq += 1

    def arm_hazard(
        self,
        spec: HazardSpec,
        components: Sequence[str],
        horizon: float,
        fault_factory: Callable[[str], Fault],
        repair_after: Optional[float] = None,
    ) -> int:
        """Plan seeded renewal-process faults for a component class.

        Times are pre-drawn per component from ``(seed, class,
        component)`` streams — common random numbers across systems.
        Returns the number of faults planned.
        """
        planned = 0
        for component in components:
            for t in draw_arrival_times(self.seed, spec, component, horizon):
                self.at(t, fault_factory(component), repair_after)
                planned += 1
        return planned

    def planned(self) -> List[Tuple[float, Fault]]:
        """The armed schedule in firing order (time, fault)."""
        return [(t, f) for t, _seq, f, _r in sorted(self._planned, key=lambda p: (p[0], p[1]))]

    def start(self) -> Process:
        """Launch the injection process over the planned schedule."""
        self._started = True
        return self.env.process(self._run())

    def _run(self) -> Generator[Event, Any, None]:
        for time, _seq, fault, repair_after in sorted(
            self._planned, key=lambda p: (p[0], p[1])
        ):
            delay = time - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            self.inject(fault, repair_after)

    # -- injection ----------------------------------------------------------

    def inject(
        self, fault: Fault, repair_after: Optional[float] = None
    ) -> FaultRecord:
        """Apply ``fault`` right now; returns its timeline record."""
        radius = blast_radius(fault, self.cluster, self.domains or None)
        self._apply(fault, radius)
        record = self.timeline.record(fault, self.env.now, radius)
        tr = tracer_of(self.env)
        if tr is not None:
            tr.instant("fault.inject", cat="fault", track="faults",
                       kind=fault.kind.value, target=fault.target)
        ctx = self.env.obs
        if ctx is not None:
            ctx.metrics.counter("faults.injected").add(1)
        for handler in self._handlers:
            handler(record, fault, radius)
        if repair_after is not None and repair_after > 0:
            self.env.process(self._repair(record, fault, radius, repair_after))
        return record

    def _apply(self, fault: Fault, radius: BlastRadius) -> None:
        if isinstance(fault, (LeaderKill, NetworkPartition)):
            self._apply_consensus(fault)
            return
        for node in radius.ssds:
            for ssd in self.ssds.get(node, []):
                if ssd.powered:
                    ssd.power_fail()
        for node in radius.targets:
            for target in self.targets.get(node, []):
                if getattr(target, "alive", True):
                    target.kill()
        if self.fabric is not None:
            factor = fault.factor if isinstance(fault, LinkDegrade) else 0.0
            for host in radius.links:
                self.fabric.degrade(host, factor)
        for node in radius.nodes:
            self.down_nodes.add(node)
            if self.scheduler is not None:
                self.scheduler.mark_node_down(node)

    def _apply_consensus(self, fault: Fault) -> None:
        group = self.consensus
        if group is None:
            return  # timeline-only record; nothing wired to strike
        if isinstance(fault, LeaderKill):
            victim = group.kill_leader()
            if victim is not None:
                self._leader_kills.append(victim)
            return
        assert isinstance(fault, NetworkPartition)
        members = list(fault.members)
        if not members:
            # Worst single cut: the current leader plus enough followers
            # to form the largest still-minority side.
            minority = len(group.members) - group.quorum_size
            lead = group.leader()
            members = [lead] if lead is not None else []
            for name in group.members:
                if len(members) >= minority:
                    break
                if name != lead:
                    members.append(name)
        group.partition(members)

    def _repair_consensus(self, fault: Fault) -> None:
        group = self.consensus
        if group is None:
            return
        if isinstance(fault, LeaderKill):
            if self._leader_kills:
                group.revive(self._leader_kills.pop(0))
            return
        group.heal()

    def _repair(
        self,
        record: FaultRecord,
        fault: Fault,
        radius: BlastRadius,
        repair_after: float,
    ) -> Generator[Event, Any, None]:
        yield self.env.timeout(repair_after)
        if isinstance(fault, (LeaderKill, NetworkPartition)):
            self._repair_consensus(fault)
        for node in radius.ssds:
            for ssd in self.ssds.get(node, []):
                if not ssd.powered:
                    ssd.power_restore()
        for node in radius.targets:
            for target in self.targets.get(node, []):
                if not getattr(target, "alive", True):
                    target.revive()
        if self.fabric is not None:
            for host in radius.links:
                self.fabric.restore(host)
        for node in radius.nodes:
            self.down_nodes.discard(node)
            if self.scheduler is not None:
                self.scheduler.mark_node_up(node)
        self.timeline.mark_repaired(record, self.env.now)
        tr = tracer_of(self.env)
        if tr is not None:
            tr.instant("fault.repair", cat="fault", track="faults",
                       kind=fault.kind.value, target=fault.target)
        ctx = self.env.obs
        if ctx is not None:
            ctx.metrics.counter("faults.repaired").add(1)
        for handler in self._repair_handlers:
            handler(record, fault, radius)
