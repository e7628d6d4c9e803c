"""The fault injector: a sim process that fires typed faults on a schedule.

The injector fires each planned fault at its simulated time, records it
in a :class:`~repro.faults.timeline.FaultTimeline`, and, when a
:class:`~repro.consensus.group.RaftGroup` is attached, applies control-plane
faults to it: :class:`~repro.faults.model.LeaderKill` crashes the current
leader and :class:`~repro.faults.model.NetworkPartition` cuts a minority
off.  A fault with ``repair_after`` is repaired that long after it
lands.  Subscribers hear of each injection and each repair; the failover
experiment drives its single-authority baseline from them.

Determinism: the planned schedule is sorted by ``(time, insertion
sequence)``, so the schedule fully determines the timeline.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.faults.model import (
    BlastRadius,
    Fault,
    LeaderKill,
    NetworkPartition,
    blast_radius,
)
from repro.faults.timeline import FaultRecord, FaultTimeline
from repro.obs.context import tracer_of
from repro.sim.engine import Environment, Event, Process

__all__ = ["FaultInjector"]

FaultHandler = Callable[[FaultRecord, Fault, BlastRadius], None]


class FaultInjector:  # reproflow: ignore[FLOW103] (_run/_repair alternate by protocol)
    """Schedules faults and applies control-plane faults to a wired group.

    Faults with nothing attached to strike still land in the timeline —
    observability does not depend on wiring completeness.
    """

    def __init__(
        self,
        env: Environment,
        timeline: Optional[FaultTimeline] = None,
    ):
        self.env = env
        self.timeline = timeline if timeline is not None else FaultTimeline()
        self.consensus: Any = None  # RaftGroup for control-plane faults
        self._leader_kills: List[str] = []  # victims pending revival (FIFO)
        self._planned: List[Tuple[float, int, Fault, Optional[float]]] = []
        self._seq = 0
        self._handlers: List[FaultHandler] = []
        self._repair_handlers: List[FaultHandler] = []
        self._started = False

    # -- wiring -------------------------------------------------------------

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
        radius = blast_radius(fault)
        if isinstance(fault, (LeaderKill, NetworkPartition)):
            self._apply_consensus(fault)
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
