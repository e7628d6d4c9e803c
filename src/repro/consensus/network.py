"""Message transport between Raft members over simulated fabric RTTs.

Consensus traffic rides the same physical substrate as checkpoint data:
an intra-zone hop costs one NVMf-class one-way latency, a cross-zone hop
costs the inter-rack spine crossing.  The fabric owns per-member inboxes
and supports the two physical failure modes the fault injector fires at
the control plane: member death (``kill``/``revive``) and a network
partition isolating an arbitrary member subset (``partition``/``heal``).

Delivery is deterministic.  ``send`` schedules one timer per message,
``latency`` ahead, whose callback delivers it; no process is spawned.
The timer takes its schedule sequence at ``send``, and per-pair latency
is constant, so messages between any two members arrive in send order
(the engine breaks time ties by schedule sequence).  A partition drops
messages both at send time and at delivery time — a packet in flight
when the switch dies is lost, exactly once, on every run with the same
schedule.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Optional, Sequence

from repro.sim.engine import Environment, Event
from repro.units import us

__all__ = ["ConsensusFabric"]

#: One-way latency between members in the same zone (one fabric hop).
INTRA_ZONE_LATENCY = us(6)

#: One-way latency across zones (ToR -> spine -> ToR crossing).
CROSS_ZONE_LATENCY = us(50)


class ConsensusFabric:
    """Point-to-point message delivery with partitions and member death."""

    def __init__(
        self,
        env: Environment,
        members: Sequence[str],
        zone_of: Optional[Callable[[str], str]] = None,
        intra_latency: float = INTRA_ZONE_LATENCY,
        cross_latency: float = CROSS_ZONE_LATENCY,
    ):
        self.env = env
        self.members = list(members)
        self.zone_of = zone_of
        self.intra_latency = intra_latency
        self.cross_latency = cross_latency
        self._inboxes: Dict[str, Deque[Any]] = {m: deque() for m in self.members}
        self._waiters: Dict[str, Optional[Event]] = {m: None for m in self.members}
        self._dead: Dict[str, bool] = {m: False for m in self.members}
        self._isolated: frozenset = frozenset()
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        #: Name of the member that most recently won leadership; the
        #: nodes use it to count actual leader *changes* (hand-offs to a
        #: different member) apart from re-elections of the same one.
        self.last_leader: Optional[str] = None

    # -- topology-derived latency ------------------------------------------

    def latency(self, src: str, dst: str) -> float:
        if self.zone_of is None:
            return self.intra_latency
        if self.zone_of(src) == self.zone_of(dst):
            return self.intra_latency
        return self.cross_latency

    # -- failure modes ------------------------------------------------------

    def kill(self, member: str) -> None:
        """Member death: inbox is lost, nothing flows in or out."""
        self._dead[member] = True
        self._inboxes[member].clear()

    def revive(self, member: str) -> None:
        self._dead[member] = False

    def is_dead(self, member: str) -> bool:
        return self._dead.get(member, False)

    def partition(self, isolated: Sequence[str]) -> None:
        """Cut ``isolated`` off from every other member (both directions).

        Traffic *within* the isolated side still flows — a minority
        partition can hold elections it can never win.
        """
        self._isolated = frozenset(isolated)

    def heal(self) -> None:
        self._isolated = frozenset()

    def is_partitioned(self) -> bool:
        return bool(self._isolated)

    def _blocked(self, src: str, dst: str) -> bool:
        return (src in self._isolated) != (dst in self._isolated)

    # -- send / receive ------------------------------------------------------

    def send(self, src: str, dst: str, msg: Any) -> None:
        """Fire-and-forget; drops are silent (Raft retries by design)."""
        self.sent += 1
        if self._dead.get(src, False) or self._dead.get(dst, False):
            self.dropped += 1
            return
        if self._blocked(src, dst):
            self.dropped += 1
            return
        arrival = self.env.timeout(self.latency(src, dst), (src, dst, msg))
        arrival.callbacks.append(self._deliver)

    def _deliver(self, arrival: Event) -> None:
        src, dst, msg = arrival.value
        # Re-check at arrival: the fault may have struck mid-flight.
        if self._dead.get(dst, False) or self._blocked(src, dst):
            self.dropped += 1
            return
        self.delivered += 1
        self._inboxes[dst].append(msg)
        waiter = self._waiters[dst]
        if waiter is not None and not waiter.triggered:
            waiter.succeed()

    def pop(self, member: str) -> Optional[Any]:
        """Next queued message for ``member``, or None."""
        inbox = self._inboxes[member]
        return inbox.popleft() if inbox else None

    def pending(self, member: str) -> int:
        return len(self._inboxes[member])

    def recv_event(self, member: str) -> Event:
        """An event that triggers when ``member`` has (or gets) mail."""
        if self._inboxes[member]:
            ready = self.env.event()
            ready.succeed()
            return ready
        waiter = self._waiters[member]
        if waiter is None or waiter.triggered:
            waiter = self.env.event()
            self._waiters[member] = waiter
        return waiter
