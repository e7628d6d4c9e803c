"""Reference fluid max-min fair-share server for the kernel's property tests.

A verbatim copy of ``FairShareServer`` as it stood before the kernel was
rewritten for speed: it sorts every re-rate, walks the flows in separate
passes, and tags wakes with a generation counter.  The property test in
``tests/sim/test_fairshare_reference.py`` drives it and
:class:`repro.sim.fairshare.FairShareServer` through the same schedule and
requires every completion time, byte count and event count to be equal
with ``==``.  Do not edit it to follow the kernel.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional

from repro.errors import SimulationError
from repro.sim.engine import Environment, Event

__all__ = ["FairShareServer", "Flow"]

_EPSILON_BYTES = 1e-6  # below this a flow is complete (fp dust)


class Flow:
    """One in-flight transfer on a :class:`FairShareServer`."""

    __slots__ = ("flow_id", "remaining", "cap", "rate", "event", "started_at")

    def __init__(
        self,
        flow_id: int,
        nbytes: float,
        cap: Optional[float],
        event: Event,
        started_at: float,
    ):
        self.flow_id = flow_id
        self.remaining = float(nbytes)
        self.cap = cap
        self.rate = 0.0
        self.event = event
        self.started_at = started_at


class FairShareServer:
    """A shared pipe serving concurrent flows at max-min fair rates."""

    #: Accounting updates commute at equal timestamps — rates are
    #: recomputed from the full flow set, never from arrival order.
    _san_tiebreak = "commutative"

    def __init__(self, env: Environment, capacity: float, name: str = "pipe") -> None:
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = float(capacity)
        self.name = name
        self._flows: Dict[int, Flow] = {}
        self._ids = itertools.count()
        self._last_update = env.now
        self._wake_generation = 0
        # Accounting.
        self.bytes_served = 0.0
        self._busy_time = 0.0

    # -- public API -----------------------------------------------------------

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def transfer(self, nbytes: float, cap: Optional[float] = None) -> Event:
        """Start a flow of ``nbytes``; returns the completion event.

        ``cap`` optionally limits this flow's rate (bytes/s) below its
        fair share.
        """
        if nbytes < 0:
            raise SimulationError(f"negative transfer size: {nbytes}")
        if cap is not None and cap <= 0:
            raise SimulationError(f"non-positive rate cap: {cap}")
        event = self.env.event()
        if nbytes == 0:
            event.succeed(0.0)
            return event
        telemetry = self.env.telemetry
        if telemetry is not None:
            telemetry.fairshare_flows += 1
        self._advance()
        flow = Flow(next(self._ids), nbytes, cap, event, self.env.now)
        self._flows[flow.flow_id] = flow
        self._rerate_and_schedule()
        return event

    def utilisation(self, since: float = 0.0) -> float:
        """Fraction of capacity-time used on [since, now]."""
        self._advance()
        horizon = self.env.now - since
        if horizon <= 0:
            return 0.0
        return min(1.0, self._busy_time / (horizon * self.capacity))

    # -- internals --------------------------------------------------------------

    def _advance(self) -> None:
        """Drain bytes for the elapsed interval at current rates."""
        now = self.env.now
        dt = now - self._last_update
        if dt > 0:
            for flow in self._flows.values():
                moved = flow.rate * dt
                flow.remaining -= moved
                self.bytes_served += moved
                self._busy_time += moved  # busy integral == bytes moved / capacity-normalised later
        self._last_update = now

    def _rerate_and_schedule(self) -> None:
        """Assign max-min fair rates, then schedule the next completion."""
        flows = list(self._flows.values())
        if not flows:
            return
        telemetry = self.env.telemetry
        if telemetry is not None:
            telemetry.fairshare_recomputes += 1
        # Progressive filling: capped flows that can't use a full fair
        # share free capacity for the rest.
        remaining_capacity = self.capacity
        unassigned = sorted(
            flows, key=lambda f: (f.cap if f.cap is not None else float("inf"))
        )
        count = len(unassigned)
        for index, flow in enumerate(unassigned):
            share = remaining_capacity / (count - index)
            rate = min(share, flow.cap) if flow.cap is not None else share
            flow.rate = rate
            remaining_capacity -= rate
        # Next completion. _advance() can leave an almost-finished flow
        # with remaining ~ -1e-16 (fp dust), which would make the horizon
        # negative and the timeout below illegal — clamp to "fire now".
        horizon = max(0.0, min(
            (f.remaining / f.rate) for f in flows if f.rate > 0
        ))
        self._wake_generation += 1
        generation = self._wake_generation
        wake = self.env.timeout(horizon)
        wake.callbacks.append(lambda _ev: self._on_wake(generation))

    def _on_wake(self, generation: int) -> None:
        if generation != self._wake_generation:
            return  # superseded by a newer re-rate
        self._advance()
        finished = [
            f for f in self._flows.values() if self._is_done(f)
        ]
        if not finished and self._flows:
            # Floating-point guard: when every remaining service time is
            # below the clock's resolution (now + dt == now), time can
            # no longer advance — finish the nearest flow explicitly
            # rather than spinning.
            nearest = min(
                (f for f in self._flows.values() if f.rate > 0),
                key=lambda f: f.remaining / f.rate,
                default=None,
            )
            if nearest is not None and (
                self.env.now + nearest.remaining / nearest.rate == self.env.now
            ):
                finished = [nearest]
        for flow in finished:
            del self._flows[flow.flow_id]
            flow.event.succeed(self.env.now - flow.started_at)
        if self._flows:
            self._rerate_and_schedule()

    @staticmethod
    def _is_done(flow: Flow) -> bool:
        if flow.remaining <= _EPSILON_BYTES:
            return True
        # Remaining service time below a picosecond is numeric dust.
        return flow.rate > 0 and flow.remaining / flow.rate <= 1e-12
