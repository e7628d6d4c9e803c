"""Fluid max-min fair-share bandwidth server.

Models a capacity-``C`` pipe (an SSD's aggregate flash bandwidth, a NIC,
a RAID controller) shared by concurrent byte *flows*. Rates follow
max-min fairness with optional per-flow caps (a client NIC slower than
the device, for example): uncapped flows split what capped flows leave
behind (progressive water-filling).

Whenever the flow set changes, all in-flight flows are re-rated — this
mid-flight re-rating is why the kernel is custom rather than SimPy.

The fluid model is the *fast path* for bulk transfers. Per-command
effects (fixed costs, whole-command granularity) are layered on top by
:mod:`repro.nvme.device`, which charges them explicitly.

This server sets every storage makespan, so its float operations and
their order are part of the results; the hot path only strips
interpreter work around them:

- Water-filling visits flows in ascending *limit* (the cap, or ``inf``
  when uncapped) with a stable sort, so equal limits keep arrival
  order. The server counts its flows per limit. While one limit is
  present the stable sort is the identity, so it is skipped and the
  flows are rated in dict order, which is the order the sort would
  return. The same loop finds the next-completion horizon.
- ``bytes_served`` is the one accumulator, a left-to-right sum over the
  flows in dict order. Busy capacity-time equals it, so
  :meth:`FairShareServer.utilisation` reads it.
- Each re-rate cancels the previous wake ``Timeout`` before it
  schedules the next one, so only the latest wake is ever dispatched.
  A cancelled wake keeps its heap entry until its time comes, so every
  other event keeps its sequence number and its order.

A flow finishes by calling its completion function with its elapsed
seconds (:meth:`FairShareServer.start`), so a caller such as a device
command can finish inside the wake instead of in a later event.
:meth:`~FairShareServer.transfer` passes an event's ``succeed`` and
returns the event: one pushed event per finished flow. A wake first
removes every finished flow and its limit count, then calls their
completions in finish order, and re-rates last: a completion that
starts another flow finds a server holding only live flows.
"""

from __future__ import annotations

import itertools
import math
from operator import attrgetter
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.errors import SimulationError
from repro.sim.engine import Environment, Event, Timeout

__all__ = ["FairShareServer", "Flow"]

_EPSILON_BYTES = 1e-6  # below this a flow is complete (fp dust)
_BY_LIMIT = attrgetter("limit")


class Flow:
    """One in-flight transfer on a :class:`FairShareServer`."""

    __slots__ = ("flow_id", "remaining", "limit", "rate", "done", "started_at")

    def __init__(
        self,
        flow_id: int,
        nbytes: float,
        cap: Optional[float],
        done: Callable[[float], Any],
        started_at: float,
    ):
        self.flow_id = flow_id
        self.remaining = float(nbytes)
        #: Water-filling key: the cap, or ``inf`` when uncapped.
        self.limit = math.inf if cap is None else cap
        self.rate = 0.0
        #: Completion function, called with the flow's elapsed seconds.
        self.done = done
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
        #: In-flight flows per distinct limit.
        self._limits: Dict[float, int] = {}
        self._ids = itertools.count()
        self._last_update = env.now
        #: The pending wake, cancelled by the next re-rate.
        self._wake: Optional[Timeout] = None
        # Accounting.
        self.bytes_served = 0.0

    # -- public API -----------------------------------------------------------

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def start(self, nbytes: float, cap: Optional[float],
              done: Callable[[float], Any]) -> None:
        """Start a flow of ``nbytes``; ``done(elapsed)`` is called when it
        finishes, from inside the wake that finishes it.

        ``cap`` optionally limits this flow's rate (bytes/s) below its
        fair share; ``None`` and ``inf`` both mean uncapped.  A zero-size
        flow calls ``done(0.0)`` at once.  ``done`` must not raise.
        """
        if not 0 <= nbytes < math.inf:
            raise SimulationError(
                f"transfer size must be finite and non-negative, got {nbytes}")
        if cap is not None and not cap > 0:
            raise SimulationError(f"rate cap must be positive, got {cap}")
        if nbytes == 0:
            done(0.0)
            return
        telemetry = self.env.telemetry
        if telemetry is not None:
            telemetry.fairshare_flows += 1
        self._advance()
        flow = Flow(next(self._ids), nbytes, cap, done, self.env.now)
        self._flows[flow.flow_id] = flow
        limits = self._limits
        limits[flow.limit] = limits.get(flow.limit, 0) + 1
        self._rerate_and_schedule()

    def transfer(self, nbytes: float, cap: Optional[float] = None) -> Event:
        """Start a flow of ``nbytes``; returns the completion event, whose
        value is the elapsed seconds (see :meth:`start`)."""
        event = self.env.event()
        self.start(nbytes, cap, event.succeed)
        return event

    def utilisation(self, since: float = 0.0) -> float:
        """Fraction of capacity-time used on [since, now]."""
        self._advance()
        horizon = self.env.now - since
        if horizon <= 0:
            return 0.0
        return min(1.0, self.bytes_served / (horizon * self.capacity))

    # -- internals --------------------------------------------------------------

    def _advance(self) -> None:
        """Drain bytes for the elapsed interval at current rates."""
        now = self.env.now
        dt = now - self._last_update
        if dt > 0:
            served = self.bytes_served
            for flow in self._flows.values():
                moved = flow.rate * dt
                flow.remaining -= moved
                served += moved
            self.bytes_served = served
        self._last_update = now

    def _rerate_and_schedule(self) -> None:
        """Assign max-min fair rates, then schedule the next completion.

        Callers hold at least one flow.
        """
        flows = self._flows
        telemetry = self.env.telemetry
        if telemetry is not None:
            telemetry.fairshare_recomputes += 1
        # Progressive filling: capped flows that can't use a full fair
        # share free capacity for the rest.
        order: Iterable[Flow] = flows.values()
        if len(self._limits) > 1:
            order = sorted(order, key=_BY_LIMIT)
        remaining_capacity = self.capacity
        left = len(flows)
        horizon = math.inf
        for flow in order:
            share = remaining_capacity / left
            limit = flow.limit
            rate = limit if limit < share else share  # min(share, limit)
            flow.rate = rate
            remaining_capacity -= rate
            left -= 1
            if rate > 0:
                time_left = flow.remaining / rate
                if time_left < horizon:
                    horizon = time_left
        if self._wake is not None:
            self._wake.cancel()  # superseded: it will never be dispatched
        # Next completion. _advance() can leave an almost-finished flow
        # with remaining ~ -1e-16 (fp dust), which would make the horizon
        # negative and the timeout below illegal — clamp to "fire now".
        wake = self._wake = self.env.timeout(max(0.0, horizon))
        wake.callbacks.append(self._on_wake)

    def _on_wake(self, wake: Event) -> None:
        now = self.env.now
        dt = now - self._last_update
        self._last_update = now
        flows = self._flows
        served = self.bytes_served
        finished: List[Flow] = []
        for flow in flows.values():
            if dt > 0:
                moved = flow.rate * dt
                flow.remaining -= moved
                served += moved
            remaining = flow.remaining
            # Remaining service time below a picosecond is numeric dust.
            if remaining <= _EPSILON_BYTES or (
                flow.rate > 0 and remaining / flow.rate <= 1e-12
            ):
                finished.append(flow)
        self.bytes_served = served
        if not finished:
            # Floating-point guard: when every remaining service time is
            # below the clock's resolution (now + dt == now), time can
            # no longer advance — finish the nearest flow explicitly
            # rather than spinning.
            nearest = min(
                (f for f in flows.values() if f.rate > 0),
                key=lambda f: f.remaining / f.rate,
                default=None,
            )
            if nearest is not None and now + nearest.remaining / nearest.rate == now:
                finished = [nearest]
        limits = self._limits
        for flow in finished:
            del flows[flow.flow_id]
            held = limits[flow.limit] - 1
            if held:
                limits[flow.limit] = held
            else:
                del limits[flow.limit]
        for flow in finished:
            flow.done(now - flow.started_at)
        if flows:
            self._rerate_and_schedule()
