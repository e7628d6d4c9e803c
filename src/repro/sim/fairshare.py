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

- Rates live in one server-level sequence, ``_rates``, by position: the
  i-th rate belongs to the i-th flow of ``_flows`` in insertion order.
  A re-rate writes it, and it stays valid until the flow set next
  changes; every drain, finish test and the fp-dust guard zip the flows
  with it. A wake removes finished flows before it re-rates, so in
  between (inside the finished flows' completions) the sequence is
  stale, but the clock has not moved there, so nothing drains at it.
- Water-filling visits flows in ascending *limit* (the cap, or ``inf``
  when uncapped) with a stable sort, so equal limits keep arrival
  order; each flow takes ``min(limit, remaining capacity / flows
  left)``. The server counts its flows per limit. While every flow
  shares one limit, the rates depend only on that limit and the flow
  count, and a limit at or above capacity never binds (each share is at
  most the capacity left, which is at most the limit), so it gives the
  same rates as ``inf``. The rates are memoized per (flow count, the
  shared limit, or ``inf`` when it is at or above capacity): the first
  re-rate at a key water-fills and stores the rates as a tuple; later
  ones take the tuple and the next-completion horizon as the minimum of
  ``remaining / rate``. With two or more limits the server sorts,
  water-fills and writes each rate at its flow's position, finding the
  horizon in the same loop (a single limit skips the sort: a stable
  sort of equal keys is the identity).
- A flow finishes when its remaining bytes are at most ``_EPSILON_BYTES``
  or its remaining service time, ``remaining / rate``, is at most a
  picosecond. No rate exceeds the capacity (a share is at most the
  capacity left, which is at most the capacity), so the second test can
  pass only if ``remaining`` is at most ``capacity * 1e-12``, give or
  take the division's rounding, which the factor ``1 + 1e-9`` covers.
  Each server holds that constant bound,
  ``max(_EPSILON_BYTES, capacity * 1e-12 * (1 + 1e-9))``, and the wake
  tests it first: a flow above it cannot finish and skips the division.
- ``bytes_served`` is the one accumulator, a left-to-right sum over the
  flows in dict order. Busy capacity-time equals it, so
  :meth:`FairShareServer.utilisation` reads it.
- Each re-rate cancels the previous wake ``Timeout`` before it
  schedules the next one, so only the latest wake is ever dispatched.
  Only ``_on_wake`` awaits a wake, so the cancel skips the waiter scan
  (``Timeout._withdraw``).
  A cancelled wake keeps its heap entry until its time comes, so every
  other event keeps its sequence number and its order. A dispatched
  wake is forgotten as it starts, so the next re-rate has nothing to
  cancel.

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
from operator import attrgetter, truediv
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.sim.engine import Environment, Event, Timeout

__all__ = ["FairShareServer", "Flow"]

_EPSILON_BYTES = 1e-6  # below this a flow is complete (fp dust)
_REMAINING = attrgetter("remaining")


class Flow:
    """One in-flight transfer on a :class:`FairShareServer`."""

    __slots__ = ("flow_id", "remaining", "limit", "done", "started_at")

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
        #: Each flow's rate, by position in ``_flows`` (see the module doc).
        self._rates: Sequence[float] = ()
        #: In-flight flows per distinct limit.
        self._limits: Dict[float, int] = {}
        #: (flow count, the one shared limit) -> rates (see the module doc).
        self._shares: Dict[Tuple[int, float], Tuple[float, ...]] = {}
        #: No flow above this many bytes can pass the finish test.
        self._finish_bound = max(_EPSILON_BYTES,
                                 self.capacity * 1e-12 * (1 + 1e-9))
        self._ids = itertools.count()
        self._last_update = env.now
        #: The pending wake, cancelled by the next re-rate.
        self._wake: Optional[Timeout] = None
        #: ``_on_wake``, bound once for every wake.
        self._wake_callback = self._on_wake
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
        limit = flow.limit
        limits = self._limits
        limits[limit] = limits.get(limit, 0) + 1
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
            for flow, rate in zip(self._flows.values(), self._rates):
                moved = rate * dt
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
        limits = self._limits
        if len(limits) > 1:
            horizon = self._water_fill()
        else:
            (limit,) = limits
            key = (len(flows), limit if limit < self.capacity else math.inf)
            rates = self._shares.get(key)
            if rates is None:  # the first re-rate at this key fills the memo
                horizon = self._water_fill()
                self._shares[key] = tuple(self._rates)
            else:
                self._rates = rates
                horizon = min(map(truediv, map(_REMAINING, flows.values()), rates))
        if self._wake is not None:
            self._wake._withdraw()  # superseded: it will never be dispatched
        # Next completion. _advance() can leave an almost-finished flow
        # with remaining ~ -1e-16 (fp dust), which would make the horizon
        # negative and the timeout below illegal — clamp to "fire now".
        wake = self._wake = Timeout(self.env, max(0.0, horizon))
        wake.callbacks.append(self._wake_callback)

    def _water_fill(self) -> float:
        """Progressive filling: capped flows that can't use a full fair
        share free capacity for the rest. Writes ``_rates`` by position
        and returns the next-completion horizon."""
        flows = list(self._flows.values())
        limits = [flow.limit for flow in flows]
        order: Sequence[int] = range(len(flows))
        if len(self._limits) > 1:
            order = sorted(order, key=limits.__getitem__)
        rates = [0.0] * len(flows)
        remaining_capacity = self.capacity
        left = len(flows)
        horizon = math.inf
        for i in order:
            share = remaining_capacity / left
            limit = limits[i]
            rate = limit if limit < share else share  # min(share, limit)
            rates[i] = rate
            remaining_capacity -= rate
            left -= 1
            if rate > 0:
                time_left = flows[i].remaining / rate
                if time_left < horizon:
                    horizon = time_left
        self._rates = rates
        return horizon

    def _on_wake(self, wake: Event) -> None:
        self._wake = None  # dispatched: nothing left to cancel
        now = self.env.now
        dt = now - self._last_update
        self._last_update = now
        flows = self._flows
        rates = self._rates
        bound = self._finish_bound
        # Remaining service time below a picosecond is numeric dust.
        finished: List[Flow] = []
        if dt > 0:
            served = self.bytes_served
            for flow, rate in zip(flows.values(), rates):
                moved = rate * dt
                remaining = flow.remaining - moved
                flow.remaining = remaining
                served += moved
                if remaining <= bound and (
                    remaining <= _EPSILON_BYTES
                    or (rate > 0 and remaining / rate <= 1e-12)
                ):
                    finished.append(flow)
            self.bytes_served = served
        else:
            finished = [
                flow for flow, rate in zip(flows.values(), rates)
                if flow.remaining <= bound and (
                    flow.remaining <= _EPSILON_BYTES
                    or (rate > 0 and flow.remaining / rate <= 1e-12))
            ]
        if not finished:
            # Floating-point guard: when every remaining service time is
            # below the clock's resolution (now + dt == now), time can
            # no longer advance — finish the nearest flow explicitly
            # rather than spinning.
            nearest = min(
                (pair for pair in zip(flows.values(), rates) if pair[1] > 0),
                key=lambda pair: pair[0].remaining / pair[1],
                default=None,
            )
            if nearest is not None:
                flow, rate = nearest
                if now + flow.remaining / rate == now:
                    finished = [flow]
        limits = self._limits
        for flow in finished:
            del flows[flow.flow_id]
            limit = flow.limit
            held = limits[limit] - 1
            if held:
                limits[limit] = held
            else:
                del limits[limit]
        for flow in finished:
            flow.done(now - flow.started_at)
        if flows:
            self._rerate_and_schedule()
