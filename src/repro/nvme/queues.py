"""Hardware submission/completion queue pairs with polled completion.

Microfs principle 1 requires a *run-to-completion* pipeline: submit,
poll, no interrupts, no locks (§III-A). :class:`QueuePair` models one
hardware SQ/CQ pair: submissions retain order, completions land on the
CQ as the device finishes them, and ``poll()`` drains ready completions
without blocking — returning an empty list when nothing is ready, just
like a real polled driver.

In-order completion per queue is guaranteed ("the use of a single IO
queue per instance guarantees that IO operations are completed in the
order they are received"): a command's completion is withheld until all
earlier submissions on the same queue have completed.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Generator, List, Optional, Tuple

from repro.errors import DeviceError, InvalidArgument
from repro.io.qos import DEFAULT_WRR_WEIGHTS, QoSClass
from repro.nvme.commands import Command, CommandResult
from repro.nvme.device import SSD
from repro.obs.context import tracer_of
from repro.sim.engine import Environment, Event

__all__ = ["QueuePair", "WrrArbiter"]


class WrrArbiter:
    """NVMe WRR-style arbitration over QoS classes at the device front end.

    Commands ask for a service slot before touching the media servers.
    With free slots and no waiters the grant is immediate — zero extra
    simulation events, which is what keeps the pinned-seed baselines
    bit-identical when no arbiter is installed or contention never
    arises. Under contention, ``mode="wrr"`` serves classes by deficit
    credits refilled from the weight table (urgent classes drain the
    queue first, but every class makes progress); ``mode="fcfs"`` is the
    strawman single FIFO the qos experiment compares against.
    """

    __slots__ = (
        "env",
        "mode",
        "slots",
        "weights",
        "_in_service",
        "_fifo",
        "_queues",
        "_credits",
        "grants",
        "waited",
    )

    #: Same-timestamp admissions resolve by per-class FIFO + the fixed
    #: credit scan order below — the sanitizer's tie-break declaration.
    _san_tiebreak = "fifo"

    #: Tie-break order when credits are equal (most- to least-urgent).
    _ORDER = (
        QoSClass.JOURNAL,
        QoSClass.RECOVERY,
        QoSClass.CKPT_DATA,
        QoSClass.BEST_EFFORT,
    )

    def __init__(
        self,
        env: Environment,
        weights: Optional[Dict[QoSClass, int]] = None,
        slots: int = 1,
        mode: str = "wrr",
    ):
        if mode not in ("wrr", "fcfs"):
            raise InvalidArgument(f"arbiter mode must be 'wrr' or 'fcfs', got {mode!r}")
        if slots < 1:
            raise InvalidArgument(f"arbiter slots must be >= 1, got {slots}")
        self.env = env
        self.mode = mode
        self.slots = slots
        self.weights = dict(weights or DEFAULT_WRR_WEIGHTS)
        for cls in self._ORDER:
            self.weights.setdefault(cls, 1)
            if self.weights[cls] < 1:
                raise InvalidArgument(f"weight for {cls.value} must be >= 1")
        self._in_service = 0
        self._fifo: Deque[tuple] = deque()  # fcfs: (qos, event)
        self._queues: Dict[QoSClass, Deque[Event]] = {
            cls: deque() for cls in self._ORDER
        }
        self._credits: Dict[QoSClass, int] = {cls: 0 for cls in self._ORDER}
        self.grants: Dict[QoSClass, int] = {cls: 0 for cls in self._ORDER}
        self.waited: Dict[QoSClass, int] = {cls: 0 for cls in self._ORDER}

    def _waiting(self) -> int:
        if self.mode == "fcfs":
            return len(self._fifo)
        return sum(len(q) for q in self._queues.values())

    def acquire(self, qos: Optional[QoSClass]) -> Optional[Event]:
        """Take a service slot: the one admission step.

        Returns ``None`` when the slot is granted at once, else the
        grant event, which succeeds when :meth:`release` hands this
        request a slot.
        """
        monitor = self.env.monitor
        if monitor is not None:
            monitor.note_mutation(self, "admit")
        cls = qos or QoSClass.BEST_EFFORT
        if self._in_service < self.slots and self._waiting() == 0:
            # Fast path: no event — the default timeline is untouched
            # when the device is uncontended.
            self._in_service += 1
            self.grants[cls] += 1
            return None
        ev = Event(self.env)
        if self.mode == "fcfs":
            self._fifo.append((cls, ev))
        else:
            self._queues[cls].append(ev)
        self.waited[cls] += 1
        return ev

    def admit(self, qos: Optional[QoSClass]) -> Generator[Event, Any, None]:
        """:meth:`acquire` as a sub-generator; yields only under contention."""
        grant = self.acquire(qos)
        if grant is not None:
            yield grant

    def release(self) -> None:
        """Return a slot and hand it to the next waiter per policy."""
        monitor = self.env.monitor
        if monitor is not None:
            monitor.note_mutation(self, "release")
        self._in_service -= 1
        while self._in_service < self.slots:
            picked = self._pick()
            if picked is None:
                break
            cls, ev = picked
            self._in_service += 1
            self.grants[cls] += 1
            ev.succeed()

    def _pick(self) -> Optional[Tuple[QoSClass, Event]]:
        """The next waiter per policy, with its class."""
        if self.mode == "fcfs":
            if not self._fifo:
                return None
            return self._fifo.popleft()
        ready = [cls for cls in self._ORDER if self._queues[cls]]
        if not ready:
            return None
        if all(self._credits[cls] <= 0 for cls in ready):
            # New round: refill every class from the weight table.
            for cls in self._ORDER:
                self._credits[cls] = self.weights[cls]
        funded = [cls for cls in ready if self._credits[cls] > 0]
        best = max(funded, key=lambda cls: (self._credits[cls], -self._ORDER.index(cls)))
        self._credits[best] -= 1
        return best, self._queues[best].popleft()


class QueuePair:
    """One SQ/CQ pair bound to an SSD, with bounded queue depth."""

    __slots__ = ("env", "ssd", "qid", "depth", "_inflight", "_completions")

    #: Completions drain strictly in submission order (_drain_in_order).
    _san_tiebreak = "fifo"

    def __init__(self, env: Environment, ssd: SSD, depth: int = 128):
        if depth < 1:
            raise DeviceError(f"queue depth must be >= 1, got {depth}")
        self.env = env
        self.ssd = ssd
        self.qid = ssd.allocate_queue()
        self.depth = depth
        self._inflight: Deque[dict] = deque()  # submission order
        self._completions: Deque[CommandResult] = deque()

    # -- submission --------------------------------------------------------------

    def submit(self, command: Command, rate_cap: Optional[float] = None) -> None:
        """Post a command to the SQ. Raises if the queue is full."""
        if len(self._inflight) >= self.depth:
            raise DeviceError(f"queue {self.qid} full (depth {self.depth})")
        monitor = self.env.monitor
        if monitor is not None:
            monitor.note_mutation(self, "submit")
        slot = {"done": False, "result": None, "error": None, "command": command}
        self._inflight.append(slot)
        tr = tracer_of(self.env)
        if tr is not None:
            # Span covers SQ post -> CQ entry; the device span (which
            # claims the handoff) nests inside it via the parent link.
            qspan = tr.begin(f"nvme.qp.{command.opcode.name.lower()}",
                             cat="device", track=f"{self.ssd.name}.q{self.qid}",
                             parent=tr.take_handoff(), depth=len(self._inflight))
            slot["span"] = qspan
            tr.handoff(qspan)
        event = self.ssd.submit(command, rate_cap=rate_cap)
        event.callbacks.append(lambda ev: self._on_device_done(slot, ev))

    def _on_device_done(self, slot: dict, event: Event) -> None:
        monitor = self.env.monitor
        if monitor is not None:
            monitor.note_mutation(self, "complete")
        slot["done"] = True
        if event.ok:
            slot["result"] = event.value
        else:
            slot["error"] = event._exc
        span = slot.get("span")
        if span is not None:
            tr = tracer_of(self.env)
            if tr is not None:
                tr.end(span)
        self._drain_in_order()

    def _drain_in_order(self) -> None:
        """Move completions to the CQ strictly in submission order."""
        while self._inflight and self._inflight[0]["done"]:
            slot = self._inflight.popleft()
            if slot["error"] is not None:
                # Errors surface on poll as failed results.
                result = CommandResult(
                    command=slot["command"], latency=0.0,
                    extra={"error": slot["error"]},
                )
            else:
                result = slot["result"]
                result.command = slot["command"]
            self._completions.append(result)

    # -- polling ------------------------------------------------------------------

    def poll(self) -> List[CommandResult]:
        """Drain currently-ready completions (non-blocking)."""
        out = list(self._completions)
        self._completions.clear()
        return out

    def outstanding(self) -> int:
        return len(self._inflight)

    def wait_all(self) -> Generator[Event, Any, List[CommandResult]]:
        """Poll-spin until every outstanding command completes.

        A sub-generator for simulation processes; the poll interval is a
        fixed 1 us — the cost model of busy polling, not a sleep.
        """
        results: List[CommandResult] = []
        results.extend(self.poll())
        while self._inflight:
            yield self.env.timeout(1e-6)
            results.extend(self.poll())
        results.extend(self.poll())
        return results
