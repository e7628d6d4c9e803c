"""Front-end admission for an SSD's hardware queues.

:class:`WrrArbiter` models NVMe weighted-round-robin arbitration across
QoS classes: a command takes a service slot before it touches the
media servers.  ``SSD.arbiter`` is ``None`` by default; the ``qos``
experiment installs one on each SSD it compares.

This module is on DetLint's hot-module list: every class declares
``__slots__``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Generator, Optional, Tuple

from repro.errors import InvalidArgument
from repro.io.qos import DEFAULT_WRR_WEIGHTS, QoSClass
from repro.sim.engine import Environment, Event

__all__ = ["WrrArbiter"]


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

