"""Runtime sanitizers: determinism, sim-time races, and leaks.

Three checkers run behind ``repro run <exp> --sanitize``:

* **Determinism sanitizer** — the experiment runs twice with identical
  seeds while every monitored :class:`~repro.sim.engine.Environment`
  hashes its processed-event stream *per layer* (the layer of an event
  is the source file of the coroutine it resumes). Any divergence is
  localized to the first differing event of the first differing layer —
  "run 2 diverged at event 1417 in repro.core.microfs.fs" instead of
  "the figure changed".

* **Sim-time race detector** — two events at the *same* simulated
  timestamp mutating the *same* shared object are ordered only by heap
  insertion sequence. That is deterministic for a fixed schedule, but
  brittle: any reordering of insertions (a refactor, a new event) can
  legally flip the outcome. Objects therefore declare their tie-break
  discipline with a ``_san_tiebreak`` class attribute (``"fifo"`` for
  the queue-ordered primitives in ``repro.sim.resources`` and
  ``repro.nvme.queues``); a same-timestamp multi-actor mutation group on
  an object with *no* declared discipline is reported as a race.

* **Leak sanitizer** — at run end, every monitored object is asked
  whether it still holds simulation state that should have drained:
  Resource slots held or waiters stranded, arbiter queues never
  granted, DataPlane IOs still in flight, and NVMe namespaces created
  mid-run but never deleted.

The monitor is attached by :func:`attach_if_active` from the system
registry (mirroring ``repro.obs``), records by pure bookkeeping — it
never creates events or touches the clock — so a monitored run is
bit-identical to an unmonitored one (pinned by
``tests/analysis/test_sanitize_baseline.py``).
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Set, Tuple

__all__ = [
    "Monitor",
    "SanitizeSession",
    "SanitizeReport",
    "Finding",
    "session",
    "attach_if_active",
    "note_mutation",
    "sanitized_run",
]


class Finding:
    """One sanitizer finding (leak, race, or divergence)."""

    __slots__ = ("sanitizer", "subject", "message")

    def __init__(self, sanitizer: str, subject: str, message: str) -> None:
        self.sanitizer = sanitizer
        self.subject = subject
        self.message = message

    def render(self) -> str:
        return f"[{self.sanitizer}] {self.subject}: {self.message}"

    def __repr__(self) -> str:
        return f"Finding({self.render()!r})"


def _layer_of(callbacks: Optional[List[Callable[..., Any]]]) -> str:
    """The model layer an event belongs to: the file of the coroutine it
    resumes (or of the raw callback), shortened to a repo-relative name."""
    if callbacks:
        cb = callbacks[0]
        bound_self = getattr(cb, "__self__", None)
        generator = getattr(bound_self, "_generator", None)
        code = getattr(generator, "gi_code", None)
        if code is None:
            code = getattr(cb, "__code__", None)
        if code is not None:
            return _shorten(code.co_filename)
    return "<engine>"


def _shorten(filename: str) -> str:
    norm = filename.replace("\\", "/")
    for anchor in ("/repro/", "/tests/"):
        at = norm.rfind(anchor)
        if at >= 0:
            return norm[at + 1 :]
    return norm.rsplit("/", 1)[-1]


class _LayerStream:
    """Running hash + full record list for one layer's event stream.

    ``positions`` keeps each record's *global* event index so divergences
    in different layers can be ordered by when they actually happened.
    """

    __slots__ = ("records", "positions", "_hash")

    def __init__(self) -> None:
        self.records: List[str] = []
        self.positions: List[int] = []
        self._hash = hashlib.sha256()

    def add(self, record: str, position: int) -> None:
        self.records.append(record)
        self.positions.append(position)
        self._hash.update(record.encode())
        self._hash.update(b"\n")

    def digest(self) -> str:
        return self._hash.hexdigest()


class _TrackedObject:
    """Per-object bookkeeping for the race detector / leak sanitizer."""

    __slots__ = ("obj", "label", "tiebreak", "group_time", "group_actors", "ops")

    def __init__(self, obj: Any, label: str, tiebreak: Optional[str]) -> None:
        self.obj = obj
        self.label = label
        self.tiebreak = tiebreak
        self.group_time: Optional[float] = None
        self.group_actors: List[int] = []
        self.ops: List[str] = []


class Monitor:
    """Sanitizer state for one Environment. Pure bookkeeping: attaching a
    monitor must not change the event timeline by a single event."""

    __slots__ = (
        "label",
        "events",
        "layers",
        "_current_actor",
        "_now",
        "_tracked",
        "_track_order",
        "races",
        "io_begun",
        "io_done",
        "io_outstanding",
        "ns_created",
        "finished",
        "candidates",
    )

    def __init__(
        self,
        label: str = "run",
        candidates: Optional[Mapping[str, Set[str]]] = None,
    ) -> None:
        self.label = label
        #: class qualname -> attrs statically flagged by repro.flow FLOW103;
        #: races on these classes are annotated as predicted.
        self.candidates: Mapping[str, Set[str]] = candidates or {}
        self.events = 0
        self.layers: Dict[str, _LayerStream] = {}
        self._current_actor = -1  # heap seq of the event being processed
        self._now = float("-inf")
        self._tracked: Dict[int, _TrackedObject] = {}
        self._track_order = 0
        self.races: List[Finding] = []
        self.io_begun = 0
        self.io_done = 0
        self.io_outstanding: Dict[int, str] = {}
        self.ns_created: Dict[int, Tuple[Any, Any]] = {}  # id -> (ssd, ns)
        self.finished = False

    # -- engine hook --------------------------------------------------------

    def note_event(self, time: float, seq: int, event: Any) -> None:
        """Called by the engine right after popping, before callbacks."""
        if time > self._now:
            self._close_groups()
            self._now = time
        self._current_actor = seq
        layer = _layer_of(event.callbacks)
        stream = self.layers.get(layer)
        if stream is None:
            stream = self.layers[layer] = _LayerStream()
        stream.add(f"{time!r}|{seq}|{type(event).__name__}", self.events)
        self.events += 1

    def end_loop(self) -> None:
        """Race groups close on the next timestamp or in :meth:`finish`."""

    # -- race detector ------------------------------------------------------

    def note_mutation(self, obj: Any, op: str) -> None:
        """A shared object was mutated by the currently-running event."""
        key = id(obj)
        entry = self._tracked.get(key)
        if entry is None:
            label = (
                f"{type(obj).__module__}.{type(obj).__name__}"
                f"#{self._track_order}"
            )
            self._track_order += 1
            entry = self._tracked[key] = _TrackedObject(
                obj, label, getattr(type(obj), "_san_tiebreak", None)
            )
        # Exactness is the point: a "group" is mutations at the literal
        # same heap timestamp.
        if entry.group_time is None or entry.group_time != self._now:  # detlint: ignore[DET003]
            self._close_group(entry)
            entry.group_time = self._now
        entry.group_actors.append(self._current_actor)
        entry.ops.append(op)

    def _close_group(self, entry: _TrackedObject) -> None:
        if entry.tiebreak is None and len(set(entry.group_actors)) > 1:
            message = (
                f"{len(entry.group_actors)} same-timestamp mutations "
                f"({', '.join(entry.ops)}) at t="
                f"{entry.group_time!r} from "
                f"{len(set(entry.group_actors))} actors with no "
                "declared tie-break (_san_tiebreak)"
            )
            predicted = self.candidates.get(entry.label.rsplit("#", 1)[0])
            if predicted:
                message += (
                    " [predicted by repro.flow FLOW103: "
                    f"{', '.join(sorted(predicted))}]"
                )
            self.races.append(Finding("race", entry.label, message))
        entry.group_time = None
        entry.group_actors = []
        entry.ops = []

    def _close_groups(self) -> None:
        for entry in self._tracked.values():
            if entry.group_actors:
                self._close_group(entry)

    # -- leak hooks ---------------------------------------------------------

    def note_io_begin(self, name: str) -> int:
        """A data-plane IO named ``name`` started; returns its ticket."""
        self.io_begun += 1
        self.io_outstanding[self.io_begun] = name
        return self.io_begun

    def note_io_end(self, ticket: int) -> None:
        self.io_done += 1
        self.io_outstanding.pop(ticket, None)

    def note_namespace(self, ssd: Any, ns: Any, created: bool) -> None:
        if created:
            self.ns_created[id(ns)] = (ssd, ns)
        else:
            self.ns_created.pop(id(ns), None)

    # -- finish -------------------------------------------------------------

    def finish(self) -> List[Finding]:
        """Close open race groups and sweep tracked objects for leaks."""
        if self.finished:
            return []
        self.finished = True
        self._close_groups()
        findings = list(self.races)
        for entry in self._ordered_tracked():
            findings.extend(self._leaks_of(entry))
        for span_name in sorted(self.io_outstanding.values()):
            findings.append(
                Finding(
                    "leak",
                    f"DataPlane.submit({span_name})",
                    "submitted to the DataPlane but never completed",
                )
            )
        for ssd, ns in self.ns_created.values():
            findings.append(
                Finding(
                    "leak",
                    f"{getattr(ssd, 'name', 'ssd')}/ns{getattr(ns, 'nsid', '?')}",
                    "namespace created during the run but never deleted",
                )
            )
        return findings

    def _ordered_tracked(self) -> List[_TrackedObject]:
        return sorted(self._tracked.values(), key=lambda e: e.label)

    def _leaks_of(self, entry: _TrackedObject) -> Iterator[Finding]:
        obj = entry.obj
        # Duck-typed sweeps: each primitive knows how to look drained.
        in_service = getattr(obj, "in_service", None)
        queue_length = getattr(obj, "queue_length", None)
        if isinstance(in_service, int) and in_service > 0:
            yield Finding(
                "leak", entry.label,
                f"{in_service} slot(s) still held at run end "
                "(request() without release())",
            )
        if isinstance(queue_length, int) and queue_length > 0:
            yield Finding(
                "leak", entry.label,
                f"{queue_length} waiter(s) still queued at run end",
            )
        waiting = getattr(obj, "_waiting", None)
        if callable(waiting):  # WrrArbiter
            stranded = waiting()
            if stranded:
                yield Finding(
                    "leak", entry.label,
                    f"{stranded} admission waiter(s) never granted",
                )

    # -- determinism --------------------------------------------------------

    def digests(self) -> Dict[str, str]:
        return {layer: stream.digest() for layer, stream in self.layers.items()}


def first_divergence(
    a: Monitor, b: Monitor
) -> Optional[Tuple[str, int, Optional[str], Optional[str]]]:
    """Locate the first differing event between two monitored runs.

    Returns ``(layer, index, record_run1, record_run2)`` — the earliest
    mismatch (by index, then layer name) across all diverging layers —
    or ``None`` when the runs hashed identically.
    """
    if a.digests() == b.digests():
        return None
    best = None  # (global_pos, layer, at, got_a, got_b)
    for layer in sorted(set(a.layers) | set(b.layers)):
        sa, sb = a.layers.get(layer), b.layers.get(layer)
        ra = sa.records if sa is not None else []
        rb = sb.records if sb is not None else []
        if ra == rb:
            continue
        at = next(
            (i for i, (x, y) in enumerate(zip(ra, rb)) if x != y),
            min(len(ra), len(rb)),
        )
        got_a = ra[at] if at < len(ra) else None
        got_b = rb[at] if at < len(rb) else None
        # Order candidate divergences by when they happened in the run,
        # not by their index inside the layer: the earliest *global*
        # event position (across both runs) wins.
        positions = [
            s.positions[at]
            for s, r in ((sa, ra), (sb, rb))
            if s is not None and at < len(r)
        ]
        global_pos = min(positions) if positions else 0
        if best is None or (global_pos, layer) < (best[0], best[1]):
            best = (global_pos, layer, at, got_a, got_b)
    if best is None:  # pragma: no cover - digests differed but records agree
        return None
    _pos, layer, at, got_a, got_b = best
    return layer, at, got_a, got_b


# ---------------------------------------------------------------------------
# module-level session (mirrors repro.obs.capture)

_SESSION: Optional["SanitizeSession"] = None


class SanitizeSession:
    """Collects one Monitor per Environment attached while active."""

    def __init__(
        self,
        label: str = "sanitize",
        candidates: Optional[Mapping[str, Set[str]]] = None,
    ) -> None:
        self.label = label
        self.monitors: List[Monitor] = []
        self.candidates = candidates

    def attach(self, env: Any, label: str = "run") -> Monitor:
        monitor = Monitor(
            label=f"{label}#{len(self.monitors)}", candidates=self.candidates
        )
        env.monitor = monitor
        env.observe(monitor)
        self.monitors.append(monitor)
        return monitor

    def finish(self) -> List[Finding]:
        findings: List[Finding] = []
        for monitor in self.monitors:
            findings.extend(monitor.finish())
        return findings


@contextmanager
def session(
    label: str = "sanitize",
    candidates: Optional[Mapping[str, Set[str]]] = None,
) -> Iterator[SanitizeSession]:
    """Scope inside which registry-built systems get monitors attached."""
    global _SESSION
    prev = _SESSION
    current = SanitizeSession(label, candidates=candidates)
    _SESSION = current
    try:
        yield current
    finally:
        _SESSION = prev


def attach_if_active(env: Any, label: str = "run") -> None:
    """Registry hook: monitor ``env`` when a sanitize session is open."""
    if _SESSION is not None and getattr(env, "monitor", None) is None:
        _SESSION.attach(env, label)


def note_mutation(env: Any, obj: Any, op: str) -> None:
    """Public hook for model code: record a shared-object mutation."""
    monitor = getattr(env, "monitor", None)
    if monitor is not None:
        monitor.note_mutation(obj, op)


# ---------------------------------------------------------------------------
# the drive-twice harness


class SanitizeReport:
    """Combined verdict of the three sanitizers over a double run."""

    def __init__(
        self,
        run1: SanitizeSession,
        run2: SanitizeSession,
        leak_findings: List[Finding],
        race_findings: List[Finding],
    ):
        self.run1 = run1
        self.run2 = run2
        self.leaks = leak_findings
        self.races = race_findings
        self.divergences: List[Finding] = []
        if len(run1.monitors) != len(run2.monitors):
            self.divergences.append(
                Finding(
                    "determinism", "<session>",
                    f"run 1 built {len(run1.monitors)} environments, "
                    f"run 2 built {len(run2.monitors)}",
                )
            )
        for m1, m2 in zip(run1.monitors, run2.monitors):
            where = first_divergence(m1, m2)
            if where is None:
                if m1.events != m2.events:  # hash collision safety net
                    self.divergences.append(
                        Finding(
                            "determinism", m1.label,
                            f"event counts differ: {m1.events} vs {m2.events}",
                        )
                    )
                continue
            layer, index, got1, got2 = where
            self.divergences.append(
                Finding(
                    "determinism", m1.label,
                    f"first divergence in layer {layer} at event {index}: "
                    f"run1={got1 or '<absent>'} run2={got2 or '<absent>'}",
                )
            )

    @property
    def ok(self) -> bool:
        return not (self.divergences or self.leaks or self.races)

    @property
    def findings(self) -> List[Finding]:
        return [*self.divergences, *self.races, *self.leaks]

    def render(self) -> str:
        n_envs = len(self.run1.monitors)
        n_events = sum(m.events for m in self.run1.monitors)
        lines = [
            "== repro.analysis sanitize report ==",
            f"  environments monitored : {n_envs}",
            f"  events hashed (run 1)  : {n_events}",
            f"  determinism            : "
            + ("OK (both runs bit-identical)" if not self.divergences
               else f"FAIL ({len(self.divergences)})"),
            f"  sim-time races         : "
            + ("OK" if not self.races else f"FAIL ({len(self.races)})"),
            f"  leaks at run end       : "
            + ("OK" if not self.leaks else f"FAIL ({len(self.leaks)})"),
        ]
        for finding in self.findings:
            lines.append("  " + finding.render())
        return "\n".join(lines)


def sanitized_run(
    fn: Callable[[], Any],
    candidates: Optional[Mapping[str, Set[str]]] = None,
) -> Tuple[Any, SanitizeReport]:
    """Run ``fn`` twice under monitors; return (first result, report).

    ``fn`` must be self-seeding (every experiment in ``repro.bench`` is):
    the determinism sanitizer asserts the two runs schedule identical
    event streams, so any wall-clock or global-RNG dependence shows up
    as a localized divergence.

    ``candidates`` is the FLOW103 handoff from ``repro flow
    --candidates-out``: races on statically flagged classes are annotated
    as predicted, closing the static→runtime loop.
    """
    with session("run1", candidates=candidates) as run1:
        result = fn()
    findings1 = run1.finish()
    with session("run2", candidates=candidates) as run2:
        fn()
    run2.finish()
    leaks = [f for f in findings1 if f.sanitizer == "leak"]
    races = [f for f in findings1 if f.sanitizer == "race"]
    return result, SanitizeReport(run1, run2, leaks, races)
