"""Per-run observability context and the CLI capture session.

One :class:`ObsContext` per :class:`~repro.sim.engine.Environment`,
stored on ``env.obs`` and on the system registry's ``SystemHandle`` so
every backend built through :mod:`repro.systems` is observable with no
experiment changes.

:func:`capture` opens a process-wide session: every context attached
while it is active inherits the session's tracing/profiling switches and
registers itself, so a CLI run that builds several environments (e.g.
fig8a builds three fleets) exports them all into one trace file, one
Perfetto process row per environment.
"""

from __future__ import annotations

import time as _time
from contextlib import contextmanager
from typing import Dict, List, Optional

from repro.obs.metrics import CounterInstrument, MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = ["ObsContext", "SelfProfile", "Capture", "attach", "capture",
           "current_session", "tracer_of"]


class SelfProfile:
    """Wall-clock self-profiling of the *simulator* (host time).

    This is the one place wall-clock time is allowed: it measures how
    long the Python event loop spends executing each event class, so hot
    paths of the simulator itself can be found.  It never feeds into
    spans, metrics, or anything else that must be deterministic.

    Attached by :meth:`ObsContext.enable_profile` as an engine observer:
    the host time between two consecutive ``note_event`` calls (or
    between the last one and ``end_loop``) is charged to the class of
    the earlier event, and ``steps`` (the ``sim.events`` counter) counts
    dispatched events.
    """

    def __init__(self) -> None:
        self.wall_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        #: The ``sim.events`` counter; bound before the profile is attached.
        self.steps: Optional[CounterInstrument] = None
        self._open: Optional[str] = None  # class of the event being timed
        self._t0 = 0.0

    def note_event(self, time: float, seq: int, event) -> None:
        now = _time.perf_counter()
        if self._open is not None:
            self.add(self._open, now - self._t0)
        self._open = type(event).__name__
        self._t0 = now
        self.steps.add(1)

    def end_loop(self) -> None:
        if self._open is not None:
            self.add(self._open, _time.perf_counter() - self._t0)
            self._open = None

    def add(self, key: str, wall: float, count: int = 1) -> None:
        self.wall_s[key] = self.wall_s.get(key, 0.0) + wall
        self.calls[key] = self.calls.get(key, 0) + count

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        return {k: {"wall_s": self.wall_s[k], "calls": self.calls[k]}
                for k in sorted(self.wall_s)}


class ObsContext:
    """Tracer + metrics registry + self-profile for one environment."""

    def __init__(self, env, label: str = "run", tracing: bool = False,
                 profile: bool = False, telemetry: bool = False):
        self.env = env
        self.label = label
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(env) if tracing else NULL_TRACER
        self.selfprof = SelfProfile()
        if profile:
            self.enable_profile()
        if telemetry:
            self.enable_telemetry()

    @property
    def tracing(self) -> bool:
        return self.tracer.enabled

    def enable_tracing(self) -> Tracer:
        if not self.tracer.enabled:
            self.tracer = Tracer(self.env)
        return self.tracer

    def enable_profile(self) -> SelfProfile:
        """Attach wall-clock self-profiling of the event loop (idempotent)."""
        self.selfprof.steps = self.metrics.counter("sim.events")
        self.env.observe(self.selfprof)
        return self.selfprof

    def enable_telemetry(self):
        """Attach deterministic engine self-telemetry (idempotent)."""
        if self.env.telemetry is None:
            from repro.sim.engine import EngineTelemetry

            self.env.telemetry = EngineTelemetry()
            self.env.observe(self.env.telemetry)
        return self.env.telemetry

    def publish_telemetry(self) -> None:
        """Fold engine counters into the registry (idempotent, no-op
        when telemetry was never attached)."""
        telemetry = getattr(self.env, "telemetry", None)
        if telemetry is not None:
            telemetry.publish(self.metrics, self.env)

    def flat_extra(self) -> Dict[str, float]:
        """Flat metric summaries for ``RunResult.extra``."""
        self.publish_telemetry()
        return self.metrics.flat()


# ---------------------------------------------------------------------------
# module-level session

_SESSION: Optional["Capture"] = None


class Capture:
    """Collects every ObsContext attached while the session is active."""

    def __init__(self, trace: bool = False, profile: bool = False,
                 telemetry: bool = False):
        self.trace = trace
        self.profile = profile
        self.telemetry = telemetry
        self.contexts: List[ObsContext] = []
        self.started_wall = _time.perf_counter()

    def register(self, ctx: ObsContext) -> None:
        self.contexts.append(ctx)

    # Export helpers delegate to repro.obs.export (imported lazily to
    # keep context -> export -> context import cycles out).
    def write_chrome(self, path: str) -> str:
        from repro.obs.export import write_chrome_trace

        return write_chrome_trace(self.contexts, path)

    def write_jsonl(self, path: str) -> str:
        from repro.obs.export import write_jsonl

        return write_jsonl(self.contexts, path)

    def report(self) -> str:
        from repro.obs.export import summary_text

        return summary_text(self.contexts,
                            wall_s=_time.perf_counter() - self.started_wall)

    def n_spans(self) -> int:
        return sum(len(c.tracer.spans) + len(c.tracer.instants)
                   for c in self.contexts)


@contextmanager
def capture(trace: bool = False, profile: bool = False,
            telemetry: bool = False):
    """Session scope: contexts attached inside inherit these switches."""
    global _SESSION
    prev = _SESSION
    session = Capture(trace=trace, profile=profile, telemetry=telemetry)
    _SESSION = session
    try:
        yield session
    finally:
        _SESSION = prev
        for ctx in session.contexts:
            if ctx.tracer.enabled:
                ctx.tracer.close_open_spans()
            ctx.publish_telemetry()


def current_session() -> Optional["Capture"]:
    """The active :func:`capture` session, if any.

    The execution layer (:mod:`repro.exec`) opens a nested capture per
    unit to harvest that unit's contexts, then re-registers them here so
    a CLI-level ``--trace``/``--metrics`` session still sees every
    environment the plan built.
    """
    return _SESSION


def attach(env, label: str = "run", tracing: Optional[bool] = None,
           profile: Optional[bool] = None,
           telemetry: Optional[bool] = None) -> ObsContext:
    """Get or create the ObsContext for ``env`` (idempotent).

    Inside a :func:`capture` session the session's switches apply and
    the context is registered for export; explicit keyword arguments
    win over the session defaults.
    """
    ctx = getattr(env, "obs", None)
    if ctx is None:
        session = _SESSION
        want_trace = tracing if tracing is not None else (
            session.trace if session is not None else False)
        want_profile = profile if profile is not None else (
            session.profile if session is not None else False)
        want_telemetry = telemetry if telemetry is not None else (
            session.telemetry if session is not None else False)
        ctx = ObsContext(env, label=label, tracing=want_trace,
                         profile=want_profile, telemetry=want_telemetry)
        env.obs = ctx
        if session is not None:
            session.register(ctx)
    else:
        if tracing:
            ctx.enable_tracing()
        if profile:
            ctx.enable_profile()
        if telemetry:
            ctx.enable_telemetry()
    return ctx


def tracer_of(env) -> Optional[Tracer]:
    """The enabled tracer for ``env``, or None — the hot-path guard.

    Cost when observability is off: one attribute read and one None
    test.  Callers must guard with ``if tr is not None`` before creating
    spans, so the disabled path allocates nothing.
    """
    ctx = getattr(env, "obs", None)
    if ctx is None:
        return None
    tr = ctx.tracer
    return tr if tr.enabled else None
