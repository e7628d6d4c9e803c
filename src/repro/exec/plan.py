"""Execution plans: picklable unit specs and their results.

A :class:`SimUnit` names a top-level function by import path plus the
keyword arguments to call it with — both must be picklable so the unit
can be shipped to a worker process unchanged.  The function builds its
own :class:`~repro.sim.engine.Environment` (usually through
:mod:`repro.systems`) with explicit seeds and returns a picklable
payload; everything else a unit produced (metrics, spans, fault
records, event counts) is harvested by the run harness from the
observability contexts it attached.

:class:`UnitResult.fingerprint` hashes every deterministic result
field — the bit-identity check "1 shard == N shards" compares merged
fingerprints, so anything nondeterministic (which shard ran the unit,
wall time) is deliberately excluded, and so is the scheduled-event
count, which measures the engine's work rather than the result.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from importlib import import_module
from typing import Any, Callable, Dict, List, Optional

__all__ = ["SimUnit", "UnitResult", "ExecutionPlan", "ExecutionResult",
           "resolve_unit_fn"]


@dataclass(frozen=True)
class SimUnit:
    """One independent simulation: an importable function plus kwargs."""

    index: int
    label: str
    fn: str  # "package.module:function" — importable from any process
    params: Dict[str, Any] = field(default_factory=dict)
    #: Deterministic cost estimate used for shard load balancing only;
    #: it never affects results, merely which worker runs the unit.
    weight: float = 1.0

    def __post_init__(self) -> None:
        if ":" not in self.fn:
            raise ValueError(
                f"unit fn must be 'module:function', got {self.fn!r}")


def resolve_unit_fn(spec: str) -> Callable[..., Any]:
    """Import ``package.module:function`` and return the callable."""
    module_name, _, attr = spec.partition(":")
    fn = getattr(import_module(module_name), attr, None)
    if fn is None or not callable(fn):
        raise ValueError(f"unit fn {spec!r} does not resolve to a callable")
    return fn


@dataclass
class UnitResult:
    """Everything one unit produced, in picklable form."""

    index: int
    label: str
    payload: Any
    sim_now: float = 0.0
    #: Events the unit's engine pushed: work, not a result, so it is
    #: excluded from the fingerprint.
    events_scheduled: int = 0
    metrics: Dict[str, Any] = field(default_factory=dict)  # registry snapshot
    spans: List[Dict[str, Any]] = field(default_factory=list)
    timeline: List[Dict[str, Any]] = field(default_factory=list)
    #: Which shard ran the unit and how long it took on the host —
    #: diagnostics only, excluded from the fingerprint.
    shard: int = 0
    wall_s: float = 0.0

    def fingerprint(self) -> str:
        """SHA-256 over the canonical JSON of the deterministic fields."""
        body = json.dumps(
            {
                "index": self.index,
                "label": self.label,
                "payload": self.payload,
                "sim_now": self.sim_now,
                "metrics": self.metrics,
                "spans": self.spans,
                "timeline": self.timeline,
            },
            sort_keys=True,
            separators=(",", ":"),
            default=repr,
        )
        return hashlib.sha256(body.encode()).hexdigest()


@dataclass
class ExecutionPlan:
    """An ordered set of independent units plus the reduce step.

    ``reduce(results)`` receives the :class:`UnitResult` list sorted by
    unit index (complete — executors fail loudly rather than drop
    units) and builds the experiment's artefact, usually a
    :class:`~repro.bench.harness.ResultTable`.
    """

    title: str
    units: List[SimUnit]
    reduce: Callable[[List["UnitResult"]], Any]

    def __post_init__(self) -> None:
        indices = [u.index for u in self.units]
        if indices != list(range(len(self.units))):
            raise ValueError(
                f"plan {self.title!r}: unit indices must be 0..n-1 in order, "
                f"got {indices}")


@dataclass
class ExecutionResult:
    """What an executor returns: the reduced value plus merge artefacts."""

    value: Any  # the reduce() output (usually a ResultTable)
    results: List[UnitResult]
    merged: Any  # exec.merge.MergedArtifacts
    shards: int = 1
    backend: str = "in-process"
    wall_s: float = 0.0
    shard_wall_s: Optional[List[float]] = None

    @property
    def fingerprint(self) -> str:
        """The merged deterministic fingerprint (bit-identity check)."""
        return self.merged.fingerprint
