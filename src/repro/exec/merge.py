"""Deterministic merge of per-unit results into one run-level view.

Every merge here is keyed by unit index and simulated time — never by
completion order, worker identity, or the wall clock — so the merged
artefacts are bit-identical for any shard count:

* **metrics** — per-unit :class:`~repro.obs.metrics.MetricsRegistry`
  snapshots fold in unit order (counters add, histograms add bucket-wise,
  gauges last-writer-wins by unit order, matching a sequential run).
* **spans** — per-unit span dicts get globally unique ids (per-unit
  offsets in index order) and a stable global ordering by
  ``(begin, unit, id)``.
* **fault timelines** — per-unit record lists merge through
  :meth:`repro.faults.timeline.FaultTimeline.merge`, which re-issues
  fault ids by injection time and annotates cross-shard blast radii.
* **event streams** — each unit's fingerprint hashes its payload, final
  clock, metrics, spans, and timeline (not its scheduled-event count,
  which is work rather than a result); the merged fingerprint chains
  them in unit order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.exec.plan import ExecutionPlan, UnitResult
from repro.faults.timeline import FaultTimeline
from repro.obs.metrics import MetricsRegistry

__all__ = ["MergedArtifacts", "merge_results", "merge_spans"]


@dataclass
class MergedArtifacts:
    """The run-level rollup of every unit's deterministic outputs."""

    fingerprint: str
    events_scheduled: int
    sim_now: float  # max over units: the fleet-wide simulated horizon
    metrics: MetricsRegistry
    spans: List[Dict[str, Any]]
    timeline: FaultTimeline
    unit_fingerprints: List[str] = field(default_factory=list)

    def summary(self) -> Dict[str, float]:
        """Flat numeric summary (metrics + fault rollup + totals)."""
        out = dict(self.metrics.flat())
        out.update(self.timeline.summary() if len(self.timeline) else {})
        out["exec.units"] = float(len(self.unit_fingerprints))
        out["exec.events_scheduled"] = float(self.events_scheduled)
        out["exec.sim_now_s"] = self.sim_now
        return out


def merge_spans(results: List[UnitResult]) -> List[Dict[str, Any]]:
    """Globally ordered span list with per-unit id offsets applied."""
    merged: List[Dict[str, Any]] = []
    offset = 0
    for result in results:
        top = 0
        for span in result.spans:
            entry = dict(span)
            top = max(top, int(entry["id"]))
            entry["id"] = int(entry["id"]) + offset
            if entry.get("parent") is not None:
                entry["parent"] = int(entry["parent"]) + offset
            entry["unit"] = result.index
            merged.append(entry)
        offset += top
    merged.sort(key=lambda s: (s["begin"], s["unit"], s["id"]))
    return merged


def merge_results(plan: ExecutionPlan, results: List[UnitResult]) -> MergedArtifacts:
    """Merge complete unit results (sorted by index) into one view."""
    results = sorted(results, key=lambda r: r.index)
    expected = [u.index for u in plan.units]
    got = [r.index for r in results]
    if got != expected:
        missing = sorted(set(expected) - set(got))
        raise ValueError(
            f"plan {plan.title!r}: incomplete results (missing units {missing})")

    metrics = MetricsRegistry()
    for result in results:
        if result.metrics:
            metrics.merge_snapshot(result.metrics)

    timeline = FaultTimeline.merge(
        [FaultTimeline.from_records(r.timeline) for r in results if r.timeline]
    )

    unit_prints = [r.fingerprint() for r in results]
    chain = hashlib.sha256()
    for print_ in unit_prints:
        chain.update(print_.encode())
    return MergedArtifacts(
        fingerprint=chain.hexdigest(),
        events_scheduled=sum(r.events_scheduled for r in results),
        sim_now=max((r.sim_now for r in results), default=0.0),
        metrics=metrics,
        spans=merge_spans(results),
        timeline=timeline,
        unit_fingerprints=unit_prints,
    )
