"""The instrumented run: per-layer host time, work counts, simulated time.

Two passes, both checked against the untraced run's result digest:

1. **Host pass.**  Untraced and traced repeats alternate (at least three
   of each), every one bracketed by the reference kernel.  Traced repeats
   run under :func:`layers.instrument` and ``repro.obs.capture(
   telemetry=True)``; counts must repeat exactly, self times are
   per-repeat medians corrected like ``host_s``.
2. **Simulated-time pass.**  One repeat under ``capture(trace=True)``,
   attributed with ``repro.obs.critical_path`` per environment.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from benchmarks.perf.layers import ENGINE, LAYERS, LayerClock, LayerSpec, instrument
from benchmarks.perf.measure import correction, reference, setup_clock, timed_repeat, verify
from benchmarks.perf.workloads import Workload

__all__ = ["TracedSeries", "measure_traced"]

_IO_CLASSES = ("journal", "ckpt_data", "recovery")


@dataclass
class TracedSeries:
    """One workload's traced samples and the checks made on them."""

    untraced: List[float] = field(default_factory=list)
    raw_untraced: List[float] = field(default_factory=list)
    traced: List[float] = field(default_factory=list)
    refs: List[float] = field(default_factory=list)
    #: layer -> corrected self seconds, one per traced repeat.
    self_s: Dict[str, List[float]] = field(default_factory=dict)
    #: layer -> self seconds over the traced repeat's whole wall time.
    frac: Dict[str, List[float]] = field(default_factory=dict)
    counts: List[Dict[str, float]] = field(default_factory=list)
    simulated: Dict[str, float] = field(default_factory=dict)
    present: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digests: Dict[str, set] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    def note(self, kind: str, outcome) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.digests.setdefault(kind, set()).add(outcome.digest)
        self.errors.extend(outcome.errors[:3])

    @property
    def counts_repeat(self) -> bool:
        return all(c == self.counts[0] for c in self.counts)

    @property
    def digests_agree(self) -> bool:
        return len(set().union(*self.digests.values())) == 1

    def metrics(self, layers: Sequence[LayerSpec] = LAYERS) -> Dict[str, float]:
        """Every per-layer metric, medians over the traced repeats."""
        out: Dict[str, float] = dict(self.counts[0]) if self.counts else {}
        untraced = statistics.median(self.untraced)
        for spec in layers:
            if spec.name not in self.present:
                continue
            host = statistics.median(self.self_s[spec.name])
            if spec.name == ENGINE:
                out[f"{ENGINE}.host_residual_s"] = host
            else:
                out[f"{spec.name}.host_s"] = host
            out[f"{spec.name}.host_frac"] = statistics.median(self.frac[spec.name])
        if ENGINE in self.present:
            out[f"{ENGINE}.events_per_host_s"] = out[f"{ENGINE}.events"] / untraced
        flows = out.get("sim.fairshare.flows", 0)
        if "sim.fairshare.recomputes" in out:
            out["sim.fairshare.recomputes_per_flow"] = (
                out["sim.fairshare.recomputes"] / flows if flows else 0.0)
        calls = out.get("core.interception.calls", 0)
        if "core.interception.host_s" in out:
            out["core.interception.host_s_per_call"] = (
                out["core.interception.host_s"] / calls if calls else 0.0)
        out.update(self.simulated)
        out["trace.overhead_frac"] = statistics.median(self.traced) / untraced - 1
        out["ref_s"] = statistics.median(self.refs)
        out["raw.wall_s"] = statistics.median(self.raw_untraced)
        return out


def _counts(clock: LayerClock, contexts: List[Any], present: List[str]) -> Dict[str, float]:
    """Exact work counts of one traced repeat."""
    from repro.obs import MetricsRegistry

    merged = MetricsRegistry()
    for ctx in contexts:
        merged.merge(ctx.metrics)

    def counter(name: str) -> int:
        return int(merged.get(name).value) if name in merged else 0

    def calls(layer: str, *methods: str) -> int:
        return sum(clock.calls[(layer, m)] for m in methods)

    out: Dict[str, float] = {}
    if ENGINE in present:
        out[f"{ENGINE}.events"] = sum(c.env.events_scheduled for c in contexts)
        out[f"{ENGINE}.resumes"] = sum(c.env.telemetry.resumes for c in contexts)
    if "sim.fairshare" in present:
        out["sim.fairshare.flows"] = sum(
            c.env.telemetry.fairshare_flows for c in contexts)
        out["sim.fairshare.recomputes"] = sum(
            c.env.telemetry.fairshare_recomputes for c in contexts)
    if "core.microfs" in present:
        out["core.microfs.calls"] = clock.entries["core.microfs"]
        out["core.microfs.blocks_used"] = sum(
            fs.pool.used_blocks for fs in clock.instances["core.microfs"])
    if "core.data_plane" in present:
        out["core.data_plane.submits"] = calls("core.data_plane", "submit")
        for qos in _IO_CLASSES:
            name = f"io.{qos}.latency_s"
            out[f"io.{qos}.p99_ms"] = (
                merged.get(name).percentile(0.99) * 1e3 if name in merged else 0.0)
    if "fabric.nvmf" in present:
        out["fabric.nvmf.ios"] = calls("fabric.nvmf", "write", "read",
                                       "write_batch", "flush")
        out["nvmf.commands"] = counter("nvmf.commands")
    if "nvme.device" in present:
        out["nvme.device.ios"] = calls("nvme.device", "write", "read", "flush",
                                       "tier_write", "tier_read", "tier_sync")
    if "mpi" in present:
        out["mpi.collectives"] = calls("mpi", "barrier", "allgather", "gather",
                                       "bcast", "split")
    if "core.interception" in present:
        out["core.interception.calls"] = clock.entries["core.interception"]
    if "consensus" in present:
        out["consensus.append_entries"] = counter("consensus.append_entries")
        out["consensus.heartbeats"] = counter("consensus.heartbeats")
    return out


def _critical_path(contexts: List[Any]) -> Dict[str, float]:
    """Per-layer critical-path self time, summed over environments."""
    from repro.obs import critical_path, spans_of

    out: Dict[str, float] = {"critpath.makespan_ms": 0.0}
    for ctx in contexts:
        cp = critical_path(spans_of([ctx]))
        out["critpath.makespan_ms"] += cp.makespan * 1e3
        for layer in cp.ordered_layers():
            key = f"critpath.{layer.layer}.self_ms"
            out[key] = out.get(key, 0.0) + layer.self_s * 1e3
    return out


def measure_traced(workloads: Sequence[Workload], seeds: Dict[str, int], *,
                   rounds: int = 3, seconds: Optional[float] = None,
                   golden: Optional[Dict[str, Any]] = None,
                   layers: Sequence[LayerSpec] = LAYERS) -> Dict[str, TracedSeries]:
    """At least ``rounds`` untraced/traced pairs per workload (more while
    ``seconds`` lasts), then the simulated-time pass."""
    from repro.obs import capture

    series = {w.name: TracedSeries() for w in workloads}
    with setup_clock() as clock:
        for w in workloads:
            state = timed_repeat(w, seeds[w.name], clock)[2]
            series[w.name].note("untraced", verify(w, seeds[w.name], state, golden))
            del state
        before = reference()
        started = time.perf_counter()
        done = 0
        while done < rounds or (seconds is not None
                                and time.perf_counter() - started < seconds):
            for w in workloads:
                s = series[w.name]
                seed = seeds[w.name]
                host, _setup, state = timed_repeat(w, seed, clock)
                after = reference()
                s.untraced.append(host * correction(before, after))
                s.raw_untraced.append(host)
                s.refs.append(after)
                s.note("untraced", verify(w, seed, state, golden))
                del state
                before = after

                lc = LayerClock()
                with instrument(lc, tuple(layers)) as present, \
                        capture(telemetry=True) as session:
                    host, setup, state = timed_repeat(w, seed, clock)
                after = reference()
                scale = correction(before, after)
                s.present = present
                s.traced.append(host * scale)
                for layer in present:
                    s.self_s.setdefault(layer, []).append(lc.self_s[layer] * scale)
                    s.frac.setdefault(layer, []).append(
                        lc.self_s[layer] / (host + setup))
                s.counts.append(_counts(lc, session.contexts, present))
                s.refs.append(after)
                s.note("traced", verify(w, seed, state, golden))
                del state, lc, session
                before = after
            done += 1
        for w in workloads:
            with capture(trace=True) as session:
                state = w.run(seeds[w.name])
            s = series[w.name]
            s.note("simulated", verify(w, seeds[w.name], state, golden))
            s.simulated = _critical_path(session.contexts)
            del state, session
    return series
