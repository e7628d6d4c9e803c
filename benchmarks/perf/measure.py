"""Drift-corrected host timing of workload repeats.

Host speed on a shared VM drifts within a minute, so every sample is
bracketed by the frozen reference kernel and reported as
``sample / mean(kernel before, kernel after) * REF_NOMINAL_S``.
Workloads run round-robin, so drift spreads over all of them alike.

One repeat is: ``gc.collect()``, then the workload's timed ``run``
(set-up is the host time inside ``SystemSpec.build``, and ``host_s`` is
the rest), then the kernel, then the untimed ``check``.  Consecutive
samples share the kernel between them.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set

from benchmarks.perf import refkernel
from benchmarks.perf.workloads import Outcome, Workload, digest

__all__ = ["SetupClock", "Series", "setup_clock", "reference", "timed_repeat",
           "apply_golden", "correction", "verify", "measure", "quartiles", "peak_rss_mb", "ROOT"]

#: The checkout the benchmark lives in (``benchmarks/perf`` is two levels down).
ROOT = Path(__file__).resolve().parents[2]


class SetupClock:
    """Accumulates host time spent inside ``SystemSpec.build``."""

    def __init__(self) -> None:
        self.total = 0.0


@contextmanager
def setup_clock() -> Iterator[SetupClock]:
    """Time every ``SystemSpec.build`` while the block is active."""
    from repro.systems.registry import SystemSpec

    clock = SetupClock()
    original = SystemSpec.__dict__["build"]

    def build(spec, **kwargs):
        t0 = time.perf_counter()
        try:
            return original(spec, **kwargs)
        finally:
            clock.total += time.perf_counter() - t0

    SystemSpec.build = build
    try:
        yield clock
    finally:
        SystemSpec.build = original


def reference() -> float:
    """One reference-kernel timing; raises if the kernel was edited."""
    seconds, checksum = refkernel.timed_kernel()
    if checksum != refkernel.CHECKSUM:
        raise RuntimeError(f"reference kernel checksum {checksum} != "
                           f"{refkernel.CHECKSUM}: the kernel must stay frozen")
    return seconds


def correction(before: float, after: float) -> float:
    """Factor turning a sample between two kernel timings into reference
    seconds."""
    return refkernel.REF_NOMINAL_S / ((before + after) / 2)


def timed_repeat(workload: Workload, seed: int, clock: SetupClock):
    """(host seconds, set-up seconds, state) of one uncorrected run."""
    gc.collect()
    clock.total = 0.0
    t0 = time.perf_counter()
    state = workload.run(seed)
    wall = time.perf_counter() - t0
    return wall - clock.total, clock.total, state


def apply_golden(workload: Workload, seed: int, outcome: Outcome,
                 golden: Optional[Dict[str, Any]]) -> None:
    """Fail every op when a pinned result at the default seed moved."""
    entry = (golden or {}).get(workload.name)
    if (entry is None or seed != entry["seed"]
            or entry["params"] != workload.params()):
        return
    if outcome.digest != digest(entry["result"]):
        outcome.failed = outcome.attempted
        outcome.errors.append(f"result digest {outcome.digest} != golden "
                              f"{digest(entry['result'])}")


@dataclass
class Series:
    """Every sample of one workload; corrected values in reference seconds."""

    host: List[float] = field(default_factory=list)
    setup: List[float] = field(default_factory=list)
    raw_host: List[float] = field(default_factory=list)
    refs: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digests: Set[str] = field(default_factory=set)
    errors: List[str] = field(default_factory=list)

    def note(self, outcome: Outcome) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.digests.add(outcome.digest)
        self.errors.extend(outcome.errors[:3])


def measure(workloads: Sequence[Workload], seeds: Dict[str, int], *,
            rounds: Optional[int] = None, seconds: Optional[float] = None,
            golden: Optional[Dict[str, Any]] = None) -> Dict[str, Series]:
    """Round-robin timed rounds after one untimed warm-up round.

    Runs ``rounds`` rounds, or as many as start within ``seconds`` (at
    least one).  Every repeat, warm-up included, is checked.
    """
    series = {w.name: Series() for w in workloads}
    with setup_clock() as clock:
        for w in workloads:
            state = timed_repeat(w, seeds[w.name], clock)[2]
            series[w.name].note(verify(w, seeds[w.name], state, golden))
            del state
        before = reference()
        started = time.perf_counter()
        done = 0
        while (done < rounds if rounds is not None
               else done == 0 or time.perf_counter() - started < seconds):
            for w in workloads:
                s = series[w.name]
                host, setup, state = timed_repeat(w, seeds[w.name], clock)
                after = reference()
                scale = correction(before, after)
                s.host.append(host * scale)
                s.setup.append(setup * scale)
                s.raw_host.append(host)
                s.refs.append(after)
                s.note(verify(w, seeds[w.name], state, golden))
                del state
                before = after
            done += 1
    return series


def verify(workload: Workload, seed: int, state: Any,
           golden: Optional[Dict[str, Any]]) -> Outcome:
    """The workload's invariants plus, at the default seed, the golden."""
    outcome = workload.check(state, seed)
    apply_golden(workload, seed, outcome, golden)
    return outcome


def quartiles(values: Sequence[float]):
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def peak_rss_mb(name: str, seed: int) -> float:
    """``ru_maxrss`` of a fresh child that imports and runs ``name`` once."""
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)] + env.get("PYTHONPATH", "").split(os.pathsep)
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.perf.rss", name, str(seed)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
        check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"peak-RSS child for {name} failed:\n{proc.stderr}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["peak_rss_mb"])
