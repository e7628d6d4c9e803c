"""The plan executor: one shard in this process, or worker processes.

This module is the one place the reproduction touches process-level
machinery (``multiprocessing``, ``os.getpid``, wall-clock timing for
shard diagnostics).  DetLint allowlists exactly this file for DET001
(wall clock) and DET008 (process identity): worker wall times and pids
are diagnostics that never feed simulated time or any fingerprinted
field, so determinism is preserved by construction — the merge layer is
keyed by unit index alone.

Shard assignment is deterministic longest-processing-time: units sort
by declared ``weight`` (descending, index tiebreak) and greedily land on
the least-loaded shard.  Assignment affects only *where* a unit runs,
never its result, so rebalancing is always safe.
"""

from __future__ import annotations

import os
import time
import traceback
from typing import Any, List, Optional, Sequence, Tuple

from repro.exec.merge import merge_results
from repro.exec.plan import (
    ExecutionPlan,
    ExecutionResult,
    SimUnit,
    UnitResult,
    resolve_unit_fn,
)

__all__ = ["ExecutionError", "Executor", "assign_units", "run_unit"]


class ExecutionError(RuntimeError):
    """A unit or worker shard failed; carries the worker traceback."""


def run_unit(unit: SimUnit, shard: int = 0) -> UnitResult:
    """Run one unit in this process and harvest its observability.

    The unit function executes inside a nested ``obs.capture`` session
    with the outer session's switches, so every environment it builds
    through :mod:`repro.systems` is collected: metrics snapshots, spans,
    event counts, and the final simulated clock all land on the
    :class:`UnitResult`.  Contexts are re-registered with any outer
    session afterwards, keeping CLI-level ``--metrics``/``--trace``
    working through the plan path.
    """
    from repro import obs
    from repro.obs.context import current_session

    fn = resolve_unit_fn(unit.fn)
    session = current_session()
    t0 = time.perf_counter()
    with obs.capture(*_switches(session)) as cap:
        payload = fn(**unit.params)
    wall = time.perf_counter() - t0

    timeline: List[dict] = []
    if isinstance(payload, dict) and "_timeline" in payload:
        timeline = payload.pop("_timeline") or []

    contexts = cap.contexts
    from repro.obs.metrics import MetricsRegistry

    metrics = MetricsRegistry()
    for ctx in contexts:
        metrics.merge(ctx.metrics)
    spans: List[dict] = []
    for ctx in contexts:
        if ctx.tracer.enabled:
            spans.extend(s.to_dict() for s in ctx.tracer.spans)
            spans.extend(s.to_dict() for s in ctx.tracer.instants)

    if session is not None:
        for ctx in contexts:
            session.register(ctx)

    return UnitResult(
        index=unit.index,
        label=unit.label,
        payload=payload,
        sim_now=max((ctx.env.now for ctx in contexts), default=0.0),
        events_scheduled=sum(ctx.env.events_scheduled for ctx in contexts),
        metrics=metrics.to_snapshot(),
        spans=spans,
        timeline=timeline,
        shard=shard,
        wall_s=wall,
    )


def _switches(session: Any) -> Tuple[bool, bool, bool]:
    """``(trace, profile, telemetry)`` of a capture session; all off
    outside one."""
    if session is None:
        return (False, False, False)
    return (session.trace, session.profile, session.telemetry)


def assign_units(units: Sequence[SimUnit], shards: int) -> List[List[SimUnit]]:
    """Deterministic LPT partition: heaviest first onto the lightest shard."""
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    buckets: List[List[SimUnit]] = [[] for _ in range(shards)]
    loads = [0.0] * shards
    for unit in sorted(units, key=lambda u: (-u.weight, u.index)):
        target = min(range(shards), key=lambda s: (loads[s], s))
        buckets[target].append(unit)
        loads[target] += unit.weight
    for bucket in buckets:
        bucket.sort(key=lambda u: u.index)  # run in plan order within a shard
    return buckets


def _shard_worker(shard_id: int, units: List[SimUnit], conn: Any,
                  switches: Tuple[bool, bool, bool]) -> None:
    """Worker-process entry point: run one shard's units in plan order.

    Runs in a child process (fork or spawn); the pid is reported for
    diagnostics only.  Any inherited capture session belongs to the
    parent, so the worker opens its own with the parent's switches —
    a unit then harvests what it would have harvested in process.
    """
    from repro import obs

    pid = os.getpid()
    try:
        with obs.capture(*switches):
            results = [run_unit(unit, shard=shard_id) for unit in units]
        conn.send(("ok", shard_id, pid, results))
    except BaseException:  # noqa: BLE001 - worker must report, not die silently
        conn.send(("error", shard_id, pid, traceback.format_exc()))
    finally:
        conn.close()


class Executor:
    """Runs an :class:`ExecutionPlan` and merges its units deterministically.

    One shard runs every unit in plan order in this process.  More
    shards partition the units with :func:`assign_units` and run each
    shard in a worker process; ``start_method`` picks the
    ``multiprocessing`` context (``fork`` is the fast default on Linux;
    ``spawn``/``forkserver`` pay a fresh interpreter per worker).
    ``inline`` runs each shard's units in this process through the
    *same* partition/merge pipeline — the degenerate backend used by
    determinism tests and single-CPU hosts, bit-identical to the
    process backends by construction.
    """

    def __init__(self, shards: int = 1, start_method: str = "fork") -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if start_method not in ("fork", "spawn", "forkserver", "inline"):
            raise ValueError(f"unknown start method {start_method!r}")
        self.shards = shards
        self.start_method = start_method

    @property
    def backend(self) -> str:
        """Where the units run: ``in-process`` or ``sharded/<method>``."""
        if self.shards == 1:
            return "in-process"
        return f"sharded/{self.start_method}"

    def execute(self, plan: ExecutionPlan) -> ExecutionResult:
        t0 = time.perf_counter()
        assignment = assign_units(plan.units, self.shards)
        if self.start_method == "inline" or self.shards == 1:
            shard_results, shard_walls = self._run_inline(assignment)
        else:
            shard_results, shard_walls = self._run_processes(assignment)
        results = sorted(
            (r for bucket in shard_results for r in bucket),
            key=lambda r: r.index,
        )
        merged = merge_results(plan, results)
        return ExecutionResult(
            value=plan.reduce(results),
            results=results,
            merged=merged,
            shards=self.shards,
            backend=self.backend,
            wall_s=time.perf_counter() - t0,
            shard_wall_s=shard_walls,
        )

    def _run_inline(
        self, assignment: List[List[SimUnit]]
    ) -> Tuple[List[List[UnitResult]], List[float]]:
        shard_results: List[List[UnitResult]] = []
        walls: List[float] = []
        for shard_id, units in enumerate(assignment):
            t0 = time.perf_counter()
            shard_results.append([run_unit(u, shard=shard_id) for u in units])
            walls.append(time.perf_counter() - t0)
        return shard_results, walls

    def _run_processes(
        self, assignment: List[List[SimUnit]]
    ) -> Tuple[List[List[UnitResult]], List[float]]:
        import multiprocessing as mp

        from repro.obs.context import current_session

        ctx = mp.get_context(self.start_method)
        switches = _switches(current_session())
        workers = []
        for shard_id, units in enumerate(assignment):
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_shard_worker,
                args=(shard_id, units, child_conn, switches),
                name=f"repro-shard-{shard_id}",
            )
            t0 = time.perf_counter()
            proc.start()
            child_conn.close()
            workers.append((shard_id, proc, parent_conn, t0))

        shard_results: List[List[UnitResult]] = [[] for _ in assignment]
        walls = [0.0] * len(assignment)
        failure: Optional[str] = None
        for shard_id, proc, conn, t0 in workers:
            try:
                status, _sid, _pid, body = conn.recv()
            except EOFError:
                proc.join()
                status, body = "error", (
                    f"shard {shard_id} worker exited without reporting "
                    f"(exitcode={proc.exitcode})")
            walls[shard_id] = time.perf_counter() - t0
            proc.join()
            conn.close()
            if status == "ok":
                shard_results[shard_id] = body
            elif failure is None:
                failure = f"shard {shard_id} failed:\n{body}"
        if failure is not None:
            raise ExecutionError(failure)
        return shard_results, walls
