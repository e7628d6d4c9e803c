"""Engine-neutral execution layer: plans, one executor, deterministic merge.

Experiments describe *what* to simulate as an :class:`ExecutionPlan` —
an ordered list of independent :class:`SimUnit` specs plus a reduce
function — and an :class:`Executor` decides *where* the units run:

* ``Executor()`` — one shard: every unit runs in plan order in this
  process.
* ``Executor(shards)`` — partitions units across worker processes
  (deterministic longest-processing-time assignment), runs each shard's
  units in plan order, and merges per-unit event streams, metrics
  snapshots, spans, and fault timelines back into one result with a
  stable global order.  Each worker opens its own observability capture
  with the parent session's switches.

The invariant it upholds: **same seed, same plan ⇒ bit identical merged
results, for any shard count** — unit outputs depend only on their
parameters (each builds its own seeded environment), and the merge is
keyed by unit index, never by completion order.
"""

from repro.exec.executors import ExecutionError, Executor, run_unit
from repro.exec.merge import MergedArtifacts, merge_results
from repro.exec.plan import ExecutionPlan, ExecutionResult, SimUnit, UnitResult

__all__ = [
    "ExecutionError",
    "ExecutionPlan",
    "ExecutionResult",
    "Executor",
    "MergedArtifacts",
    "SimUnit",
    "UnitResult",
    "merge_results",
    "run_unit",
]
