"""Figure 9 through the sharded execution layer: scale-out + bit-identity.

The acceptance run for the execution layer: a fig9-style sweep with at
least 48 environments (16 scales x 3 systems), executed in-process and
across 4 worker shards.  The merged results must be bit-identical; on
hosts with >= 4 cores the 4-shard run must finish at least 2x faster.
``BENCH_fig9.json`` records both wall clocks either way, so CI's
multi-core runners enforce the speedup and single-core hosts still
publish the artefact.
"""

import os
import time

import pytest

from repro.bench.experiments import fig9_plan
from repro.bench.harness import write_bench_json
from repro.exec import Executor

_PROCS = tuple(range(4, 36, 2))  # 16 scales
_SYSTEMS = ("nvmecr", "orangefs", "glusterfs")


@pytest.mark.slow
def test_fig9_sharded_scaling_bit_identical_and_faster():
    plan_kwargs = dict(procs=_PROCS, checkpoints=1, atoms_per_rank=2_000,
                       seed=8, systems=_SYSTEMS)
    plan = fig9_plan("weak", **plan_kwargs)
    assert len(plan.units) >= 48  # one environment per unit

    t0 = time.perf_counter()
    base = Executor().execute(plan)
    wall_1 = time.perf_counter() - t0

    t0 = time.perf_counter()
    sharded = Executor(4, start_method="fork").execute(
        fig9_plan("weak", **plan_kwargs))
    wall_4 = time.perf_counter() - t0

    # Bit-identity is unconditional: same seed, same merged artefacts.
    assert sharded.merged.fingerprint == base.merged.fingerprint
    assert sharded.merged.events_scheduled == base.merged.events_scheduled
    assert sharded.value.rows == base.value.rows

    speedup = wall_1 / wall_4 if wall_4 > 0 else float("inf")
    cpus = os.cpu_count() or 1
    table = sharded.value
    table.note(f"sharded scale-out: {len(plan.units)} environments, "
               f"speedup {speedup:.2f}x on {cpus} cpus")
    path = write_bench_json(
        "fig9", table, wall_s=wall_4,
        meta={
            "experiment": "fig9weak-sharded",
            "environments": len(plan.units),
            "shards": 4,
            "backend": sharded.backend,
            "fingerprint": sharded.merged.fingerprint,
            "wall_1shard_s": wall_1,
            "wall_4shards_s": wall_4,
            "speedup": speedup,
            "cpu_count": cpus,
        },
    )
    print(f"wrote {path}: {speedup:.2f}x speedup at 4 shards ({cpus} cpus)")

    # The >= 2x wall-clock gate needs real parallelism to exist.
    if cpus >= 4:
        assert speedup >= 2.0, (
            f"4-shard run only {speedup:.2f}x faster on {cpus} cpus")
