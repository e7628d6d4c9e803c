"""Executor backends: LPT assignment, deterministic merge, bit-identity.

The acceptance property for the execution layer: same seed, same plan ⇒
bit-identical merged results, for any shard count and any backend.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import (
    ExecutionError,
    ExecutionPlan,
    Executor,
    SimUnit,
    merge_results,
    run_unit,
)
from repro.exec.executors import assign_units
from repro.exec.merge import merge_spans
from repro.exec.plan import UnitResult
from tests.conftest import FIG7A_REF, fig7a_unit_plan


def _plan(seeds, steps=4):
    units = [
        SimUnit(index=i, label=f"unit{i}", fn="tests.exec.unitfns:sim_unit",
                params={"seed": seed, "steps": steps}, weight=float(steps))
        for i, seed in enumerate(seeds)
    ]
    return ExecutionPlan(
        title="synthetic", units=units,
        reduce=lambda results: sum(r.payload["sum_delay"] for r in results),
    )


# -- shard assignment ---------------------------------------------------------


def test_assign_units_is_deterministic_lpt():
    units = [SimUnit(index=i, label=f"u{i}", fn="m:f", weight=w)
             for i, w in enumerate([5.0, 1.0, 4.0, 2.0, 2.0, 1.0])]
    buckets = assign_units(units, 2)
    # Heaviest-first onto the lightest shard (5 | 4, then 2->shard1,
    # 2->shard0, 1->shard1, 1->shard0), then plan order per shard.
    assert [[u.index for u in b] for b in buckets] == [[0, 4, 5], [1, 2, 3]]
    assert assign_units(units, 2) == buckets  # pure function of inputs
    # Every unit lands exactly once, for any shard count.
    for shards in (1, 2, 3, 6, 8):
        spread = assign_units(units, shards)
        assert sorted(u.index for b in spread for u in b) == list(range(6))
    with pytest.raises(ValueError):
        assign_units(units, 0)


# -- the bit-identity property ------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    seeds=st.lists(st.integers(0, 2**16), min_size=1, max_size=6),
    shards=st.sampled_from([1, 2, 4]),
)
def test_same_seed_same_merged_hash_for_any_shard_count(seeds, shards):
    """Hypothesis property: seeds fully determine the merged event-stream
    hash; the shard count and backend must not leak into it."""
    reference = Executor().execute(_plan(seeds))
    sharded = Executor(shards, start_method="inline").execute(_plan(seeds))
    assert sharded.merged.fingerprint == reference.merged.fingerprint
    assert sharded.merged.events_scheduled == reference.merged.events_scheduled
    assert sharded.merged.sim_now == reference.merged.sim_now
    assert sharded.value == reference.value
    assert sharded.merged.metrics.flat() == reference.merged.metrics.flat()
    assert (sharded.merged.timeline.fingerprint()
            == reference.merged.timeline.fingerprint())


def test_process_backend_matches_inline_bit_for_bit():
    """fork workers produce the same merged artefacts as the in-process
    pipeline — the cross-process half of the bit-identity claim."""
    plan = _plan([11, 22, 33, 44], steps=3)
    inline = Executor(2, start_method="inline").execute(plan)
    forked = Executor(2, start_method="fork").execute(plan)
    assert forked.merged.fingerprint == inline.merged.fingerprint
    assert forked.backend == "sharded/fork"
    assert forked.shards == 2
    assert [r.index for r in forked.results] == [0, 1, 2, 3]
    assert forked.shard_wall_s is not None and len(forked.shard_wall_s) == 2


def test_more_shards_than_units_is_fine():
    plan = _plan([7], steps=2)
    result = Executor(4, start_method="fork").execute(plan)
    assert result.merged.fingerprint == Executor().execute(
        plan).merged.fingerprint


# -- merged artefacts ---------------------------------------------------------


def test_merged_metrics_and_timeline_roll_up():
    plan = _plan([1, 2, 3], steps=5)
    merged = Executor().execute(plan).merged
    flat = merged.metrics.flat()
    assert flat["unit.steps"] == 15  # counters add across units
    assert flat["unit.delay.count"] == 15.0
    assert len(merged.timeline) == 3  # one fault per unit
    assert [r.fault_id for r in merged.timeline] == [0, 1, 2]  # re-issued ids
    summary = merged.summary()
    assert summary["exec.units"] == 3.0
    assert summary["faults_injected"] == 3.0


def test_cross_shard_blast_radius_is_annotated():
    # Units 1 and 3 share a failure domain (seed % 2 == 1 -> rack1/pdu0),
    # and land on different sides of the merge.
    plan = _plan([1, 2, 3, 4], steps=2)
    merged = Executor().execute(plan).merged
    assert merged.timeline.cross_shard_domains() == ["rack0/pdu0", "rack1/pdu0"]


def test_merge_spans_offsets_ids_and_orders_globally():
    results = [
        UnitResult(index=0, label="a", payload=None, spans=[
            {"id": 1, "parent": None, "begin": 0.5, "end": 1.0},
            {"id": 2, "parent": 1, "begin": 0.7, "end": 0.9},
        ]),
        UnitResult(index=1, label="b", payload=None, spans=[
            {"id": 1, "parent": None, "begin": 0.1, "end": 0.2},
        ]),
    ]
    merged = merge_spans(results)
    # Globally ordered by (begin, unit, id); unit 1's span ids offset past
    # unit 0's range, parents rewritten consistently.
    assert [(s["unit"], s["id"], s["begin"]) for s in merged] == [
        (1, 3, 0.1), (0, 1, 0.5), (0, 2, 0.7),
    ]
    assert merged[2]["parent"] == 1


def test_merge_rejects_incomplete_results():
    plan = _plan([5, 6])
    only_one = [run_unit(plan.units[0])]
    with pytest.raises(ValueError, match="missing units \\[1\\]"):
        merge_results(plan, only_one)


# -- failure propagation ------------------------------------------------------


def test_worker_failure_raises_with_traceback():
    units = [SimUnit(index=0, label="boom", fn="tests.exec.unitfns:boom",
                     params={"message": "shard exploded"})]
    plan = ExecutionPlan(title="fails", units=units, reduce=lambda rs: rs)
    with pytest.raises(ExecutionError, match="shard exploded"):
        Executor(2, start_method="fork").execute(plan)
    # Single-shard and in-process runs surface the raw exception in situ.
    with pytest.raises(RuntimeError, match="shard exploded"):
        Executor(1, start_method="fork").execute(plan)
    with pytest.raises(RuntimeError, match="shard exploded"):
        Executor().execute(plan)


def test_bad_executor_args_rejected():
    with pytest.raises(ValueError):
        Executor(0)
    with pytest.raises(ValueError):
        Executor(2, start_method="threads")


def test_backend_names_where_units_ran():
    """One shard runs in this process whatever the start method; more
    shards report the method that ran them."""
    assert Executor().backend == "in-process"
    assert Executor(1, start_method="fork").backend == "in-process"
    assert Executor(2, start_method="inline").backend == "sharded/inline"
    single = Executor(1, start_method="fork").execute(_plan([3]))
    assert (single.backend, single.shards) == ("in-process", 1)
    inline = Executor(2, start_method="inline").execute(_plan([3, 4]))
    assert (inline.backend, inline.shards) == ("sharded/inline", 2)


# -- the pinned fig7a baseline through the sharded path -----------------------


def test_fig7a_pinned_baseline_through_sharded_path():
    """The fig7a reference workload (``tests/golden/fig7a_ref.json``)
    survives the plan refactor bit-for-bit on every backend."""
    plan = fig7a_unit_plan()
    in_process = Executor().execute(plan)
    forked = Executor(2, start_method="fork").execute(plan)
    assert in_process.value["time_s"] == FIG7A_REF["makespan_s"]
    assert in_process.merged.fingerprint == FIG7A_REF["merged_fingerprint"]
    assert forked.merged.fingerprint == in_process.merged.fingerprint
    assert forked.value["time_s"] == in_process.value["time_s"]
