"""SimUnit / ExecutionPlan / UnitResult contracts."""

import pytest

from repro.exec import ExecutionPlan, SimUnit, UnitResult
from repro.exec.plan import resolve_unit_fn


def _unit(i, **params):
    return SimUnit(index=i, label=f"u{i}",
                   fn="tests.exec.unitfns:sim_unit", params=params)


def test_unit_fn_spec_must_be_module_colon_function():
    with pytest.raises(ValueError):
        SimUnit(index=0, label="bad", fn="no_colon_here")


def test_resolve_unit_fn_roundtrip_and_errors():
    from tests.exec.unitfns import sim_unit

    assert resolve_unit_fn("tests.exec.unitfns:sim_unit") is sim_unit
    with pytest.raises(ValueError):
        resolve_unit_fn("tests.exec.unitfns:does_not_exist")
    with pytest.raises(ModuleNotFoundError):
        resolve_unit_fn("tests.exec.nope:fn")


def test_plan_requires_contiguous_indices():
    with pytest.raises(ValueError):
        ExecutionPlan(title="t", units=[_unit(0), _unit(2)],
                      reduce=lambda rs: rs)
    plan = ExecutionPlan(title="t", units=[_unit(0), _unit(1)],
                         reduce=lambda rs: rs)
    assert [u.index for u in plan.units] == [0, 1]


def test_fingerprint_ignores_shard_and_wall_clock():
    base = dict(index=3, label="u3", payload={"x": 1.5}, sim_now=2.0,
                events_scheduled=17, metrics={"m": {"kind": "counter"}},
                spans=[{"id": 1, "begin": 0.0}], timeline=[])
    a = UnitResult(shard=0, wall_s=0.1, **base)
    b = UnitResult(shard=7, wall_s=99.0, **base)
    assert a.fingerprint() == b.fingerprint()
    # The event count is work, not a result: an engine that pushes
    # fewer events for the same outcome keeps the fingerprint.
    c = UnitResult(shard=0, wall_s=0.1, **{**base, "events_scheduled": 18})
    assert c.fingerprint() == a.fingerprint()
    d = UnitResult(shard=0, wall_s=0.1, **{**base, "sim_now": 2.5})
    assert d.fingerprint() != a.fingerprint()


def test_fingerprint_is_stable_across_processes_not_ids():
    # default=repr canonicalisation: equal values hash equal even when
    # rebuilt from scratch (fresh dicts, fresh floats).
    def build():
        return UnitResult(index=0, label="u", payload={"v": [1.0, 2.5]},
                          sim_now=1.0, events_scheduled=5)

    assert build().fingerprint() == build().fingerprint()
