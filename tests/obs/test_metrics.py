"""Metrics instruments, the registry, and the post-shim import contract."""

import importlib.util
import warnings

import pytest

from repro.obs.metrics import (
    Counter,
    Histogram,
    InstrumentMeta,
    MetricsRegistry,
    TraceRecorder,
)


def test_sim_trace_shim_is_gone_and_shortcut_is_warning_free():
    # The deprecated repro.sim.trace alias module has been removed; the
    # supported spellings are repro.obs.metrics and the repro.sim re-export,
    # and neither emits a DeprecationWarning.
    assert importlib.util.find_spec("repro.sim.trace") is None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        from repro.sim import Counter as sim_counter
        from repro.sim import TraceRecorder as sim_recorder
    assert sim_counter is Counter
    assert sim_recorder is TraceRecorder
    assert not [w for w in caught if issubclass(w.category, DeprecationWarning)]


def test_counter_bag_merge():
    a, b = Counter(), Counter()
    a.add("x", 2)
    b.add("x", 3)
    b.add("y")
    a.merge(b)
    assert a.get("x") == 5 and a.get("y") == 1
    assert a.get("missing") == 0.0


def test_trace_recorder_consistent_lookup_contract():
    rec = TraceRecorder()
    # series() and last() now agree: both raise for unknown names.
    with pytest.raises(KeyError):
        rec.series("nope")
    with pytest.raises(KeyError):
        rec.last("nope")
    assert rec.series("nope", default=[]) == []
    assert "nope" not in rec
    rec.sample("lat", 1.0, 0.5)
    rec.sample("lat", 2.0, 0.7)
    assert rec.series("lat") == [(1.0, 0.5), (2.0, 0.7)]
    assert rec.last("lat") == (2.0, 0.7)
    assert rec.names() == ["lat"]
    assert "lat" in rec


def test_registry_typed_instruments_and_metadata():
    reg = MetricsRegistry()
    reg.counter("io.bytes", unit="B").add(100)
    reg.gauge("depth").set(4)
    reg.histogram("lat", unit="s").observe(0.001)
    metas = reg.names()
    assert all(isinstance(m, InstrumentMeta) for m in metas)
    assert [(m.name, m.kind, m.unit) for m in metas] == [
        ("depth", "gauge", "1"),
        ("io.bytes", "counter", "B"),
        ("lat", "histogram", "s"),
    ]
    assert reg.counter("io.bytes").value == 100  # same instrument on re-ask
    with pytest.raises(ValueError):
        reg.gauge("io.bytes")  # kind conflict
    with pytest.raises(ValueError, match="'depth' already registered as gauge"):
        reg.counter("depth")  # ... also past the counter's one-lookup path
    with pytest.raises(KeyError):
        reg.get("never-made")


def test_counter_instrument_is_monotonic():
    reg = MetricsRegistry()
    c = reg.counter("n")
    c.add(1)
    with pytest.raises(ValueError):
        c.add(-1)


def test_gauge_tracks_extrema():
    reg = MetricsRegistry()
    g = reg.gauge("qd")
    for v in (3, 7, 2):
        g.set(v)
    assert (g.value, g.min, g.max, g.updates) == (2, 2, 7, 3)
    g.inc()
    g.dec(2)
    assert g.value == 1


def test_histogram_percentiles_deterministic():
    h = Histogram(InstrumentMeta("lat", "histogram", "s"))
    for v in [0.001] * 90 + [0.1] * 9 + [1.0]:
        h.observe(v)
    s = h.summary()
    assert s["lat.count"] == 100
    assert s["lat.max"] == 1.0
    # p50 lands in the bucket holding 0.001; the reported value is the
    # bucket's upper edge, so it is within one log-step (~58% here,
    # allowing for float rounding of the edge grid) of the true value.
    assert 0.001 <= s["lat.p50"] <= 0.001 * 10 ** 0.4
    assert 0.1 <= s["lat.p99"] <= 0.1 * 10 ** 0.4
    assert s["lat.mean"] == pytest.approx((90 * 0.001 + 9 * 0.1 + 1.0) / 100)
    # Order independence: same multiset, shuffled arrival.
    h2 = Histogram(InstrumentMeta("lat", "histogram", "s"))
    for v in [1.0] + [0.1] * 9 + [0.001] * 90:
        h2.observe(v)
    s2 = h2.summary()
    assert s2["lat.mean"] == pytest.approx(s["lat.mean"])  # float sum order
    for key in ("lat.count", "lat.p50", "lat.p95", "lat.p99", "lat.max"):
        assert s2[key] == s[key]


def test_histogram_merge_is_exact():
    a = Histogram(InstrumentMeta("lat", "histogram", "s"))
    b = Histogram(InstrumentMeta("lat", "histogram", "s"))
    both = Histogram(InstrumentMeta("lat", "histogram", "s"))
    for v in (0.01, 0.02, 0.3):
        a.observe(v)
        both.observe(v)
    for v in (0.5, 0.0004):
        b.observe(v)
        both.observe(v)
    a.merge(b)
    assert a.summary() == both.summary()
    different = Histogram(InstrumentMeta("lat", "histogram", "s"),
                          edges=(0.1, 1.0))
    with pytest.raises(ValueError):
        a.merge(different)


def test_registry_flat_and_merge():
    a = MetricsRegistry()
    a.counter("bytes", unit="B").add(7)
    a.histogram("lat").observe(0.2)
    b = MetricsRegistry()
    b.counter("bytes", unit="B").add(3)
    b.histogram("lat").observe(0.4)
    b.gauge("qd").set(5)
    a.merge(b)
    flat = a.flat()
    assert flat["bytes"] == 10
    assert flat["lat.count"] == 2.0
    assert flat["qd"] == 5
