"""Tests for the data plane's chunking helpers and entry-point accounting.

The chunk helpers are the single implementation that replaced the three
copies in ``DataPlane.write_runs`` / ``read_runs`` / ``_chunk``; the
reference implementations here transcribe the legacy loops verbatim so
any divergence in the unified helper shows up directly. Each entry
point's counters, span attributes and command sizes are checked
through the entry point itself, and the pinned-seed test replays a
chunk-heavy workload twice, requires the same outcome, and pins its
makespan and counters.
"""

import numpy as np
import pytest

from repro.bench import calibration as cal
from repro.core.config import RuntimeConfig
from repro.core.data_plane import DataPlane, iter_read_chunks, iter_write_chunks
from repro.fabric.nvmf import merge_adjacent_extents
from repro.fabric.transport import LocalPCIeTransport
from repro.io import QoSClass
from repro.nvme import SSD, Payload
from repro.obs.context import attach
from repro.sim import Environment
from repro.sim.engine import EngineTelemetry
from repro.units import GiB, KiB, MiB

from tests.conftest import deterministic_spec


# -- chunk helpers vs the legacy loops --------------------------------------


def legacy_write_chunks(offset, payload, limit):
    """Verbatim transcription of the pre-envelope ``DataPlane._chunk``."""
    if limit is None or payload.nbytes <= limit:
        return [(offset, payload)]
    out = []
    at = 0
    while at < payload.nbytes:
        size = min(limit, payload.nbytes - at)
        out.append((offset + at, payload.slice(at, size)))
        at += size
    return out


def legacy_read_chunks(offset, nbytes, limit):
    """Verbatim transcription of the pre-envelope read_runs loop."""
    out = []
    at = offset
    remaining = nbytes
    while remaining > 0:
        size = min(remaining, limit) if limit is not None else remaining
        out.append((at, size))
        at += size
        remaining -= size
    return out


@pytest.mark.parametrize("nbytes,limit", [
    (0, MiB(8)), (1, MiB(8)), (MiB(8), MiB(8)), (MiB(8) + 1, MiB(8)),
    (MiB(32), MiB(8)), (MiB(3), None), (KiB(100), KiB(32)),
])
def test_write_chunks_match_legacy(nbytes, limit):
    payload = Payload.synthetic("w", nbytes)
    got = list(iter_write_chunks(1000, payload, limit))
    want = legacy_write_chunks(1000, payload, limit)
    assert [(o, p.nbytes, p.tag) for o, p in got] == \
        [(o, p.nbytes, p.tag) for o, p in want]


@pytest.mark.parametrize("nbytes,limit", [
    (0, MiB(8)), (1, MiB(8)), (MiB(8), MiB(8)), (MiB(8) + 1, MiB(8)),
    (MiB(32), MiB(8)), (MiB(3), None),
])
def test_read_chunks_match_legacy(nbytes, limit):
    assert list(iter_read_chunks(512, nbytes, limit)) == \
        legacy_read_chunks(512, nbytes, limit)


def test_zero_byte_write_chunk_yields_itself():
    # The historical write path issued even empty payloads as one command.
    chunks = list(iter_write_chunks(0, Payload.of_bytes(b""), MiB(1)))
    assert len(chunks) == 1
    assert chunks[0][1].nbytes == 0


def test_zero_byte_read_yields_nothing():
    # The historical read loop never issued empty commands.
    assert list(iter_read_chunks(0, 0, MiB(1))) == []


def test_real_payload_chunks_carry_real_bytes():
    data = bytes(range(256)) * 16
    chunks = list(iter_write_chunks(0, Payload.of_bytes(data), 1024))
    assert len(chunks) == 4
    assert b"".join(p.data for _o, p in chunks) == data
    assert [o for o, _p in chunks] == [0, 1024, 2048, 3072]


# -- merge_adjacent_extents --------------------------------------------------


def test_merge_empty_list():
    assert merge_adjacent_extents([]) == []


def test_merge_adjacent_real_payloads():
    chunks = [(0, Payload.of_bytes(b"aa")), (2, Payload.of_bytes(b"bb")),
              (4, Payload.of_bytes(b"cc"))]
    merged = merge_adjacent_extents(chunks)
    assert len(merged) == 1
    assert merged[0][0] == 0
    assert merged[0][1].data == b"aabbcc"


def test_merge_keeps_gap_separate():
    chunks = [(0, Payload.of_bytes(b"aa")), (100, Payload.of_bytes(b"bb"))]
    merged = merge_adjacent_extents(chunks)
    assert len(merged) == 2


def test_merge_never_fuses_synthetic():
    # Synthetic payloads keep identity tags for read-back verification.
    chunks = [(0, Payload.synthetic("a", 100)), (100, Payload.synthetic("b", 100))]
    merged = merge_adjacent_extents(chunks)
    assert len(merged) == 2
    assert merged[0][1].tag == "a"
    assert merged[1][1].tag == "b"


def test_merge_mixed_real_and_synthetic():
    chunks = [(0, Payload.of_bytes(b"xx")), (2, Payload.synthetic("s", 2)),
              (4, Payload.of_bytes(b"yy")), (6, Payload.of_bytes(b"zz"))]
    merged = merge_adjacent_extents(chunks)
    assert [p.is_synthetic for _o, p in merged] == [False, True, False]
    assert merged[2][1].data == b"yyzz"


# -- entry points: one IO each ------------------------------------------------


class _RecordingTransport(LocalPCIeTransport):
    """Local PCIe transport that records every submission it forwards."""

    def __init__(self, env, ssd):
        super().__init__(env, ssd)
        self.calls = []

    def write(self, nsid, offset, payload, command_size, qos=None):
        self.calls.append(("write", offset, payload, command_size, qos))
        return super().write(nsid, offset, payload, command_size, qos=qos)

    def read(self, nsid, offset, nbytes, command_size, qos=None):
        self.calls.append(("read", offset, nbytes, command_size, qos))
        return super().read(nsid, offset, nbytes, command_size, qos=qos)

    def flush(self, nsid, qos=None):
        self.calls.append(("flush", qos))
        return super().flush(nsid, qos=qos)


def _recording_plane(max_batch_bytes=MiB(8)):
    env = Environment()
    ssd = SSD(env, deterministic_spec(), "s0", rng=np.random.default_rng(0))
    ns = ssd.create_namespace(GiB(4))
    transport = _RecordingTransport(env, ssd)
    plane = DataPlane(env, transport, ns.nsid,
                      RuntimeConfig(max_batch_bytes=max_batch_bytes))
    ctx = attach(env, tracing=True)
    return env, plane, transport, ctx


def _run(env, gen):
    return env.run_until_complete(env.process(gen))


def _span(ctx, name):
    (span,) = [s for s in ctx.tracer.spans if s.name == name]
    return span


def test_write_runs_factory_fields():
    env, dp, transport, ctx = _recording_plane()
    runs = [(0, Payload.synthetic("x", MiB(2)))]
    assert _run(env, dp.write_runs(runs, command_size=KiB(32))) == MiB(2)
    cmds = MiB(2) // KiB(32)
    assert _span(ctx, "dataplane.write").attrs == {"bytes": MiB(2), "cmds": cmds}
    assert dp.counters.get("data_bytes_written") == MiB(2)
    assert dp.counters.get("data_commands") == cmds
    assert dp.counters.get("user_cpu_time") == cmds * cal.SPDK_SUBMIT_COST
    # Checkpoint data by default, no flush.
    assert [(c[0], c[3], c[4]) for c in transport.calls] == [
        ("write", KiB(32), QoSClass.CKPT_DATA)]
    assert list(dp.class_latencies) == [QoSClass.CKPT_DATA]


def test_read_runs_factory_fields():
    env, dp, transport, ctx = _recording_plane()
    _run(env, dp.write_runs([(0, Payload.synthetic("x", KiB(64)))]))
    transport.calls.clear()
    extents = _run(env, dp.read_runs([(0, KiB(64))], command_size=KiB(32)))
    assert sum(e.length for e in extents) == KiB(64)
    assert _span(ctx, "dataplane.read").attrs == {"bytes": KiB(64), "cmds": 2}
    assert dp.counters.get("data_bytes_read") == KiB(64)
    assert transport.calls == [("read", 0, KiB(64), KiB(32), QoSClass.RECOVERY)]


def test_log_page_factory_pads_and_pins_one_command():
    env, dp, transport, ctx = _recording_plane()
    _run(env, dp.write_log_page(4096, b"rec", 64))
    # One doorbell regardless of size; wire bytes padded, 4 KiB floor;
    # then the WAL barrier.
    (write, flush) = transport.calls
    assert write[0] == "write" and write[1] == 4096
    assert write[2].data == b"rec".ljust(64, b"\x00")
    assert write[3] == 4096
    assert write[4] is QoSClass.JOURNAL
    assert flush == ("flush", QoSClass.JOURNAL)
    assert _span(ctx, "dataplane.log_page").attrs == {"bytes": 64}
    assert dp.counters.get("log_bytes_written") == 64
    assert dp.counters.get("log_flushes") == 1
    assert dp.counters.get("user_cpu_time") == cal.SPDK_SUBMIT_COST


def test_log_page_large_page_keeps_wire_size():
    env, dp, transport, ctx = _recording_plane()
    _run(env, dp.write_log_page(0, b"x" * KiB(16), KiB(16)))
    assert transport.calls[0][3] == KiB(16)
    assert dp.counters.get("user_cpu_time") == cal.SPDK_SUBMIT_COST


def test_state_blob_factory_floor_division():
    # Historical cost model: floor, not ceil — 5 pages / 32 KiB = 0 -> 1.
    for nbytes, cmds in ((5 * 4096, 1), (KiB(96), 3)):
        env, dp, transport, ctx = _recording_plane()
        _run(env, dp.write_state(0, b"s" * (nbytes - 1)))
        (write, flush) = transport.calls
        assert write[2].nbytes == nbytes  # padded to 4 KiB pages
        assert write[3] == KiB(32)
        assert flush[0] == "flush"
        assert dp.counters.get("user_cpu_time") == cmds * cal.SPDK_SUBMIT_COST
        assert dp.counters.get("state_bytes_written") == nbytes
        assert _span(ctx, "dataplane.state").attrs == {"bytes": nbytes}


def test_recovery_read_skips_software_charge():
    env, dp, transport, ctx = _recording_plane()
    _run(env, dp.write_log_page(0, b"state", 4096))
    charged = dp.counters.get("user_cpu_time")
    assert _run(env, dp.read_bytes(0, KiB(8))) == b"state".ljust(KiB(8), b"\x00")
    assert dp.counters.get("user_cpu_time") == charged
    assert _span(ctx, "dataplane.read").attrs == {"bytes": KiB(8), "recovery": True}
    assert transport.calls[-1] == ("read", 0, KiB(8), KiB(32), QoSClass.RECOVERY)


def test_chunks_unified_iterator_covers_all_extents():
    env, dp, transport, ctx = _recording_plane(max_batch_bytes=MiB(2))
    runs = [(0, Payload.synthetic("a", MiB(3))), (MiB(10), Payload.synthetic("b", MiB(1)))]
    _run(env, dp.write_runs(runs))
    assert [(c[1], c[2].nbytes) for c in transport.calls] == [
        (0, MiB(2)), (MiB(2), MiB(1)), (MiB(10), MiB(1)),
    ]


# -- pinned-seed event-sequence equivalence (satellite: dedup proof) ---------


def _chunky_workload(env, dp):
    """A workload that exercises every historical chunking call site:
    multi-chunk writes, chunked reads, log pages, and state blobs."""

    def scenario():
        yield from dp.write_runs([(0, Payload.synthetic("big", MiB(20)))])
        yield from dp.write_runs(
            [(MiB(20), Payload.of_bytes(b"x" * KiB(64)))], command_size=KiB(4))
        yield from dp.write_log_page(MiB(24), b"journal-record", 4096)
        yield from dp.write_state(MiB(25), b"s" * KiB(40))
        yield from dp.read_runs([(0, MiB(20))])
        data = yield from dp.read_bytes(MiB(20), KiB(64))
        return data

    return env.run_until_complete(env.process(scenario()))


def _build_plane(seed=0):
    env = Environment()
    ssd = SSD(env, deterministic_spec(), "s0", rng=np.random.default_rng(seed))
    ns = ssd.create_namespace(GiB(4))
    config = RuntimeConfig(max_batch_bytes=MiB(8))
    return env, ssd, DataPlane(env, LocalPCIeTransport(env, ssd), ns.nsid, config)


def test_pinned_seed_event_sequence_identical():
    """Two identical builds replay the same run, and it keeps its pinned
    makespan and counters.

    The makespan and every data-plane, SSD and fair-share counter below
    are literals recorded from this workload; a change to chunking,
    command sizes, the flush barrier or the device's service model moves
    one of them.  One sequential client on a jitter-free device takes
    the same time in 4 MiB chunks as in 8 MiB ones, so only the flow
    count (a media and a command-rate flow per device IO) sees the chunk
    size.
    """
    outcomes = []
    for _ in range(2):
        env, ssd, dp = _build_plane()
        env.telemetry = EngineTelemetry()
        data = _chunky_workload(env, dp)
        flows = (env.telemetry.fairshare_flows, env.telemetry.fairshare_recomputes)
        outcomes.append((env.now, data, dp.counters.as_dict(),
                         ssd.counters.as_dict(), flows))
    assert outcomes[0] == outcomes[1]
    now, data, plane_counters, ssd_counters, flows = outcomes[0]
    assert now == 0.01901576727272727
    assert flows == (20, 20)
    assert data == b"x" * KiB(64)
    assert plane_counters == {
        "data_bytes_read": MiB(20),
        "data_bytes_written": MiB(20) + KiB(64),
        "data_commands": 656,
        "log_bytes_written": 4096,
        "log_flushes": 1,
        "state_bytes_written": KiB(40),
        "user_cpu_time": 0.0005192,
    }
    assert ssd_counters == {
        "bytes_read": MiB(20) + KiB(64),
        "bytes_written": MiB(20) + KiB(64) + 4096 + KiB(40),
        "flushes": 2,
        "read_commands": 642,
        "write_commands": 659,
    }
