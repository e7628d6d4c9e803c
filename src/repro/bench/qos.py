"""QoS arbitration and doorbell-batching experiment (``repro run qos``).

Two questions about the unified I/O pipeline:

1. *Does weighted arbitration protect the journal?*  Every rank bursts a
   checkpoint file (CKPT_DATA) while MicroFS journals metadata
   (JOURNAL) to the same device.  With FCFS arbitration the small
   journal writes queue behind megabyte data chunks; with NVMe
   WRR-style weighted arbitration (:class:`~repro.nvme.queues.WrrArbiter`)
   the journal class jumps the line.  The table reports per-class
   latency percentiles from :attr:`DataPlane.class_latencies` — exact
   sorted-sample percentiles, not histogram buckets, so the
   JOURNAL-p99 comparison is strict.

2. *Does doorbell batching cut fabric round trips?*  The same N-N burst
   over an NVMf-remote fleet with ``config.batching`` off vs on, at
   equal payload bytes; round trips are counted from ``nvmf.rtt``
   spans.

Only data-plane-backed systems (``nvmecr``, ``microfs``,
``microfs-remote``) have per-class latency accounting; baselines tag
their device commands with QoS classes but keep their own layered
queueing, so they are out of scope here.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from repro.bench.harness import ResultTable
from repro.core.config import RuntimeConfig
from repro.errors import FileExists, UnknownSystem
from repro.io.qos import QoSClass
from repro.nvme.queues import WrrArbiter
from repro.obs.export import span_count
from repro.systems import build as build_system
from repro.units import MiB

__all__ = ["qos", "batching_round_trips"]

# Class display order: matches the arbiter's priority order.
_CLASS_ORDER = (
    QoSClass.JOURNAL,
    QoSClass.RECOVERY,
    QoSClass.CKPT_DATA,
    QoSClass.BEST_EFFORT,
)

_DATAPLANE_SYSTEMS = ("nvmecr", "microfs", "microfs-remote")


def _qos_config(**overrides) -> RuntimeConfig:
    return RuntimeConfig(
        log_region_bytes=MiB(4), state_region_bytes=MiB(16), **overrides
    )


def _percentile(sorted_values: List[float], q: float) -> float:
    """Exact nearest-rank percentile over a pre-sorted sample."""
    index = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[min(index, len(sorted_values) - 1)]


def _burst(shim, rank: int, file_bytes: int, steps: int):
    """One rank of the checkpoint burst: N-N dumps with journal traffic."""
    try:
        yield from shim.mkdir("/qos")
    except FileExists:
        pass
    for step in range(steps):
        path = f"/qos/rank{rank:05d}_step{step:02d}.dat"
        fd = yield from shim.open(path, "w")
        yield from shim.write(fd, file_bytes)
        yield from shim.fsync(fd)
        yield from shim.close(fd)


def _build(system: str, nprocs: int, file_bytes: int, steps: int, seed: int,
           config: RuntimeConfig):
    if system == "nvmecr":
        # One device: the whole burst contends at a single arbiter.
        # Each rank's partition must fit the log + state regions plus
        # the dumped data.
        per_rank = (config.log_region_bytes + config.state_region_bytes
                    + 2 * steps * file_bytes + MiB(16))
        return build_system(
            "nvmecr", nprocs=nprocs, seed=seed, devices=1,
            bytes_per_device=nprocs * per_rank,
            config=config, job_name="qos",
        )
    if system in ("microfs", "microfs-remote"):
        return build_system(
            system, nprocs=nprocs, config=config,
            partition_bytes=2 * steps * file_bytes + MiB(64), seed=seed,
        )
    raise UnknownSystem(
        f"qos experiment needs a data-plane system "
        f"({', '.join(_DATAPLANE_SYSTEMS)}), got {system!r}"
    )


def _install_arbiters(handle, mode: str) -> None:
    ssds = handle.extras.get("ssds")
    if not ssds and handle.deployment is not None:
        ssds = [
            ssd for devices in handle.deployment.all_ssds.values()
            for ssd in devices
        ]
    if not ssds:
        raise UnknownSystem(f"{handle.name}: no device inventory for arbitration")
    for ssd in ssds:
        ssd.arbiter = WrrArbiter(handle.env, mode=mode)


def _class_latencies(
    system: str, mode: str, nprocs: int, file_bytes: int, steps: int, seed: int
) -> Dict[QoSClass, List[float]]:
    """Run one burst under ``mode`` arbitration; per-class latency samples."""
    handle = _build(system, nprocs, file_bytes, steps, seed, _qos_config())
    _install_arbiters(handle, mode)
    planes: List = []

    def rank_main(shim, comm):
        planes.append(shim.runtime.microfs.data_plane)
        yield from _burst(shim, comm.rank, file_bytes, steps)

    handle.run_ranks(rank_main)
    merged: Dict[QoSClass, List[float]] = {}
    for plane in planes:
        for cls, values in plane.class_latencies.items():
            merged.setdefault(cls, []).extend(values)
    for values in merged.values():
        values.sort()
    return merged


def batching_round_trips(
    nprocs: int = 8,
    file_bytes: int = MiB(4),
    seed: int = 11,
) -> Dict[str, Dict[str, float]]:
    """NVMf round trips (``nvmf.rtt`` spans) with batching off vs on.

    Same fleet, same seed, same N-N burst over the fabric — the only
    difference is ``config.batching``.  The batch limit is lowered to
    1 MiB so each dump fans out into several chunks per data-plane write:
    the unbatched path rings the doorbell once per chunk, the batched
    path once per write.  Returns
    ``{"off"|"on": {"round_trips", "payload_bytes", "makespan_s"}}``;
    payload bytes must match between the two runs for the round-trip
    comparison to mean anything.
    """
    from repro.bench.harness import dump_files

    results: Dict[str, Dict[str, float]] = {}
    for label, flag in (("off", False), ("on", True)):
        handle = build_system(
            "microfs-remote", nprocs=nprocs,
            config=_qos_config(batching=flag, max_batch_bytes=MiB(1)),
            partition_bytes=2 * file_bytes + MiB(64), seed=seed,
        )
        handle.obs.enable_tracing()
        makespan = handle.makespan(dump_files(file_bytes, directory="/batch"))
        results[label] = {
            "round_trips": span_count(handle.obs, name="nvmf.rtt"),
            "payload_bytes": handle.obs.metrics.counter("nvmf.bytes").value,
            "makespan_s": makespan,
        }
    return results


def qos(
    nprocs: int = 16,
    file_bytes: int = MiB(2),
    steps: int = 2,
    seed: int = 11,
    systems: Sequence[str] = ("microfs",),
    modes: Sequence[str] = ("fcfs", "wrr"),
    batching: bool = False,
) -> ResultTable:
    """Per-class latency under FCFS vs WRR arbitration (+ batching note)."""
    table = ResultTable(
        f"QoS pipeline: per-class latency, FCFS vs WRR arbitration "
        f"({nprocs} procs x {steps} x {file_bytes // MiB(1)} MiB burst)",
        ["system", "mode", "class", "n", "mean_ms", "p50_ms", "p99_ms"],
    )
    journal_p99: Dict[Tuple[str, str], float] = {}
    for system in systems:
        for mode in modes:
            samples = _class_latencies(
                system, mode, nprocs, file_bytes, steps, seed
            )
            for cls in _CLASS_ORDER:
                values = samples.get(cls)
                if not values:
                    continue
                p99 = _percentile(values, 0.99)
                table.add(
                    system, mode, cls.value, len(values),
                    1e3 * sum(values) / len(values),
                    1e3 * _percentile(values, 0.50),
                    1e3 * p99,
                )
                if cls is QoSClass.JOURNAL:
                    journal_p99[(system, mode)] = p99
    for system in systems:
        fcfs = journal_p99.get((system, "fcfs"))
        wrr = journal_p99.get((system, "wrr"))
        if fcfs is not None and wrr is not None:
            verdict = "lower" if wrr < fcfs else "NOT lower"
            table.note(
                f"{system}: journal p99 {1e3 * wrr:.3f} ms (wrr) vs "
                f"{1e3 * fcfs:.3f} ms (fcfs) — wrr {verdict}"
            )
    if batching:
        rtt = batching_round_trips(seed=seed)
        off, on = rtt["off"], rtt["on"]
        table.note(
            f"batching: nvmf.rtt {off['round_trips']:.0f} -> "
            f"{on['round_trips']:.0f} round trips at equal payload "
            f"({off['payload_bytes']:.0f} B vs {on['payload_bytes']:.0f} B)"
        )
    table.note("wrr weights: journal 8, recovery 4, ckpt_data 2, best_effort 1")
    return table
