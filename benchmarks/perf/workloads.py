"""The four benchmark workloads, composed only from public ``repro`` APIs.

Each workload splits one *repeat* into two phases:

* ``run(seed)`` builds the system(s) through :mod:`repro.systems` and
  simulates; this is the timed phase.  Host time spent inside
  ``SystemSpec.build`` is set-up (``setup_s``); the rest is ``host_s``.
* ``check(state, seed)`` verifies the results (untimed) and returns an
  :class:`Outcome`: operations attempted, operations failed, and the
  deterministic result values whose digest the golden file pins.

Workload names are fixed: later changes cite them.  Their sizes are
constructor arguments so the self-test can run the same code small.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.apps.comd import CoMDConfig, CoMDProxy
from repro.bench.failover import failover
from repro.bench.harness import dump_files
from repro.core.config import RuntimeConfig
from repro.metrics import efficiency
from repro.systems import build
from repro.units import GiB, KiB, MiB

__all__ = ["Outcome", "Workload", "Dump", "ComdRestart", "RaftFailover",
           "canonical", "digest"]

#: Reserved MicroFS regions the paper experiments use (library defaults
#: are sized for production partitions and would not fit 1 GiB ones).
_LOG_REGION = MiB(4)
_STATE_REGION = MiB(16)


def digest(result: Dict[str, Any]) -> str:
    """Stable short hash of a result dict (floats by exact repr)."""
    text = json.dumps(result, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Outcome:
    """One repeat's correctness verdict."""

    attempted: int
    failed: int
    result: Dict[str, Any] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    @property
    def digest(self) -> str:
        return digest(self.result)


class Workload:
    """One named input set; subclasses supply ``run`` and ``check``."""

    name = ""
    default_seed = 0

    def params(self) -> Dict[str, Any]:
        """The sizes that, with the seed, determine the result."""
        raise NotImplementedError

    def run(self, seed: int) -> Any:
        raise NotImplementedError

    def check(self, state: Any, seed: int) -> Outcome:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# dump-4k / dump-2m: standalone MicroFS fleets on one local P4800X


class Dump(Workload):
    """``fleets`` MicroFS fleets; every rank dumps one fsynced file."""

    def __init__(self, name: str, block: int, fleets: int, nprocs: int = 28,
                 file_bytes: int = MiB(512), default_seed: int = 2):
        self.name = name
        self.block = block
        self.fleets = fleets
        self.nprocs = nprocs
        self.file_bytes = file_bytes
        self.default_seed = default_seed

    def params(self) -> Dict[str, Any]:
        return {"block": self.block, "fleets": self.fleets,
                "nprocs": self.nprocs, "file_bytes": self.file_bytes}

    def run(self, seed: int) -> List[Tuple[Any, float, List[Optional[str]]]]:
        config = RuntimeConfig(log_region_bytes=_LOG_REGION,
                               state_region_bytes=_STATE_REGION,
                               hugeblock_bytes=self.block)
        dump = dump_files(self.file_bytes)
        fleets = []
        for fleet_seed in range(seed, seed + self.fleets):
            handle = build("microfs", nprocs=self.nprocs, config=config,
                           partition_bytes=2 * self.file_bytes + MiB(64),
                           seed=fleet_seed)
            errors: List[Optional[str]] = [None] * self.nprocs

            def work(i, client, errors=errors):
                try:
                    yield from dump(i, client)
                except Exception as exc:  # noqa: BLE001 - counted as a failed op
                    errors[i] = repr(exc)

            makespan = handle.makespan(work)
            fleets.append((handle, makespan, errors))
        return fleets

    def check(self, state, seed: int) -> Outcome:
        out = Outcome(attempted=self.fleets * self.nprocs, failed=0)
        makespans = []
        for handle, makespan, errors in state:
            makespans.append(makespan)
            for rank, client in enumerate(handle.clients):
                fs = handle.cluster.instances[rank]
                path = f"/ckpt/rank{rank:05d}_step0000.dat"
                problem = errors[rank]
                if problem is None:
                    try:
                        size = client.stat(path).size
                        fs.check_consistency()
                    except Exception as exc:  # noqa: BLE001 - reported, not raised
                        problem = repr(exc)
                    else:
                        if size != self.file_bytes:
                            problem = f"{path}: size {size} != {self.file_bytes}"
                if problem is not None:
                    out.failed += 1
                    out.errors.append(problem)
        out.result = {"makespan_s": makespans}
        return out


# ---------------------------------------------------------------------------
# comd-restart: the full NVMe-CR runtime, checkpoint then restart


class ComdRestart(Workload):
    """CoMD weak scaling through ``nvmecr``, then every checkpoint read back."""

    name = "comd-restart"

    def __init__(self, nprocs: int = 56, checkpoints: int = 3,
                 atoms_per_rank: int = 32_000, devices: int = 8,
                 default_seed: int = 8):
        self.nprocs = nprocs
        self.checkpoints = checkpoints
        self.atoms_per_rank = atoms_per_rank
        self.devices = devices
        self.default_seed = default_seed

    def params(self) -> Dict[str, Any]:
        return {"nprocs": self.nprocs, "checkpoints": self.checkpoints,
                "atoms_per_rank": self.atoms_per_rank, "devices": self.devices}

    def _device_quota(self, config: CoMDConfig) -> int:
        # Same sizing as the fig9 experiment: data plus per-rank reserved
        # metadata regions, 1.5x slack, at least 1 GiB per device.
        per_rank = config.checkpoint_bytes_per_rank * config.checkpoints
        ranks_per_device = -(-self.nprocs // self.devices)
        return max(GiB(1), ranks_per_device * (int(1.5 * per_rank) + MiB(64)))

    def run(self, seed: int):
        config = CoMDConfig(atoms_per_rank=self.atoms_per_rank,
                            checkpoints=self.checkpoints)
        comd = CoMDProxy(config, seed=seed)
        handle = build(
            "nvmecr", nprocs=self.nprocs, seed=seed, devices=self.devices,
            bytes_per_device=self._device_quota(config),
            config=RuntimeConfig(log_region_bytes=_LOG_REGION,
                                 state_region_bytes=_STATE_REGION),
            job_name="comd",
        )

        def rank_main(shim, comm):
            written = yield from comd.rank_main(shim, comm)
            read = yield from comd.restart_main(shim, comm)
            return written, read

        try:
            ranks = handle.run_ranks(rank_main)
        except Exception as exc:  # noqa: BLE001 - every op of the repeat fails
            return handle, config, None, repr(exc)
        return handle, config, ranks, None

    def check(self, state, seed: int) -> Outcome:
        handle, config, ranks, error = state
        per_rank = 2 * self.checkpoints
        out = Outcome(attempted=self.nprocs * per_rank, failed=0)
        if ranks is None:
            out.failed = out.attempted
            out.errors.append(error)
            return out
        for rank, (written, read) in enumerate(ranks):
            done = (min(len(written.checkpoint_times), self.checkpoints)
                    + min(len(read.restart_times), self.checkpoints))
            if written.bytes_written != read.bytes_read:
                out.failed += per_rank
                out.errors.append(f"rank {rank}: read {read.bytes_read} "
                                  f"!= written {written.bytes_written}")
            else:
                out.failed += per_rank - done
        total = self.nprocs * config.checkpoint_bytes_per_rank * self.checkpoints
        ckpt_time = max(w.checkpoint_time for w, _r in ranks)
        rec_time = max(r.restart_time for _w, r in ranks)
        out.result = {
            "ckpt_eff": efficiency(total, ckpt_time,
                                   handle.aggregate_write_bandwidth()),
            "rec_eff": efficiency(total, rec_time,
                                  handle.aggregate_read_bandwidth()),
        }
        return out


# ---------------------------------------------------------------------------
# raft-failover: the replicated control plane under leader kills/partitions


class RaftFailover(Workload):
    """``failover`` on ``nvmecr-raft`` at one fault rate."""

    name = "raft-failover"

    def __init__(self, n_ops: int = 4000, fault_rate: float = 5.0,
                 default_seed: int = 17):
        self.n_ops = n_ops
        self.fault_rate = fault_rate
        self.default_seed = default_seed

    def params(self) -> Dict[str, Any]:
        return {"n_ops": self.n_ops, "fault_rate": self.fault_rate}

    def run(self, seed: int):
        try:
            return failover(fault_rates=(self.fault_rate,), n_ops=self.n_ops,
                            seed=seed), None
        except Exception as exc:  # noqa: BLE001 - every op of the repeat fails
            return None, repr(exc)

    def check(self, state, seed: int) -> Outcome:
        table, error = state
        out = Outcome(attempted=self.n_ops, failed=0)
        if table is None:
            out.failed = out.attempted
            out.errors.append(error)
            return out
        row = dict(zip(table.columns, table.rows[0]))
        out.failed = min(self.n_ops,
                         int(row["lost_ops"]) + self.n_ops - int(row["ops_acked"]))
        if row["replicas_agree"] != "yes":
            out.failed = out.attempted
            out.errors.append("replicas disagree")
        elif out.failed:
            out.errors.append(f"{row['lost_ops']} acknowledged ops lost")
        out.result = row
        return out


def canonical() -> Dict[str, Workload]:
    """The benchmark's workloads at full size, by name.

    Why each was chosen (README.md has the measurements):

    * ``dump-4k`` -- 131,072 hugeblocks per file, so MicroFS allocation
      and block pools dominate host time, set-up and memory;
    * ``dump-2m`` -- the same dump with 256 blocks per file, eight fleets
      per repeat: every layer below MicroFS gets the same calls per
      fleet, the allocator drops out;
    * ``comd-restart`` -- the only workload with NVMf, MPI collectives
      and the read/recovery path, driven through ``run_until_complete``;
    * ``raft-failover`` -- no storage data path at all: the engine loop
      and consensus, the control for storage-layer changes.
    """
    workloads = [Dump("dump-4k", KiB(4), fleets=1),
                 Dump("dump-2m", MiB(2), fleets=8),
                 ComdRestart(),
                 RaftFailover()]
    return {w.name: w for w in workloads}
