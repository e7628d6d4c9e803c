"""The tiers experiment: cost-model vs fixed-k checkpoint placement.

§III-F's every-k-th-to-Lustre rule is one point in a policy space.
With a calibrated NVM tier behind the
:class:`~repro.tiers.base.DeviceModel` seam, the placement question
becomes quantitative: for each checkpoint, pay a fast tier's write cost
and risk losing it to a cascading strike, or pay the durable tier's
cost and bound the rework.  This experiment runs the same
compute/checkpoint loop under an injected strike campaign for

* ``nvmecr`` — the paper's two-level runtime with the fixed-k rule
  (the Table II baseline, untouched),
* ``nvmecr-tiered`` — a four-level hierarchy (byte-addressable NVM,
  local NVMe, NVMf partner, PFS) under both the fixed-k rule and the
  :class:`~repro.core.placement.CostModelPolicy`,

and reports, per (system, policy, strike MTBF) cell: checkpoint
overhead, restore time, lost work on failure, the fraction of durable
checkpoints, and their sum (``score_s`` — lower is better).

Strikes follow common-random-numbers discipline: for a given MTBF the
schedule comes from :func:`~repro.faults.hazard.campaign_failure_times`
under the experiment seed alone, so every system/policy faces the
identical campaign.  Severity cycles domain -> node -> cascade:

* **domain** — the compute node's failure domain dies: byte-addressable
  and node-local tiers (residual risk >= 0.5) lose their data,
* **node** — the rank's process dies but storage survives: pure
  restart, restore from the newest checkpoint anywhere,
* **cascade** — correlated loss reaching the partner domain: every
  non-durable tier (residual risk > 0) is wiped, only the PFS holds.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.baselines.lustre import LustreCluster
from repro.bench import calibration as cal
from repro.bench.harness import ResultTable
from repro.core.multilevel import MultiLevelCheckpointer
from repro.core.placement import CostModelPolicy, FixedIntervalPolicy, TierTarget
from repro.errors import FileExists, RecoveryError
from repro.faults.hazard import campaign_failure_times
from repro.systems import build as build_system
from repro.units import GiB, MiB

__all__ = ["tiers"]

#: Residual data-loss probability per tier class under a matching-severity
#: strike: node-local tiers (NVM module, local NVMe) share the compute
#: node's failure domain; the NVMf partner sits one domain away; the PFS
#: is durable by definition (§III-F).
_RESIDUAL_LOCAL = 0.67
_RESIDUAL_PARTNER = 0.33

#: Fixed per-restore overhead of the PFS tier (remount + namespace scan).
_PFS_RESTORE_COST = 0.5


def _dead_levels(residuals: Sequence[float], severity: int) -> List[int]:
    """1-based tier levels wiped by a strike of the given severity."""
    if severity == 0:  # domain: node-local tiers gone
        return [lv for lv, r in enumerate(residuals, start=1) if r >= 0.5]
    if severity == 1:  # node: process restart, storage intact
        return []
    # cascade: everything non-durable
    return [lv for lv, r in enumerate(residuals, start=1) if r > 0.0]


def _rank_program(
    env: Any,
    comm: Any,
    mlc: MultiLevelCheckpointer,
    residuals: Sequence[float],
    steps: int,
    nbytes: int,
    compute_phase: float,
    strikes: Sequence[float],
):
    """One rank's compute/checkpoint loop under the strike campaign.

    Strikes are applied at the first post-checkpoint barrier after
    their scheduled time: the affected tiers forget their data, then
    the rank restores from the newest surviving checkpoint and the
    rolled-back compute is charged as lost work (the run itself moves
    forward — rework is accounted, not replayed, so every cell sees
    the same number of checkpoint opportunities).
    """
    stats = {
        "ckpt": 0.0, "restore": 0.0, "lost": 0.0,
        "durable": 0, "faults": 0,
    }
    idx = 0
    for step in range(steps):
        yield env.timeout(compute_phase)
        yield from comm.barrier()
        t0 = env.now
        record = yield from mlc.write_checkpoint(step, nbytes)
        yield from comm.barrier()
        stats["ckpt"] += env.now - t0
        if residuals[record.level - 1] == 0.0:
            stats["durable"] += 1
        while idx < len(strikes) and strikes[idx] <= env.now:
            severity = idx % 3
            dead = _dead_levels(residuals, severity)
            stats["faults"] += 1
            for level in dead:
                lose = getattr(mlc._client_for(level), "lose_data", None)
                if lose is not None:
                    lose()
            if dead:
                mlc.forget_levels(dead)
            t0 = env.now
            try:
                restored = yield from mlc.recover_latest(dead_levels=dead)
                restored_step = restored.step
            except RecoveryError:
                restored_step = -1
            stats["restore"] += env.now - t0
            stats["lost"] += (step - restored_step) * compute_phase
            idx += 1
    return stats


def _run_cell(
    system: str,
    policy_kind: Optional[str],
    mtbf: float,
    nprocs: int,
    steps: int,
    nbytes: int,
    compute_phase: float,
    pfs_interval: int,
    strikes: Sequence[float],
    seed: int,
) -> Tuple[str, Dict[str, Any]]:
    """One (system, policy, MTBF) cell; returns (policy name, stats)."""
    from repro.tiers.client import PosixTierAdapter, TierClient

    handle = build_system(
        system, nprocs=nprocs, seed=seed, devices=min(nprocs, 8),
        bytes_per_device=steps * nbytes + GiB(1), job_name="tiers",
    )
    env = handle.env
    lustre = LustreCluster(env, servers=1)
    plan = handle.extras["plan"]

    if system == "nvmecr-tiered":
        if policy_kind is None:
            # The run config is the default policy authority: the
            # nvmecr-tiered builder requests cost-model placement.
            placement = handle.extras["config"].checkpoint_placement
            policy_kind = (
                "cost-model" if placement == "cost-model" else "fixed-k"
            )
        fast = handle.extras["fast_device"]
        nvm_client = TierClient(fast, name="nvm")
        residuals = (
            _RESIDUAL_LOCAL, _RESIDUAL_LOCAL, _RESIDUAL_PARTNER, 0.0,
        )

        def rank_main(shim, comm):
            ssd = plan.grant_of_rank(comm.rank).ssd
            pfs_bw = lustre.aggregate_bandwidth() / nprocs
            targets = [
                TierTarget(
                    "nvm", nvm_client,
                    write_bandwidth=cal.NVM_WRITE_BANDWIDTH,
                    read_bandwidth=cal.NVM_READ_BANDWIDTH,
                    write_latency=cal.NVM_WRITE_LATENCY + cal.NVM_PERSIST_BARRIER,
                    residual_failure_prob=_RESIDUAL_LOCAL,
                ),
                TierTarget(
                    "nvme-local", TierClient(ssd, name=f"ssd-r{comm.rank}"),
                    write_bandwidth=ssd.write_bandwidth(),
                    read_bandwidth=ssd.read_bandwidth(),
                    write_latency=ssd.spec.access_latency,
                    residual_failure_prob=_RESIDUAL_LOCAL,
                ),
                TierTarget(
                    "nvmf-partner", PosixTierAdapter(shim),
                    write_bandwidth=ssd.write_bandwidth(),
                    read_bandwidth=ssd.read_bandwidth(),
                    write_latency=2 * cal.SSD_DEFAULT_ACCESS_LATENCY,
                    residual_failure_prob=_RESIDUAL_PARTNER,
                ),
                TierTarget(
                    "pfs", lustre,
                    write_bandwidth=pfs_bw,
                    read_bandwidth=pfs_bw,
                    residual_failure_prob=0.0,
                    restore_cost_s=_PFS_RESTORE_COST,
                ),
            ]
            if policy_kind == "cost-model":
                policy = CostModelPolicy(targets, strike_mtbf=mtbf)
            else:
                policy = FixedIntervalPolicy(
                    pfs_interval, durable_level=len(targets)
                )
            mlc = MultiLevelCheckpointer(
                targets=targets, pfs_interval=pfs_interval,
                rank=comm.rank, policy=policy,
            )
            return (yield from _rank_program(
                shim.env, comm, mlc, residuals,
                steps, nbytes, compute_phase, strikes,
            ))
    else:
        policy_kind = policy_kind or "fixed-k"
        residuals = (_RESIDUAL_LOCAL, 0.0)

        def rank_main(shim, comm):
            try:
                yield from shim.mkdir("/ckpt")
            except FileExists:
                pass
            mlc = MultiLevelCheckpointer(
                shim, lustre, pfs_interval=pfs_interval, rank=comm.rank,
            )
            mlc._dir_made = True
            return (yield from _rank_program(
                shim.env, comm, mlc, residuals,
                steps, nbytes, compute_phase, strikes,
            ))

    ranks = handle.run_ranks(rank_main)
    stats = {
        "ckpt": max(r["ckpt"] for r in ranks),
        "restore": max(r["restore"] for r in ranks),
        "lost": max(r["lost"] for r in ranks),
        "faults": ranks[0]["faults"],
        "durable_frac": ranks[0]["durable"] / steps,
    }
    return policy_kind, stats


def tiers(
    nprocs: int = 2,
    steps: int = 20,
    nbytes: int = MiB(64),
    compute_phase: float = 1.0,
    pfs_interval: int = 10,
    mtbfs: Sequence[float] = (8.0, 20.0, 120.0),
    seed: int = 23,
    systems: Sequence[str] = ("nvmecr", "nvmecr-tiered"),
) -> ResultTable:
    """Checkpoint placement policies under injected tier-loss strikes.

    For each strike MTBF, the fixed-k baseline runs on both the
    two-level runtime and the four-level hierarchy, and the cost model
    runs on the hierarchy; ``score_s`` (checkpoint overhead + restore
    + lost work, lower is better) is the headline comparison.
    """
    table = ResultTable(
        "Tiers: checkpoint placement under tier-loss strikes",
        [
            "system", "policy", "mtbf_s", "faults", "ckpt_s",
            "restore_s", "lost_work_s", "durable_frac", "score_s",
        ],
    )
    # Generous fixed horizon so one schedule covers every cell's run
    # (slower cells simply meet more of the same strikes).
    horizon = steps * (compute_phase + 4.0)
    for mtbf in mtbfs:
        strikes = campaign_failure_times(seed, mtbf, horizon, rank=0)
        for system in systems:
            policies: List[Optional[str]] = (
                ["fixed-k", "cost-model"]
                if system == "nvmecr-tiered" else ["fixed-k"]
            )
            for policy_kind in policies:
                name, stats = _run_cell(
                    system, policy_kind, mtbf, nprocs, steps, nbytes,
                    compute_phase, pfs_interval, strikes, seed,
                )
                score = stats["ckpt"] + stats["restore"] + stats["lost"]
                table.add(
                    system, name, mtbf, stats["faults"], stats["ckpt"],
                    stats["restore"], stats["lost"], stats["durable_frac"],
                    score,
                )
    table.note(
        "score_s = ckpt_s + restore_s + lost_work_s (lower is better); "
        "common-random-number strikes, severity cycling "
        "domain/node/cascade"
    )
    return table
