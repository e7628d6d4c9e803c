"""The failover experiment: control-plane availability under faults.

For each (system, fault rate) cell the experiment runs a steady stream
of metadata operations against the system's control-plane store while
the fault injector alternates the two consensus-level fault kinds —
:class:`~repro.faults.model.LeaderKill` and a minority
:class:`~repro.faults.model.NetworkPartition` — and reports:

* **availability gap** — the longest interval between consecutive
  acknowledged operations (how long the control plane was unable to
  commit),
* **recovery latency** — time from each fault strike to the first
  subsequent acknowledged operation (election + catch-up for the
  replicated store; component repair for the single-authority baseline),
* **zero metadata loss** — after the run, every acknowledged operation
  is verified against the surviving state, and all full replicas must
  agree by content digest (the replicated store's restore-vs-pre-fault
  check).

Running it against ``nvmecr`` (single authority) alongside
``nvmecr-raft`` shows the trade the ROADMAP names: the baseline's gap is
the full component repair time, the replicated control plane's is one
election timeout.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Dict, List, Sequence, Tuple

from repro.bench.harness import ResultTable
from repro.faults.injector import FaultInjector
from repro.faults.model import Fault, LeaderKill, NetworkPartition
from repro.systems import build as build_system
from repro.units import GiB, MiB, ms

__all__ = ["failover"]

#: Client poll period while the single-authority baseline is down.
_DOWN_POLL = ms(2)


def _build(name: str, seed: int) -> Any:
    """One deployment-backed system, minimally provisioned (the failover
    workload is control-plane-only; no checkpoint data moves)."""
    kwargs: Dict[str, Any] = dict(
        nprocs=2, seed=seed, devices=2,
        bytes_per_device=max(GiB(1) // 8, 2 * MiB(64)), job_name="failover",
    )
    if name == "nvmecr-raft":
        kwargs.update(replicas=3, zones=2)
    return build_system(name, **kwargs)


def _recoveries(
    fault_times: Sequence[float], ack_times: Sequence[float]
) -> List[float]:
    """Time from each strike to the first ack strictly after it.

    ``ack_times`` is in time order (the client appends ``env.now``), so
    the first later ack sits at ``bisect_right``.  A strike with no
    later ack records no recovery.
    """
    recovery: List[float] = []
    for strike in fault_times:
        at = bisect_right(ack_times, strike)
        if at < len(ack_times):
            recovery.append(ack_times[at] - strike)
    return recovery


def _run_cell(
    name: str,
    fault_rate: float,
    n_ops: int,
    op_interval: float,
    repair_after: float,
    seed: int,
) -> Dict[str, Any]:
    """One (system, fault rate) cell; returns the measured dict."""
    handle = _build(name, seed)
    env = handle.env
    group = handle.extras.get("group")
    store = handle.extras.get("store")
    if store is None:
        from repro.core.control_plane import make_metadata_store

        store = make_metadata_store(env, "local")

    injector = FaultInjector(env)
    if group is not None:
        injector.attach_consensus(group)

    # The single-authority baseline has no elections: a control-plane
    # fault takes the one authority down until its repair completes.
    down = {"flag": False}
    fault_times: List[float] = []

    def on_fault(record: Any, fault: Fault, radius: Any) -> None:
        fault_times.append(record.injected_at)
        if group is None:
            down["flag"] = True

    def on_repair(record: Any, fault: Fault, radius: Any) -> None:
        if group is None:
            down["flag"] = False

    injector.subscribe(on_fault)
    injector.subscribe_repair(on_repair)

    # Evenly spaced strikes, alternating kind — same schedule for every
    # system at a given rate (common random numbers discipline, with no
    # randomness needed at all).
    duration = n_ops * op_interval
    n_faults = int(fault_rate * duration)
    for k in range(n_faults):
        at = (k + 0.5) * duration / max(n_faults, 1)
        fault: Fault = (
            LeaderKill("control-plane") if k % 2 == 0
            else NetworkPartition("control-plane")
        )
        injector.at(at, fault, repair_after=repair_after)
    injector.start()

    shadow: Dict[str, Tuple[int, int]] = {}
    ack_times: List[float] = []

    def client():
        if group is not None:
            yield from group.wait_leader(timeout=1.0)
        ack_times.append(env.now)
        for i in range(n_ops):
            yield env.timeout(op_interval)
            while down["flag"]:
                yield env.timeout(_DOWN_POLL)
            key = f"/ckpt/epoch{i:05d}"
            value = (i, i * 4096)
            yield from store.set(key, value)
            shadow[key] = value
            ack_times.append(env.now)
            if i % 16 == 0:
                yield from store.add_grant(
                    f"job{i // 16}", (("stor00", 1, MiB(64)),)
                )
                ack_times.append(env.now)
        # Let outstanding repairs land and laggards catch up (snapshot
        # install / log replay), then freeze the consensus group so the
        # residual-event drain terminates.
        yield env.timeout(2.0 * repair_after + ms(300))
        if group is not None:
            group.stop()

    proc = env.process(client())
    env.run_until_complete(proc)
    env.run()

    # -- verification: zero metadata loss -----------------------------------
    lost = sum(
        1 for key, value in shadow.items() if store.get(key) != value
    )
    digest_ok = True
    leader_changes = 0
    if group is not None:
        digests = set(group.digests().values())
        digest_ok = len(digests) == 1
        leader_changes = sum(
            len(group.nodes[m].terms_led) for m in group.members
        )

    gaps = [
        b - a for a, b in zip(ack_times, ack_times[1:])
    ]
    recovery = _recoveries(fault_times, ack_times)

    # Consensus-level latency distributions, read back from the obs
    # registry the Raft nodes populate (zeros for the single-authority
    # baseline, which holds no elections and commits nothing).
    elect_p99 = commit_p99 = 0.0
    appends = 0
    ctx = getattr(env, "obs", None)
    if ctx is not None:
        elect = ctx.metrics.histogram("consensus.election_latency_s")
        if elect.count:
            elect_p99 = elect.percentile(0.99)
        commit = ctx.metrics.histogram("consensus.commit_latency_s")
        if commit.count:
            commit_p99 = commit.percentile(0.99)
        appends = int(ctx.metrics.counter("consensus.append_entries").value)
    return dict(
        faults=len(fault_times),
        acked=len(shadow),
        avail_gap=max(gaps) if gaps else 0.0,
        mean_recovery=sum(recovery) / len(recovery) if recovery else 0.0,
        max_recovery=max(recovery) if recovery else 0.0,
        lost=lost,
        digest_ok=digest_ok,
        leader_changes=leader_changes,
        elect_p99=elect_p99,
        commit_p99=commit_p99,
        appends=appends,
    )


def failover(
    systems: Sequence[str] = ("nvmecr-raft",),
    fault_rates: Sequence[float] = (2.0, 5.0, 10.0),
    n_ops: int = 200,
    op_interval: float = ms(5),
    repair_after: float = ms(400),
    seed: int = 17,
) -> ResultTable:
    """Availability gap and recovery latency vs control-plane fault rate.

    Acceptance gate: with ``nvmecr-raft``, every cell must end with zero
    lost acknowledged operations and digest agreement across the full
    replicas — a leader kill and a minority partition are both survived.
    """
    table = ResultTable(
        "Failover: control-plane availability under leader kills and "
        "partitions",
        ["system", "faults_per_s", "faults", "ops_acked", "avail_gap_ms",
         "mean_rec_ms", "max_rec_ms", "elect_p99_ms", "commit_p99_ms",
         "appends", "lost_ops", "replicas_agree", "leader_changes"],
    )
    for name in systems:
        for rate in fault_rates:
            cell = _run_cell(
                name, rate, n_ops, op_interval, repair_after, seed
            )
            table.add(
                name, rate, cell["faults"], cell["acked"],
                cell["avail_gap"] * 1e3, cell["mean_recovery"] * 1e3,
                cell["max_recovery"] * 1e3, cell["elect_p99"] * 1e3,
                cell["commit_p99"] * 1e3, cell["appends"], cell["lost"],
                "yes" if cell["digest_ok"] else "NO",
                cell["leader_changes"],
            )
    table.note(
        "strikes alternate leader-kill / minority-partition on an even "
        "deterministic schedule; zero-loss = every acked op verified "
        "against surviving state"
    )
    return table
