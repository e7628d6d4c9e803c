"""A Slurm-like scheduler with a GRES plugin for NVMe namespaces.

Responsibilities (kept deliberately close to what real Slurm provides,
because the paper's balancer "works along with the job scheduler"):

* allocate whole compute nodes to jobs, FCFS;
* grant storage as NVMe *namespaces* carved from registered SSDs —
  creating new namespaces from unused space when none are free;
* expose the cluster topology so the storage balancer can pick SSDs in
  partner failure domains;
* reclaim everything when a job finishes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import AllocationError, SchedulerError
from repro.nvme.device import SSD
from repro.nvme.namespace import Namespace
from repro.obs.context import tracer_of
from repro.scheduler.jobs import JobRecord, JobSpec, JobState
from repro.sim.engine import Environment
from repro.topology.cluster import ClusterSpec, NodeKind
from repro.topology.network import NetworkTopology

__all__ = ["SlurmScheduler", "StorageGrant"]


@dataclass
class StorageGrant:
    """One namespace granted to a job on one storage node."""

    node_name: str
    ssd: SSD
    namespace: Namespace


class SlurmScheduler:
    """Tracks node and namespace inventory; answers allocation requests."""

    def __init__(self, env: Environment, cluster: ClusterSpec, topo: Optional[NetworkTopology] = None):
        self.env = env
        self.cluster = cluster
        self.topo = topo if topo is not None else NetworkTopology(cluster)
        self._job_ids = itertools.count(1)
        self._free_compute = [n.name for n in cluster.compute_nodes()]
        self._ssds: Dict[str, List[SSD]] = {}
        self._grants: Dict[int, List[StorageGrant]] = {}
        self.jobs: Dict[int, JobRecord] = {}

    # -- observability ------------------------------------------------------------

    def _obs_instant(self, name: str, **attrs) -> None:
        """Scheduler decisions are instants on the shared ``scheduler`` track."""
        tr = tracer_of(self.env)
        if tr is not None:
            tr.instant(name, cat="sched", track="scheduler", **attrs)
        ctx = self.env.obs
        if ctx is not None:
            ctx.metrics.counter(name.replace("sched.", "sched.events.")).add(1)

    def _obs_queue_wait(self, record: JobRecord) -> None:
        """Queue-wait span: submitted_at -> granted (backdated begin)."""
        tr = tracer_of(self.env)
        if tr is None:
            return
        span = tr.begin("sched.queue_wait", cat="sched", track="scheduler",
                        parent=None, job=record.spec.name, job_id=record.job_id)
        span.begin = record.submitted_at
        tr.end(span)

    # -- inventory ----------------------------------------------------------------

    def register_ssd(self, node_name: str, ssd: SSD) -> None:
        """Attach a device to a storage node (driver does this at boot)."""
        node = self.cluster.node(node_name)
        if node.kind is not NodeKind.STORAGE:
            raise SchedulerError(f"{node_name} is not a storage node")
        self._ssds.setdefault(node_name, []).append(ssd)

    def storage_inventory(self) -> Dict[str, List[SSD]]:
        return {node: list(ssds) for node, ssds in self._ssds.items()}

    def free_compute_nodes(self) -> List[str]:
        return list(self._free_compute)

    # -- job lifecycle ----------------------------------------------------------------

    def submit(self, spec: JobSpec) -> JobRecord:
        """Allocate compute nodes immediately (FCFS; raises if impossible)."""
        needed = spec.compute_nodes_needed()
        if needed > len(self.cluster.compute_nodes()):
            raise AllocationError(
                f"job {spec.name} needs {needed} compute nodes; cluster has "
                f"{len(self.cluster.compute_nodes())}"
            )
        record = JobRecord(spec=spec, job_id=next(self._job_ids), submitted_at=self.env.now)
        self.jobs[record.job_id] = record
        if needed <= len(self._free_compute):
            record.compute_nodes = [self._free_compute.pop(0) for _ in range(needed)]
            record.state = JobState.RUNNING
            record.started_at = self.env.now
        self._obs_instant("sched.submit", job=spec.name, job_id=record.job_id,
                          nodes=needed, granted=record.state is JobState.RUNNING)
        if record.state is JobState.RUNNING:
            self._obs_queue_wait(record)
        return record

    def grant_storage(
        self,
        job: JobRecord,
        node_names: List[str],
        bytes_per_device: Optional[int] = None,
    ) -> List[StorageGrant]:
        """GRES: carve one namespace per requested storage node.

        The *balancer* chooses ``node_names``; the scheduler only enforces
        inventory and creates namespaces from unused SSD space.
        """
        if job.state is not JobState.RUNNING:
            raise SchedulerError(f"job {job.spec.name} is not running")
        quota = bytes_per_device or job.spec.storage_bytes_per_device
        grants: List[StorageGrant] = []
        for node_name in node_names:
            ssds = self._ssds.get(node_name)
            if not ssds:
                raise AllocationError(f"no SSDs registered on {node_name}")
            ssd = max(ssds, key=lambda s: s.free_bytes())
            if ssd.free_bytes() < quota:
                raise AllocationError(
                    f"{node_name}:{ssd.name} has {ssd.free_bytes()} free, "
                    f"job {job.spec.name} wants {quota}"
                )
            ns = ssd.create_namespace(quota, owner_job=job.spec.name)
            grants.append(StorageGrant(node_name, ssd, ns))
        self._grants.setdefault(job.job_id, []).extend(grants)
        self._obs_instant("sched.grant", job=job.spec.name,
                          nodes=",".join(node_names), bytes_per_device=quota)
        return grants

    def complete(self, job: JobRecord, failed: bool = False) -> None:
        """Release nodes and delete the job's namespaces (ephemeral!)."""
        if job.state is not JobState.RUNNING:
            raise SchedulerError(f"job {job.spec.name} is not running")
        job.state = JobState.FAILED if failed else JobState.COMPLETED
        job.finished_at = self.env.now
        self._free_compute.extend(job.compute_nodes)
        for grant in self._grants.pop(job.job_id, []):
            grant.ssd.delete_namespace(grant.namespace.nsid)
        self._obs_instant("sched.complete", job=job.spec.name, failed=failed)
