"""Load-aware, fault-aware storage balancing (§III-F).

The balancer runs twice per job, exactly as the paper describes:

1. **Allocation** (with the scheduler): pick SSDs for the job on the
   *closest available partner failure domains* — storage must sit in a
   different failure domain than the compute it protects, preferring
   fewer switch hops.
2. **Partitioning** (at runtime init): map processes to the allocated
   SSDs round-robin ("Processes within a job are assigned to the
   allocated SSDs in a round robin manner to achieve load balancing"),
   then slice each SSD between its processes by ``MPI_COMM_CR`` rank.

Round-robin assignment of equal-size checkpoint files is what produces
the *perfect* load balance of Figure 7(b): the per-server coefficient of
variation is identically zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import AllocationError
from repro.nvme.namespace import Partition
from repro.scheduler.jobs import JobRecord
from repro.scheduler.slurm import SlurmScheduler, StorageGrant
from repro.topology.failure_domains import (
    FailureDomain,
    derive_failure_domains,
    partner_domains,
)

__all__ = ["BalancerPlan", "StorageBalancer"]


@dataclass
class BalancerPlan:
    """The process <-> storage mapping for one job."""

    job: JobRecord
    grants: List[StorageGrant]
    rank_to_grant: Dict[int, int] = field(default_factory=dict)

    def grant_of_rank(self, rank: int) -> StorageGrant:
        return self.grants[self.rank_to_grant[rank]]

    def color_of_rank(self, rank: int) -> int:
        """The ``MPI_Comm_split`` color: one color per shared SSD."""
        return self.rank_to_grant[rank]

    def group_of_grant(self, grant_index: int) -> List[int]:
        """World ranks sharing grant ``grant_index`` (the MPI_COMM_CR group)."""
        return sorted(
            rank for rank, g in self.rank_to_grant.items() if g == grant_index
        )

    def partition_for(self, rank: int, block_bytes: int) -> Partition:
        """This rank's contiguous SSD segment (§III-F / Figure 6)."""
        grant_index = self.rank_to_grant[rank]
        group = self.group_of_grant(grant_index)
        local_rank = group.index(rank)
        return self.grants[grant_index].namespace.partition(
            local_rank, len(group), block_bytes
        )


class StorageBalancer:
    """Chooses storage nodes for jobs and maps ranks onto them."""

    def __init__(self, scheduler: SlurmScheduler):
        self.scheduler = scheduler
        self.topo = scheduler.topo
        self._domains = derive_failure_domains(scheduler.cluster)
        self._partners = partner_domains(self.topo, self._domains)

    # -- failure-domain queries ----------------------------------------------------

    def domain_of_node(self, node_name: str) -> FailureDomain:
        for domain in self._domains:
            if node_name in domain:
                return domain
        raise AllocationError(f"node {node_name} is in no failure domain")

    def job_domains(self, job: JobRecord) -> List[FailureDomain]:
        seen: Dict[str, FailureDomain] = {}
        for node in job.compute_nodes:
            domain = self.domain_of_node(node)
            seen[domain.domain_id] = domain
        return list(seen.values())

    # -- allocation -----------------------------------------------------------------------

    def allocate(
        self,
        job: JobRecord,
        devices: Optional[int] = None,
        bytes_per_device: Optional[int] = None,
        allow_same_domain: bool = False,
    ) -> BalancerPlan:
        """Pick storage nodes on partner domains and build the rank map.

        Greedy walk: partner domains of the job's compute domains in
        hop-distance order; within a domain, storage nodes in name order
        (deterministic). Raises :class:`AllocationError` when partner
        domains cannot supply enough devices, unless ``allow_same_domain``
        explicitly waives fault isolation.
        """
        wanted = devices if devices is not None else job.spec.storage_devices_needed()
        compute_domains = {d.domain_id for d in self.job_domains(job)}
        if not compute_domains:
            raise AllocationError(f"job {job.spec.name} has no compute allocation")
        inventory = self.scheduler.storage_inventory()
        candidates: List[str] = []
        primary = self.job_domains(job)[0]
        for domain in self._partners[primary.domain_id]:
            if domain.domain_id in compute_domains:
                continue  # not a partner: shares hardware with the job
            for node in sorted(domain.node_names()):
                if node in inventory and node not in candidates:
                    candidates.append(node)
        if allow_same_domain and len(candidates) < wanted:
            for domain_id in sorted(compute_domains):
                domain = next(d for d in self._domains if d.domain_id == domain_id)
                for node in sorted(domain.node_names()):
                    if node in inventory and node not in candidates:
                        candidates.append(node)
        if len(candidates) < wanted:
            raise AllocationError(
                f"job {job.spec.name}: need {wanted} storage nodes on partner "
                f"domains, found {len(candidates)}"
            )
        chosen = candidates[:wanted]
        grants = self.scheduler.grant_storage(job, chosen, bytes_per_device)
        plan = BalancerPlan(job=job, grants=grants)
        for rank in range(job.spec.nprocs):
            plan.rank_to_grant[rank] = rank % len(grants)
        return plan
