"""Job descriptions and lifecycle state."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import SchedulerError

__all__ = ["JobSpec", "JobState", "JobRecord"]

# §III-F: "the process:SSD ratio is in the range 56-112 ... at this
# ratio NVMe SSD bandwidth is utilized to its maximum."
PROC_SSD_RATIO_LOW = 56
PROC_SSD_RATIO_HIGH = 112


class JobState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"


@dataclass(frozen=True)
class JobSpec:
    """What a user submits."""

    name: str
    user: str
    nprocs: int
    procs_per_node: int = 28
    storage_devices: Optional[int] = None  # None -> derived from the ratio rule
    storage_bytes_per_device: int = 64 * 1024**3

    def __post_init__(self) -> None:
        if self.nprocs < 1:
            raise SchedulerError(f"job {self.name}: nprocs must be >= 1")
        if self.procs_per_node < 1:
            raise SchedulerError(f"job {self.name}: procs_per_node must be >= 1")
        if self.storage_devices is not None and self.storage_devices < 1:
            raise SchedulerError(f"job {self.name}: storage_devices must be >= 1")

    def compute_nodes_needed(self) -> int:
        return -(-self.nprocs // self.procs_per_node)

    def storage_devices_needed(self) -> int:
        """User-specified count, else the paper's ratio rule (§III-F).

        Target the middle of the 56-112 band so small jobs get one SSD
        and 448 processes get 8 (the full storage rack), matching §IV.
        """
        if self.storage_devices is not None:
            return self.storage_devices
        return max(1, -(-self.nprocs // PROC_SSD_RATIO_LOW))


@dataclass
class JobRecord:
    """Scheduler-side view of a submitted job."""

    spec: JobSpec
    job_id: int
    state: JobState = JobState.PENDING
    compute_nodes: List[str] = field(default_factory=list)
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None

    def rank_to_node(self, rank: int) -> str:
        """Block placement: ranks fill nodes in order (mpiexec default)."""
        if not self.compute_nodes:
            raise SchedulerError(f"job {self.spec.name} has no allocation")
        node_index = rank // self.spec.procs_per_node
        if node_index >= len(self.compute_nodes):
            raise SchedulerError(
                f"rank {rank} beyond allocation of job {self.spec.name}"
            )
        return self.compute_nodes[node_index]
