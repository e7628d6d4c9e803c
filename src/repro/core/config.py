"""Runtime configuration: sizes, thresholds, and ablation flags.

The four feature flags mirror the drilldown of Figure 7(d): the base
configuration (all off) behaves like a traditional kernel filesystem
path; turning them on one-by-one reproduces the paper's optimisation
stack:

* ``userspace_direct``   — bypass the kernel (microfs principle 1),
* ``private_namespace``  — no global namespace / no create serialisation,
* ``metadata_provenance``— compact operation logging instead of
  physical (inode-image) logging,
* ``hugeblocks``         — 32 KiB allocation/IO units instead of 4 KiB.

``log_coalescing`` is the §III-E sliding-window optimisation evaluated
in Table II's recovery numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.bench import calibration as cal
from repro.errors import InvalidArgument

__all__ = ["RuntimeConfig"]


@dataclass(frozen=True)
class RuntimeConfig:
    """Per-runtime-instance configuration (immutable; use ``with_()``)."""

    hugeblock_bytes: int = cal.DEFAULT_HUGEBLOCK
    log_region_bytes: int = cal.LOG_REGION_BYTES
    state_region_bytes: int = cal.STATE_REGION_BYTES
    log_free_threshold: float = cal.LOG_FREE_THRESHOLD
    max_batch_bytes: int = cal.MAX_BATCH_BYTES
    # Doorbell batching of checkpoint data writes (off by default: the
    # pinned-seed baselines are bit-identical with it disabled).
    batching: bool = False
    # Ablation flags (Figure 7(d) drilldown).
    userspace_direct: bool = True
    private_namespace: bool = True
    metadata_provenance: bool = True
    hugeblocks: bool = True
    log_coalescing: bool = True
    # Control-plane metadata authority: "local" (single authority, the
    # paper's baseline) or "raft" (replicated across zones; built by the
    # nvmecr-raft system variant).
    control_plane_mode: str = "local"
    # Checkpoint placement over storage tiers: "fixed-interval" is the
    # paper's every-k-th rule (§III-F, bit-identical baselines);
    # "cost-model" scores each tier's write cost against its residual
    # failure risk (built by the nvmecr-tiered system variant).
    checkpoint_placement: str = "fixed-interval"

    def __post_init__(self) -> None:
        if self.checkpoint_placement not in ("fixed-interval", "cost-model"):
            raise InvalidArgument(
                f"checkpoint_placement must be 'fixed-interval' or "
                f"'cost-model', got {self.checkpoint_placement!r}"
            )
        if self.control_plane_mode not in ("local", "raft"):
            raise InvalidArgument(
                f"control_plane_mode must be 'local' or 'raft', got "
                f"{self.control_plane_mode!r}"
            )
        if self.hugeblock_bytes < 4096 or self.hugeblock_bytes % 4096 != 0:
            raise InvalidArgument(
                f"hugeblock size must be a positive multiple of 4 KiB, got "
                f"{self.hugeblock_bytes}"
            )
        if not 0.0 < self.log_free_threshold < 1.0:
            raise InvalidArgument("log_free_threshold must be in (0, 1)")
        if self.max_batch_bytes < self.hugeblock_bytes:
            raise InvalidArgument("max_batch_bytes must cover one hugeblock")

    @property
    def effective_block_bytes(self) -> int:
        """Allocation/IO unit: hugeblocks when enabled, else 4 KiB."""
        return self.hugeblock_bytes if self.hugeblocks else 4096

    def with_(self, **changes) -> "RuntimeConfig":
        """A modified copy (dataclass ``replace`` with validation)."""
        return replace(self, **changes)

    @classmethod
    def drilldown_base(cls) -> "RuntimeConfig":
        """Figure 7(d)'s 'base': kernel-path, global-namespace, physical
        logging, 4 KiB blocks."""
        return cls(
            userspace_direct=False,
            private_namespace=False,
            metadata_provenance=False,
            hugeblocks=False,
            log_coalescing=False,
        )
