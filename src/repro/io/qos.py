"""Traffic classes of the data plane's IOs.

The runtime differentiates three kinds of traffic (plus a default): the
operation-log WAL barrier (latency-critical, tiny), bulk checkpoint
data (bandwidth-bound, large), and recovery reads (restart critical
path). Every data-plane IO carries its class through the NVMf session
to the device, so the device's front-end arbiter can order traffic by
class.

This module is dependency-free on purpose: the NVMe command layer
imports it without creating cycles.
"""

from __future__ import annotations

import enum

__all__ = ["QoSClass", "DEFAULT_WRR_WEIGHTS"]


class QoSClass(enum.Enum):
    """Traffic class carried by every data-plane IO."""

    #: Operation-log appends and superblock commits: the WAL barrier.
    #: Tiny, synchronous, and on the critical path of every metadata op.
    JOURNAL = "journal"
    #: Bulk checkpoint payloads (app dumps, internal-state blobs).
    CKPT_DATA = "ckpt_data"
    #: Reads that rebuild state after a crash — restart critical path.
    RECOVERY = "recovery"
    #: Anything unclassified (baseline traffic, background work).
    BEST_EFFORT = "best_effort"


#: NVMe WRR-style default weights: journal urgent, recovery high,
#: checkpoint data medium, best-effort low. Uniform weights (all equal)
#: degenerate to round-robin and change nothing under one active class —
#: the bit-identical default the pinned-seed baselines rely on is
#: "no arbiter installed at all" (``SSD.arbiter is None``).
DEFAULT_WRR_WEIGHTS = {
    QoSClass.JOURNAL: 8,
    QoSClass.RECOVERY: 4,
    QoSClass.CKPT_DATA: 2,
    QoSClass.BEST_EFFORT: 1,
}
