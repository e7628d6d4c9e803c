"""The tier-neutral device seam.

:class:`DeviceModel` is the contract every storage tier implements: its
capacity and bandwidths plus timed bulk transfers (what tier clients
drive). It deliberately models *service time*, not data contents —
the NVMe extent store keeps doing byte-accurate bookkeeping on its own
paths; a tier transfer answers only "when does this many bytes land".

Implementations:

* :class:`repro.nvme.device.SSD` — the calibrated NVMe model, whose
  service-time core (fair-share media + command-rate servers, QD-1
  access-latency cap, arbitration jitter) this seam was extracted from;
* :class:`repro.tiers.nvm.NVMDevice` — byte-addressable NVM (JASS-style
  load/store latency, no command or queue overhead).

This module is on DetLint's hot-module list: every class declares
``__slots__``.
"""

from __future__ import annotations

from repro.sim.engine import Event

__all__ = ["DeviceModel"]


class DeviceModel:
    """Abstract tier surface: capacity, bandwidths, timed transfers.

    Stateless base (``__slots__ = ()``): concrete tiers own their
    attributes.
    """

    __slots__ = ()

    def capacity_bytes(self) -> int:
        raise NotImplementedError

    def write_bandwidth(self) -> float:
        """Sustained ingest bandwidth, bytes/s."""
        raise NotImplementedError

    def read_bandwidth(self) -> float:
        raise NotImplementedError

    def tier_write(self, nbytes: int) -> Event:
        """Persist ``nbytes``; the completion event fires when the data
        is durable under the tier's own service model."""
        raise NotImplementedError

    def tier_read(self, nbytes: int) -> Event:
        raise NotImplementedError

    def tier_sync(self) -> Event:
        """Durability barrier (flush / persist fence), tier-specific."""
        raise NotImplementedError
