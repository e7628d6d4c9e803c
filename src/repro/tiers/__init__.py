"""Calibrated storage tiers behind one device-model seam.

The NVMe SSD and the byte-addressable NVM module implement the
:class:`~repro.tiers.base.DeviceModel` surface, and
:class:`~repro.tiers.client.TierClient` gives either one the
``write_file``/``read_file`` checkpoint surface that the PFS and the
intercepted-POSIX shim (:class:`~repro.tiers.client.PosixTierAdapter`)
also offer, so the multi-level checkpointer and the placement policies
drive every tier alike. Calibration constants live in
:mod:`repro.bench.calibration`; nothing in this package hard-codes a
performance number.
"""

from repro.tiers.base import DeviceModel
from repro.tiers.client import PosixTierAdapter, TierClient
from repro.tiers.nvm import NVMDevice

__all__ = [
    "DeviceModel",
    "NVMDevice",
    "PosixTierAdapter",
    "TierClient",
]
