"""Simulated NVMe SSDs.

The reproduction's stand-in for the paper's Intel Optane P4800X drives.
An :class:`~repro.nvme.device.SSD` owns NVMe namespaces, hardware
queue bookkeeping, an extent store that actually retains written
payloads (so recovery tests replay real bytes), and a calibrated
service model (sustained bandwidth, per-command controller cost,
command-granular arbitration jitter, optional RAM write buffer with
power-loss capacitance). :class:`~repro.faults.injector.FaultInjector`
cuts and restores power through ``SSD.power_fail``/``power_restore``,
and an optional :class:`~repro.nvme.queues.WrrArbiter` admits commands
by QoS class.
"""

from repro.nvme.commands import Command, CommandResult, Opcode, Payload
from repro.nvme.device import SSD, SSDSpec, intel_p4800x, generic_nand_ssd
from repro.nvme.namespace import Namespace, Partition

__all__ = [
    "Command",
    "CommandResult",
    "Namespace",
    "Opcode",
    "Partition",
    "Payload",
    "SSD",
    "SSDSpec",
    "generic_nand_ssd",
    "intel_p4800x",
]
