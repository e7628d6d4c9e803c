"""Byte-addressable NVM tier (JASS-style, arXiv:2301.11511).

Optane DC PMM-class persistent memory on the node's memory bus: loads
and stores pay a per-access latency and stream at asymmetric
read/write bandwidth through fair-share servers, but there is *no*
command processing, no hardware queue, and no arbitration jitter —
the properties that make NVM the cheapest checkpoint tier per byte and
the least durable one (it dies with the node).

All constants come from :mod:`repro.bench.calibration` (``NVM_*``).
This module is on DetLint's hot-module list: every class declares
``__slots__``.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.bench import calibration as cal
from repro.obs.metrics import Counter
from repro.sim.engine import Environment, Event
from repro.sim.fairshare import FairShareServer
from repro.tiers.base import DeviceModel

__all__ = ["NVMDevice"]


class NVMDevice(DeviceModel):  # reproflow: ignore[FLOW103] (runtime sanitizer watches devices)
    """One node's persistent-memory module set behind the tier seam."""

    __slots__ = (
        "env",
        "name",
        "_capacity",
        "_write_server",
        "_read_server",
        "counters",
    )

    def __init__(
        self,
        env: Environment,
        name: str = "nvm0",
        capacity_bytes: Optional[int] = None,
    ):
        self.env = env
        self.name = name
        self._capacity = (
            cal.NVM_CAPACITY_BYTES if capacity_bytes is None else capacity_bytes
        )
        self._write_server = FairShareServer(
            env, capacity=cal.NVM_WRITE_BANDWIDTH, name=f"{name}.store"
        )
        self._read_server = FairShareServer(
            env, capacity=cal.NVM_READ_BANDWIDTH, name=f"{name}.load"
        )
        self.counters = Counter()

    def capacity_bytes(self) -> int:
        return self._capacity

    def write_bandwidth(self) -> float:
        return cal.NVM_WRITE_BANDWIDTH

    def read_bandwidth(self) -> float:
        return cal.NVM_READ_BANDWIDTH

    # -- timed transfers ------------------------------------------------------

    def tier_write(self, nbytes: int) -> Event:
        return self.env.process(self._store(nbytes))

    def _store(self, nbytes: int) -> Generator[Event, Any, int]:
        # Store into the ADR-protected write-pending queue, stream the
        # body at the DIMM program rate, then persist (CLWB + fence).
        yield self.env.timeout(cal.NVM_WRITE_LATENCY)
        if nbytes > 0:
            yield self._write_server.transfer(nbytes)
        yield self.env.timeout(cal.NVM_PERSIST_BARRIER)
        self.counters.add("bytes_written", nbytes)
        return nbytes

    def tier_read(self, nbytes: int) -> Event:
        return self.env.process(self._load(nbytes))

    def _load(self, nbytes: int) -> Generator[Event, Any, int]:
        yield self.env.timeout(cal.NVM_READ_LATENCY)
        if nbytes > 0:
            yield self._read_server.transfer(nbytes)
        self.counters.add("bytes_read", nbytes)
        return nbytes

    def tier_sync(self) -> Event:
        return self.env.process(self._fence())

    def _fence(self) -> Generator[Event, Any, None]:
        yield self.env.timeout(cal.NVM_PERSIST_BARRIER)
