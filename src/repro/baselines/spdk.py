"""Raw SPDK: the userspace data path with no filesystem at all.

Figure 7(c)'s lower bound — "Compared to SPDK, NVMe-CR has no
noticeable overhead", but "SPDK alone cannot handle all the IO
challenges (POSIX compliance, metadata management, and private
namespace)". The client mimics the shim surface while keeping only an
in-memory name table: creates cost nothing durable, writes go straight
to the device through a bump allocator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Generator

from repro.baselines.common import BaselineClient, BaselineFile, bump_allocate
from repro.bench import calibration as cal
from repro.fabric.transport import Transport
from repro.io.qos import QoSClass
from repro.nvme.commands import Payload
from repro.sim.engine import Environment, Event
from repro.units import KiB

__all__ = ["RawSPDKClient"]


@dataclass
class _SFile(BaselineFile):
    offset: int = -1  # device offset of the file's first extent


class RawSPDKClient(BaselineClient):
    """Direct bdev access with a volatile, private name table."""

    file_type = _SFile

    def __init__(
        self,
        env: Environment,
        transport: Transport,
        nsid: int,
        region_offset: int,
        region_bytes: int,
        name: str = "spdk",
        io_size: int = KiB(128),
    ):
        super().__init__(env, name, {}, {"/"})
        self.transport = transport
        self.nsid = nsid
        self.region_offset = region_offset
        self.region_bytes = region_bytes
        self.io_size = io_size
        self._cursor = 0

    def _allocate(self, nbytes: int) -> int:
        offset, self._cursor = bump_allocate(
            self._cursor, nbytes, self.region_bytes, "SPDK bdev region full")
        return self.region_offset + offset

    # -- system hooks -------------------------------------------------------------------

    def _enter(self, op: str) -> Generator[Event, Any, None]:
        yield self.env.timeout(0)  # no kernel, no metadata IO

    def _do_write(self, file: _SFile, offset: int, payload: Payload) -> Generator[Event, Any, int]:
        nbytes = payload.nbytes
        n_cmds = max(1, math.ceil(nbytes / self.io_size))
        yield self.env.timeout(n_cmds * cal.SPDK_SUBMIT_COST)
        # Each write is its own extent from the bump allocator; the name
        # table remembers only the first (reads are timing-faithful, and
        # durability of content is not SPDK's job — that's the point).
        device_offset = self._allocate(max(nbytes, 1))
        if file.offset < 0:
            file.offset = device_offset
        yield self.transport.write(
            self.nsid, device_offset, payload, self.io_size, qos=QoSClass.CKPT_DATA
        )
        return nbytes

    def _do_read(self, file: _SFile, offset: int, nbytes: int) -> Generator[Event, Any, None]:
        n_cmds = max(1, math.ceil(nbytes / self.io_size))
        yield self.env.timeout(n_cmds * cal.SPDK_SUBMIT_COST)
        yield self.transport.read(
            self.nsid, max(file.offset, 0), nbytes, self.io_size,
            qos=QoSClass.BEST_EFFORT,
        )

    def _do_fsync(self, file: _SFile) -> Generator[Event, Any, None]:
        yield self.transport.flush(self.nsid)
