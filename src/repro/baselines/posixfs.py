"""Local kernel filesystems: ext4 and XFS over a node-local NVMe SSD.

The Figure 7(c) comparators. The write path is the classic kernel one
(Figure 2's left half): trap, VFS, copy into the page cache; ``fsync``
then pays writeback (512 KiB bios through the block layer), journaling,
and allocation:

* **ext4** allocates per 4 KiB block under a shared block-group lock —
  the manycore serialisation of Min et al. [16]; ordered-mode journal
  costs per MB. Net: ~83 % slower than NVMe-CR at 28-process full
  subscription, ~79 % of time in the kernel.
* **XFS** allocates per multi-MB extent under its AG lock and uses
  delayed logging. Net: ~19 % slower than NVMe-CR, ~76.5 % kernel time.

Clients on one node share the filesystem instance: the allocation lock
and the device are the shared resources; page-cache state is per-client
dirty accounting (sloppy but sufficient — checkpoint files don't share
pages).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator

from repro.baselines.common import BaselineClient, BaselineFile, bump_allocate
from repro.bench import calibration as cal
from repro.errors import InvalidArgument
from repro.nvme.commands import Payload
from repro.nvme.device import SSD
from repro.nvme.namespace import Namespace
from repro.sim.engine import Environment, Event
from repro.sim.resources import Resource
from repro.io.qos import QoSClass
from repro.obs.metrics import Counter
from repro.units import MiB

__all__ = ["KernelFilesystem", "KernelFSClient"]


@dataclass
class _KFile(BaselineFile):
    allocated_bytes: int = 0


class KernelFilesystem:
    """One mounted ext4/XFS instance on one SSD (shared by its node's
    processes)."""

    def __init__(self, env: Environment, ssd: SSD, namespace: Namespace, variant: str):
        if variant not in ("ext4", "xfs"):
            raise InvalidArgument(f"variant must be ext4|xfs, got {variant}")
        self.env = env
        self.ssd = ssd
        self.namespace = namespace
        self.variant = variant
        self.alloc_lock = Resource(env, capacity=1)
        self.journal = Resource(env, capacity=1)
        self.files: Dict[str, _KFile] = {}
        self.dirs: set = {"/"}
        self._cursor = 0
        self.counters = Counter()

    def client(self, name: str) -> "KernelFSClient":
        return KernelFSClient(self, name)

    def allocate(self, nbytes: int) -> int:
        offset, self._cursor = bump_allocate(
            self._cursor, nbytes, self.namespace.nbytes,
            f"{self.variant} filesystem full")
        return offset

    # -- variant-specific allocation cost (held under the shared lock) -----------------

    def allocation_units(self, nbytes: int) -> int:
        if self.variant == "ext4":
            return -(-nbytes // 4096)  # per block
        return -(-nbytes // cal.XFS_EXTENT_BYTES)  # per extent

    def allocation_cost(self, nbytes: int) -> float:
        unit = cal.EXT4_PER_BLOCK_ALLOC if self.variant == "ext4" else cal.XFS_PER_EXTENT_ALLOC
        return self.allocation_units(nbytes) * unit

    def journal_cost(self, nbytes: int) -> float:
        per_mb = (
            cal.EXT4_JOURNAL_COST_PER_MB
            if self.variant == "ext4"
            else cal.XFS_JOURNAL_COST_PER_MB
        )
        return (nbytes / MiB(1)) * per_mb


class KernelFSClient(BaselineClient):
    """One process's view of the kernel filesystem: every call traps."""

    file_type = _KFile

    def __init__(self, kfs: KernelFilesystem, name: str):
        super().__init__(kfs.env, name, kfs.files, kfs.dirs)
        self.kfs = kfs

    # -- cost helpers -------------------------------------------------------------------

    def _kernel(self, seconds: float) -> Event:
        """Charge time spent in the kernel (tracked for Figure 7(c))."""
        self.counters.add("kernel_time", seconds)
        return self.env.timeout(seconds)

    # -- system hooks -----------------------------------------------------------------------

    def _enter(self, op: str) -> Generator[Event, Any, None]:
        yield self._kernel(cal.SYSCALL_TRAP_COST + cal.KERNEL_IO_PATH_COST)

    def _do_write(self, file: _KFile, offset: int, payload: Payload) -> Generator[Event, Any, int]:
        """Buffered write: trap + page-cache copy. Fast — the bill comes
        at fsync."""
        nbytes = payload.nbytes
        yield self._kernel(
            cal.SYSCALL_TRAP_COST
            + cal.KERNEL_IO_PATH_COST
            + nbytes / cal.PAGE_CACHE_COPY_BW
        )
        file.dirty += nbytes
        return nbytes

    def _do_fsync(self, file: _KFile) -> Generator[Event, Any, None]:
        """Writeback + allocation + journal. All kernel time."""
        dirty = file.dirty
        t0 = self.env.now
        yield self._kernel(cal.SYSCALL_TRAP_COST)
        if dirty > 0:
            file.dirty = 0
            # Delayed allocation happens at writeback, under the shared lock.
            new_bytes = max(0, file.size - file.allocated_bytes)
            if new_bytes > 0:
                file.allocated_bytes = file.size
                lock_hold = self.kfs.allocation_cost(new_bytes)
                wait_start = self.env.now
                request = self.kfs.alloc_lock.request()
                yield request
                # Contended kernel-lock time (spinning in the allocator)
                # counts as kernel time — the Min et al. [16] collapse.
                self.counters.add("kernel_time", self.env.now - wait_start)
                try:
                    yield self._kernel(lock_hold)
                finally:
                    self.kfs.alloc_lock.release(request)
            # Block-layer submission: one bio per 512 KiB.
            bios = max(1, -(-dirty // cal.KERNEL_MAX_BIO_BYTES))
            yield self._kernel(bios * cal.KERNEL_IO_PATH_COST)
            offset = self.kfs.allocate(dirty)
            payload = Payload.synthetic(f"{self.name}:{file.path}:{offset}", dirty)
            write_start = self.env.now
            yield self.kfs.ssd.write(
                self.kfs.namespace.nsid, offset, payload, cal.KERNEL_MAX_BIO_BYTES,
                qos=QoSClass.CKPT_DATA,
            )
            # Blocked in the kernel for the whole device wait.
            self.counters.add("kernel_time", self.env.now - write_start)
            # Journal commit (ordered/delayed logging), serialised;
            # waiting for the running transaction is kernel time too.
            commit = self.kfs.journal_cost(dirty)
            jwait = self.env.now
            jreq = self.kfs.journal.request()
            yield jreq
            self.counters.add("kernel_time", self.env.now - jwait)
            try:
                yield self._kernel(commit)
            finally:
                self.kfs.journal.release(jreq)
            flush_start = self.env.now
            yield self.kfs.ssd.flush(self.kfs.namespace.nsid)
            self.counters.add("kernel_time", self.env.now - flush_start)
        self.counters.add("fsyncs")
        self.counters.add("fsync_wall", self.env.now - t0)

    def _do_read(self, file: _KFile, offset: int, nbytes: int) -> Generator[Event, Any, None]:
        bios = max(1, -(-nbytes // cal.KERNEL_MAX_BIO_BYTES))
        yield self._kernel(
            cal.SYSCALL_TRAP_COST
            + bios * cal.KERNEL_IO_PATH_COST
            + nbytes / cal.PAGE_CACHE_COPY_BW
        )
        read_start = self.env.now
        yield self.kfs.ssd.read(
            self.kfs.namespace.nsid, 0, nbytes, cal.KERNEL_MAX_BIO_BYTES,
            qos=QoSClass.BEST_EFFORT,
        )
        self.counters.add("kernel_time", self.env.now - read_start)

    def _do_close(self, file: _KFile) -> Generator[Event, Any, None]:
        yield self._kernel(cal.SYSCALL_TRAP_COST)

    def kernel_fraction(self, wall_time: float, app_kernel_time: float = 0.0) -> float:
        """Fraction of wall time spent in the kernel (Figure 7(c))."""
        if wall_time <= 0:
            raise InvalidArgument("wall_time must be positive")
        return min(1.0, (self.counters.get("kernel_time") + app_kernel_time) / wall_time)
