"""The NVMe-CR data plane (§III-D): run-to-completion SPDK submission.

Each of the five entry points describes one logical IO once and hands
it to :meth:`DataPlane.submit`, which runs every IO through the same
three stages:

1. **software charge** — client CPU per the cost model (SPDK submission
   in userspace mode, trap + VFS/block-layer in the kernel ablation);
   recovery reads are not charged;
2. **transport IO** — the extents split at the IO's chunk limit and
   submitted one chunk at a time, or, for checkpoint data writes when
   ``config.batching`` is on, one doorbell-batched round trip;
3. **flush** — the durability barrier after log pages and state blobs.

Every IO carries a :class:`~repro.io.qos.QoSClass` down to the device
arbiter; per-class latencies accumulate in ``class_latencies`` for the
qos experiment.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Any, Dict, Generator, Iterable, Iterator, List, Optional, Tuple

from repro.bench import calibration as cal
from repro.core.config import RuntimeConfig
from repro.errors import InvalidArgument
from repro.fabric.transport import Transport
from repro.io.qos import QoSClass
from repro.nvme.commands import Payload
from repro.obs.context import tracer_of
from repro.obs.metrics import Counter
from repro.sim.engine import Environment, Event

__all__ = ["DataPlane", "iter_write_chunks", "iter_read_chunks"]


def iter_write_chunks(
    offset: int, payload: Payload, limit: Optional[int]
) -> Iterator[Tuple[int, Payload]]:
    """Split a write payload into at-most-``limit``-byte (offset, payload)
    pieces. ``limit=None`` means no splitting. A zero-byte payload still
    yields itself: an empty write is one command."""
    if limit is None or payload.nbytes <= limit:
        yield offset, payload
        return
    at = 0
    while at < payload.nbytes:
        size = min(limit, payload.nbytes - at)
        yield offset + at, payload.slice(at, size)
        at += size


def iter_read_chunks(
    offset: int, nbytes: int, limit: Optional[int]
) -> Iterator[Tuple[int, int]]:
    """Split a read into at-most-``limit``-byte (offset, nbytes) pieces.

    A zero-byte read yields nothing: no empty read command is issued.
    """
    if nbytes <= 0:
        return
    if limit is None or nbytes <= limit:
        yield offset, nbytes
        return
    at = offset
    remaining = nbytes
    while remaining > 0:
        size = min(remaining, limit)
        yield at, size
        at += size
        remaining -= size


def _ceil_cmds(sizes: Iterable[int], command_size: int) -> int:
    """Commands for a run list: at least one per run, ceil-divided."""
    return sum(max(1, math.ceil(n / command_size)) for n in sizes)


class DataPlane:
    """Per-instance IO submission engine over one namespace."""

    #: Same-instant submits from several processes run in dispatch
    #: order, which is FIFO among equal times.
    _san_tiebreak = "fifo"

    def __init__(
        self,
        env: Environment,
        transport: Transport,
        nsid: int,
        config: RuntimeConfig,
        counters: Optional[Counter] = None,
    ):
        self.env = env
        self.transport = transport
        self.nsid = nsid
        self.config = config
        self.counters = counters if counters is not None else Counter()
        # Span track; the owning MicroFS overwrites this with its
        # instance name so data-plane spans nest under its syscalls.
        self.obs_track = "dataplane"
        #: Completed-IO latencies by QoS class (exact, not bucketed)
        #: — the qos experiment's percentile source.
        self.class_latencies: Dict[QoSClass, List[float]] = defaultdict(list)

    def _begin(self, name: str, tr, **attrs):
        """Open a data-plane span: handoff parent wins, else the track's
        innermost open span (the intercepted syscall)."""
        parent = tr.take_handoff()
        if parent is None:
            parent = tr.current(self.obs_track)
        return tr.begin(name, cat="dataplane", track=self.obs_track,
                        parent=parent, **attrs)

    # -- cost model ----------------------------------------------------------------

    def _software_cost(self, n_cmds: int, nbytes: int) -> float:
        """Client CPU for one logical IO: userspace vs kernel path."""
        if self.config.userspace_direct:
            cpu = n_cmds * cal.SPDK_SUBMIT_COST
            self.counters.add("user_cpu_time", cpu)
            return cpu
        # Kernel path: one syscall trap, VFS/block layer per request,
        # and a page-cache copy of the payload.
        kernel_requests = max(1, math.ceil(nbytes / cal.KERNEL_MAX_BIO_BYTES))
        cpu = (
            cal.SYSCALL_TRAP_COST
            + kernel_requests * cal.KERNEL_IO_PATH_COST
            + nbytes / cal.PAGE_CACHE_COPY_BW
        )
        self.counters.add("kernel_time", cpu)
        return cpu

    # -- the pipeline ----------------------------------------------------------------

    def submit(
        self,
        span_name: str,
        span_attrs: Dict[str, Any],
        extents: List[tuple],
        nbytes: int,
        command_size: int,
        qos: QoSClass,
        *,
        write: bool,
        n_cmds: Optional[int] = None,
        chunk_bytes: Optional[int] = None,
        counters: Tuple[Tuple[str, int], ...] = (),
        batchable: bool = False,
        flush: bool = False,
    ) -> Generator[Event, Any, Any]:
        """Run one logical IO: software charge, transport IO, flush.

        ``extents`` are ``(offset, Payload)`` pairs for writes and
        ``(offset, nbytes)`` pairs for reads, split at ``chunk_bytes``
        (``None`` submits them whole). ``n_cmds`` is the command count
        the software charge bills (``None``: no charge); ``counters`` are
        the (name, delta) bumps applied on success. A ``batchable`` write
        goes down as one doorbell-batched round trip when
        ``config.batching`` is on. Returns the bytes written (writes) or
        the stored extents (reads).
        """
        started = self.env.now
        monitor = self.env.monitor
        ticket = None
        if monitor is not None:
            monitor.note_mutation(self, "submit")
            ticket = monitor.note_io_begin(span_name)
        tr = tracer_of(self.env)
        span = None if tr is None else self._begin(span_name, tr=tr, **span_attrs)
        if n_cmds is not None:
            software_s = self._software_cost(n_cmds, nbytes)
            if software_s > 0:
                yield self.env.timeout(software_s)
        split = iter_write_chunks if write else iter_read_chunks
        chunks = (chunk for offset, what in extents
                  for chunk in split(offset, what, chunk_bytes))
        value: Any
        try:
            if not write:
                value = []
                for chunk_offset, size in chunks:
                    if tr is not None:
                        tr.handoff(span)
                    result = yield self.transport.read(
                        self.nsid, chunk_offset, size, command_size, qos=qos)
                    value.extend(result.extra["extents"])
            elif batchable and self.config.batching:
                if tr is not None:
                    tr.handoff(span)
                yield self.transport.write_batch(
                    self.nsid, list(chunks), command_size, qos=qos)
                value = nbytes
            else:
                # Run-to-completion (§III-A): one batch outstanding at a
                # time on this instance's queue.
                for chunk_offset, chunk in chunks:
                    if tr is not None:
                        tr.handoff(span)
                    yield self.transport.write(
                        self.nsid, chunk_offset, chunk, command_size, qos=qos)
                value = nbytes
            if flush:
                if tr is not None:
                    tr.handoff(span)
                yield self.transport.flush(self.nsid, qos=qos)
        except Exception as exc:
            # The IO ends here, not when the capture closes its open spans.
            if tr is not None:
                tr.end(span, error=type(exc).__name__)
            raise
        finally:
            if monitor is not None:
                # The IO left the pipeline (completed *or* failed); only
                # IOs still parked here at run end are leaks.
                monitor.note_io_end(ticket)
        for name, delta in counters:
            self.counters.add(name, delta)
        if tr is not None:
            tr.end(span)
        latency = self.env.now - started
        self.class_latencies[qos].append(latency)
        ctx = self.env.obs
        if ctx is not None:
            m = ctx.metrics
            m.counter(f"io.{qos.value}.requests").add(1)
            m.counter(f"io.{qos.value}.bytes", unit="B").add(nbytes)
            m.histogram(f"io.{qos.value}.latency_s").observe(latency)
        return value

    # -- entry points (each describes one IO) ------------------------------------------

    def write_runs(
        self,
        runs: List[Tuple[int, Payload]],
        command_size: Optional[int] = None,
        qos: QoSClass = QoSClass.CKPT_DATA,
    ) -> Generator[Event, Any, int]:
        """Write (ns_offset, payload) runs as one logical IO.

        Returns total bytes written. Runs larger than the batch limit are
        split and submitted one chunk at a time; with ``config.batching``
        all chunks go down in one doorbell-batched round trip.
        """
        command_size = command_size or self.config.effective_block_bytes
        nbytes = sum(p.nbytes for _off, p in runs)
        n_cmds = _ceil_cmds((p.nbytes for _off, p in runs), command_size)
        return (yield from self.submit(
            "dataplane.write", {"bytes": nbytes, "cmds": n_cmds},
            runs, nbytes, command_size, qos, write=True, n_cmds=n_cmds,
            chunk_bytes=self.config.max_batch_bytes, batchable=True,
            counters=(("data_bytes_written", nbytes), ("data_commands", n_cmds)),
        ))

    def read_runs(
        self,
        runs: List[Tuple[int, int]],
        command_size: Optional[int] = None,
        qos: QoSClass = QoSClass.RECOVERY,
    ) -> Generator[Event, Any, List]:
        """Read (ns_offset, nbytes) runs; returns the stored extents."""
        command_size = command_size or self.config.effective_block_bytes
        nbytes = sum(n for _off, n in runs)
        n_cmds = _ceil_cmds((n for _off, n in runs), command_size)
        return (yield from self.submit(
            "dataplane.read", {"bytes": nbytes, "cmds": n_cmds},
            runs, nbytes, command_size, qos, write=False, n_cmds=n_cmds,
            chunk_bytes=self.config.max_batch_bytes,
            counters=(("data_bytes_read", nbytes),),
        ))

    def write_log_page(
        self,
        region_offset: int,
        page: bytes,
        wire_bytes: int,
        qos: QoSClass = QoSClass.JOURNAL,
    ) -> Generator[Event, Any, None]:
        """Persist one operation-log page and flush it (WAL barrier).

        ``wire_bytes`` may exceed the page for physical-logging mode —
        the extra traffic the provenance design eliminates. The page is
        one command of at least 4 KiB, whatever its size.
        """
        payload = Payload.of_bytes(page.ljust(wire_bytes, b"\x00"))
        yield from self.submit(
            "dataplane.log_page", {"bytes": wire_bytes},
            [(region_offset, payload)], payload.nbytes, max(4096, wire_bytes),
            qos, write=True, n_cmds=1, flush=True,
            counters=(("log_bytes_written", wire_bytes), ("log_flushes", 1)),
        )

    def write_state(
        self,
        region_offset: int,
        data: bytes,
        qos: QoSClass = QoSClass.CKPT_DATA,
    ) -> Generator[Event, Any, None]:
        """Persist an internal-state checkpoint blob (page-padded)."""
        padded = data.ljust(-(-len(data) // 4096) * 4096, b"\x00")
        command_size = self.config.effective_block_bytes
        yield from self.submit(
            "dataplane.state", {"bytes": len(padded)},
            [(region_offset, Payload.of_bytes(padded))], len(padded),
            command_size, qos, write=True, flush=True,
            # Historical cost model: floor division, not ceil.
            n_cmds=max(1, len(padded) // command_size),
            counters=(("state_bytes_written", len(padded)),),
        )

    def read_bytes(
        self,
        region_offset: int,
        nbytes: int,
        qos: QoSClass = QoSClass.RECOVERY,
    ) -> Generator[Event, Any, bytes]:
        """Read real bytes back (recovery path), zero-filling gaps.

        Recovery reads are not charged client CPU.
        """
        extents = yield from self.submit(
            "dataplane.read", {"bytes": nbytes, "recovery": True},
            [(region_offset, nbytes)], nbytes,
            self.config.effective_block_bytes, qos, write=False,
        )
        out = bytearray(nbytes)
        for extent in extents:
            if extent.payload.is_synthetic:
                raise InvalidArgument("recovery read hit synthetic (bulk) data")
            at = extent.start - region_offset
            out[at : at + extent.length] = extent.payload.data
        return bytes(out)
