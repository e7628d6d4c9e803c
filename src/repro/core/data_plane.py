"""The NVMe-CR data plane (§III-D): the unified pipeline's engine room.

Every entry point builds one typed :class:`~repro.io.envelope.IORequest`
and feeds it to :meth:`DataPlane.submit`, which runs the envelope
through the same stages regardless of caller:

1. **software charge** — client CPU per the cost model (SPDK submission
   in userspace mode, trap + VFS/block-layer in the kernel ablation);
2. **admission** — an optional bounded in-flight byte window
   (``config.inflight_window_bytes``) applies backpressure before the
   transport sees the request;
3. **execution** — chunked submission over the transport, or a single
   doorbell-batched round trip when the envelope is batchable and
   ``config.batching`` is on;
4. **retry** — transport (fabric) failures are retried within the
   envelope's ``retry_budget`` with exponential backoff, bounded by its
   ``deadline``.

The result is an :class:`~repro.io.envelope.IOCompletion` carrying the
per-stage latency breakdown; per-QoS-class latencies accumulate in
``class_latencies`` for the qos experiment.

With the defaults — batching off, no admission window, zero retry
budget — ``submit`` reproduces the pre-envelope pipeline event-for-event
(the pinned-seed obs baselines hold bit-identically).
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from typing import Any, Deque, Dict, Generator, List, Optional, Tuple

from repro.bench import calibration as cal
from repro.core.config import RuntimeConfig
from repro.errors import DeadlineExceeded, FabricError, InvalidArgument
from repro.fabric.transport import Transport
from repro.io.envelope import IOCompletion, IORequest
from repro.io.qos import QoSClass
from repro.nvme.commands import Payload
from repro.obs.context import tracer_of
from repro.obs.metrics import Counter
from repro.sim.engine import Environment, Event

__all__ = ["DataPlane"]


class DataPlane:
    """Per-instance IO submission engine over one namespace."""

    #: Window waiters wake in arrival order (deque drained FIFO).
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
        #: Completed-request latencies by QoS class (exact, not bucketed)
        #: — the qos experiment's percentile source.
        self.class_latencies: Dict[QoSClass, List[float]] = defaultdict(list)
        #: This plane's default storage tier (the NVMe fleet unless the
        #: owning system says otherwise); envelopes may override it.
        self.tier = "nvme-ssd"
        #: Per-tier accounting: completed-request latencies and bytes,
        #: keyed by tier name. Pure bookkeeping — never adds events.
        self.tier_latencies: Dict[str, List[float]] = defaultdict(list)
        self.tier_bytes: Dict[str, int] = defaultdict(int)
        self._inflight_bytes = 0
        self._window_waiters: Deque[Event] = deque()

    def _begin(self, name: str, tr, **attrs):
        """Open a data-plane span: handoff parent wins, else the track's
        innermost open span (the intercepted syscall)."""
        parent = tr.take_handoff()
        if parent is None:
            parent = tr.current(self.obs_track)
        return tr.begin(name, cat="dataplane", track=self.obs_track,
                        parent=parent, **attrs)

    # -- cost model ----------------------------------------------------------------

    def _software_cost(self, n_cmds: int, nbytes: int, syscalls: int = 1) -> float:
        """Client CPU for one logical IO: userspace vs kernel path."""
        if self.config.userspace_direct:
            cpu = n_cmds * cal.SPDK_SUBMIT_COST
            self.counters.add("user_cpu_time", cpu)
            return cpu
        # Kernel path: trap per syscall, VFS/block layer per request,
        # and a page-cache copy of the payload.
        kernel_requests = max(1, math.ceil(nbytes / cal.KERNEL_MAX_BIO_BYTES))
        cpu = (
            syscalls * cal.SYSCALL_TRAP_COST
            + kernel_requests * cal.KERNEL_IO_PATH_COST
            + nbytes / cal.PAGE_CACHE_COPY_BW
        )
        self.counters.add("kernel_time", cpu)
        return cpu

    # -- admission window -----------------------------------------------------------

    def _acquire_window(self, nbytes: int) -> Generator[Event, Any, None]:
        """Block while the in-flight byte window is full (backpressure).

        An oversized request (larger than the whole window) is admitted
        alone once the window drains — the window bounds concurrency, it
        never deadlocks a request that cannot fit.
        """
        window = self.config.inflight_window_bytes
        if window is None:
            return
        while self._inflight_bytes > 0 and self._inflight_bytes + nbytes > window:
            ev = Event(self.env)
            self._window_waiters.append(ev)
            yield ev
        self._inflight_bytes += nbytes

    def _release_window(self, nbytes: int) -> None:
        if self.config.inflight_window_bytes is None:
            return
        self._inflight_bytes -= nbytes
        waiters, self._window_waiters = self._window_waiters, deque()
        for ev in waiters:
            if not ev.triggered:
                ev.succeed()

    # -- the unified pipeline ---------------------------------------------------------

    def submit(self, req: IORequest) -> Generator[Event, Any, IOCompletion]:
        """Run one envelope through charge → admit → execute → retry."""
        started = self.env.now
        monitor = self.env.monitor
        if monitor is not None:
            monitor.note_mutation(self, "submit")
            monitor.note_io_begin(req)
        tr = tracer_of(self.env)
        span = None if tr is None else self._begin(
            req.span_name, tr=tr, **req.span_attrs)
        software_s = 0.0
        if req.charge_software:
            software_s = self._software_cost(
                req.derived_cmds(), req.total_bytes, req.syscalls)
            if software_s > 0:
                yield self.env.timeout(software_s)
        admit_at = self.env.now
        yield from self._acquire_window(req.total_bytes)
        admission_s = self.env.now - admit_at
        retries_used = 0
        try:
            exec_at = self.env.now
            for attempt in range(req.retry_budget + 1):
                if attempt:
                    retries_used = attempt
                    self.counters.add("io_retries")
                    backoff = req.retry_backoff * (2 ** (attempt - 1))
                    if backoff > 0:
                        yield self.env.timeout(backoff)
                    try:
                        self.transport.reconnect()
                    except FabricError:
                        pass  # still down; _execute below re-raises
                if req.deadline is not None and self.env.now > req.deadline:
                    raise DeadlineExceeded(
                        f"{req.span_name}: deadline {req.deadline:.6f}s passed "
                        f"at {self.env.now:.6f}s after {retries_used} retries"
                    )
                try:
                    value, flush_s = yield from self._execute(req, tr, span)
                    break
                except FabricError:
                    if attempt >= req.retry_budget:
                        raise
                    if tr is not None:
                        # A failed submission may have left its handoff
                        # unclaimed; drop it before the retry opens spans.
                        tr.take_handoff()
            transfer_s = self.env.now - exec_at - flush_s
        except Exception as exc:
            # Retries ran out or the deadline passed: the envelope ends
            # here, not when the capture closes its open spans.
            if tr is not None:
                tr.end(span, error=type(exc).__name__)
            raise
        finally:
            self._release_window(req.total_bytes)
            if monitor is not None:
                # The envelope left the pipeline (completed *or* failed);
                # only requests still parked here at run end are leaks.
                monitor.note_io_end(req)
        for name, delta in req.counters:
            self.counters.add(name, delta)
        if tr is not None:
            tr.end(span)
        latency = self.env.now - started
        self.class_latencies[req.qos].append(latency)
        tier = req.tier if req.tier is not None else self.tier
        self.tier_latencies[tier].append(latency)
        self.tier_bytes[tier] += req.total_bytes
        ctx = self.env.obs
        if ctx is not None:
            m = ctx.metrics
            m.counter(f"io.{req.qos.value}.requests").add(1)
            m.counter(f"io.{req.qos.value}.bytes", unit="B").add(req.total_bytes)
            m.histogram(f"io.{req.qos.value}.latency_s").observe(latency)
            if retries_used:
                m.counter(f"io.{req.qos.value}.retries").add(retries_used)
            if req.tier is not None:
                # Explicitly tier-tagged envelopes get obs counters too;
                # untagged traffic stays off the metrics registry so the
                # pinned single-tier obs baselines are untouched.
                m.counter(f"io.tier.{tier}.requests").add(1)
                m.counter(f"io.tier.{tier}.bytes", unit="B").add(req.total_bytes)
        return IOCompletion(
            status="ok",
            qos=req.qos,
            nbytes=req.total_bytes,
            n_cmds=req.derived_cmds(),
            latency_s=latency,
            software_s=software_s,
            admission_s=admission_s,
            transfer_s=transfer_s,
            flush_s=flush_s,
            retries_used=retries_used,
            value=value,
        )

    def _execute(self, req: IORequest, tr, span):
        """One attempt: chunked (or doorbell-batched) transport I/O."""
        value: Any
        if req.is_write:
            if req.batchable and self.config.batching:
                chunks = list(req.chunks())
                if tr is not None:
                    tr.handoff(span)
                yield self.transport.write_batch(
                    self.nsid, chunks, req.command_size, qos=req.qos)
            else:
                # Run-to-completion (§III-A): one batch outstanding at a
                # time on this instance's queue.
                for chunk_offset, chunk in req.chunks():
                    if tr is not None:
                        tr.handoff(span)
                    yield self.transport.write(
                        self.nsid, chunk_offset, chunk, req.command_size,
                        qos=req.qos)
            value = req.total_bytes
        else:
            extents: List = []
            for chunk_offset, nbytes in req.chunks():
                if tr is not None:
                    tr.handoff(span)
                result = yield self.transport.read(
                    self.nsid, chunk_offset, nbytes, req.command_size,
                    qos=req.qos)
                extents.extend(result.extra["extents"])
            value = extents
        flush_s = 0.0
        if req.flush_after:
            flush_at = self.env.now
            if tr is not None:
                tr.handoff(span)
            yield self.transport.flush(self.nsid, qos=req.qos)
            flush_s = self.env.now - flush_at
        return value, flush_s

    # -- entry points (each builds one envelope) ---------------------------------------

    def write_runs(
        self,
        runs: List[Tuple[int, Payload]],
        command_size: Optional[int] = None,
        qos: QoSClass = QoSClass.CKPT_DATA,
        **envelope: Any,
    ) -> Generator[Event, Any, int]:
        """Write (ns_offset, payload) runs as one pipelined submission.

        Returns total bytes written. Runs larger than the batch limit are
        split; all batches are in flight together (queue pipelining).
        """
        req = IORequest.write_runs(
            self.nsid, runs,
            command_size=command_size or self.config.effective_block_bytes,
            chunk_bytes=self.config.max_batch_bytes, qos=qos, **envelope,
        )
        completion = yield from self.submit(req)
        return completion.value

    def read_runs(
        self,
        runs: List[Tuple[int, int]],
        command_size: Optional[int] = None,
        qos: QoSClass = QoSClass.RECOVERY,
        **envelope: Any,
    ) -> Generator[Event, Any, List]:
        """Read (ns_offset, nbytes) runs; returns the stored extents."""
        req = IORequest.read_runs(
            self.nsid, runs,
            command_size=command_size or self.config.effective_block_bytes,
            chunk_bytes=self.config.max_batch_bytes, qos=qos, **envelope,
        )
        completion = yield from self.submit(req)
        return completion.value

    def write_log_page(
        self,
        region_offset: int,
        page: bytes,
        wire_bytes: int,
        qos: QoSClass = QoSClass.JOURNAL,
        **envelope: Any,
    ) -> Generator[Event, Any, None]:
        """Persist one operation-log page and flush it (WAL barrier).

        ``wire_bytes`` may exceed the page for physical-logging mode —
        the extra traffic the provenance design eliminates.
        """
        req = IORequest.log_page(
            self.nsid, region_offset, page, wire_bytes, qos=qos, **envelope,
        )
        yield from self.submit(req)

    def write_state(
        self,
        region_offset: int,
        data: bytes,
        qos: QoSClass = QoSClass.CKPT_DATA,
        **envelope: Any,
    ) -> Generator[Event, Any, None]:
        """Persist an internal-state checkpoint blob (page-padded)."""
        req = IORequest.state_blob(
            self.nsid, region_offset, data,
            command_size=self.config.effective_block_bytes, qos=qos, **envelope,
        )
        yield from self.submit(req)

    def read_bytes(
        self,
        region_offset: int,
        nbytes: int,
        qos: QoSClass = QoSClass.RECOVERY,
        **envelope: Any,
    ) -> Generator[Event, Any, bytes]:
        """Read real bytes back (recovery path), zero-filling gaps."""
        req = IORequest.recovery_read(
            self.nsid, region_offset, nbytes,
            command_size=self.config.effective_block_bytes, qos=qos, **envelope,
        )
        completion = yield from self.submit(req)
        out = bytearray(nbytes)
        for extent in completion.value:
            if extent.payload.is_synthetic:
                raise InvalidArgument("recovery read hit synthetic (bulk) data")
            at = extent.start - region_offset
            out[at : at + extent.length] = extent.payload.data
        return bytes(out)
