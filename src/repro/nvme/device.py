"""The simulated NVMe SSD.

Service model (calibration constants live in :mod:`repro.bench.calibration`;
the spec here just carries them):

* **Sustained bandwidth** — reads and writes each flow through a fluid
  max-min :class:`~repro.sim.fairshare.FairShareServer`, so concurrent
  clients share the device fairly, as multi-queue NVMe hardware does.
* **Per-command controller cost** — a batch of ``n`` commands of size
  ``s`` is rate-capped at ``s / per_command_cost``: the controller
  serialises command processing even when flash transfers are parallel.
  This is the device-side half of the small-hugeblock penalty in
  Figure 7(a) (the other half is client software, charged by the data
  plane).
* **Command-granular arbitration jitter** — with ``k`` concurrent flows,
  a new batch waits an exponential extra delay with mean
  ``beta * k * s / bandwidth``: admission behind whole commands of size
  ``s``. This is the paper's "a large block size will increase the
  waiting time for each hardware IO queue" (§IV-B) and produces the
  mild large-block upturn in Figure 7(a).
* **Device RAM + capacitance** — specs with a RAM write buffer ingest at
  RAM speed until a token bucket (refilled at flash speed) empties;
  committed writes always survive power loss (enhanced power-loss data
  protection, §III-D). The P4800X is 3D-XPoint and needs no RAM buffer,
  so its spec sets ``ram_buffer_bytes = 0``.

Writes *commit to the extent store only after the transfer completes* —
a power failure mid-command loses exactly that command, which is what
the microfs durability argument assumes.

Command lifecycle. Each read, write and tier command is one
callback-driven :class:`_Command`; the caller gets its completion event.
It is not a process and joins no ``AllOf``; three hops drive it:

1. **The start event**, pushed at submission. It runs after every event
   already due at that instant, as a process's first step would, so a
   command draws its jitter, takes its arbiter slot and opens its spans
   behind everything else due then; running this step in the caller's
   frame would move those draws ahead of same-instant events and change
   results. It re-checks the namespace, reads the power epoch, takes an
   arbiter slot (or waits on a grant event), draws the jitter, takes
   RAM-bucket tokens and opens ``nvme.wait``.
2. **The wait timeout** for the jitter plus the RAM-bucket deficit, when
   positive. Then the power check, and the media and command-rate flows
   start on their fair-share servers.
3. **The flow completions.** Each server calls the command back inside
   the wake that finishes its flow. When the later one finishes, the
   command checks the power epoch again, releases its arbiter slot,
   commits to (or reads) the extent store, counts, ends its span and
   succeeds the completion event.

An exception in any step releases the arbiter slot first, ends the
command span with ``error``, and fails the completion event through
:meth:`~repro.sim.engine.Environment.fail`, so a failure nobody waits
on aborts the run, as a failed process does. ``flush`` and
``tier_sync`` stay processes: each is one timeout, off the hot path.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional

import numpy as np

from repro.bench import calibration as cal
from repro.errors import DeviceError, DevicePoweredOff, InvalidCommand, OutOfSpace
from repro.nvme.commands import Command, CommandResult, Opcode, Payload
from repro.nvme.extents import Extent
from repro.nvme.namespace import Namespace
from repro.obs.context import tracer_of
from repro.obs.metrics import Counter
from repro.sim.engine import Environment, Event
from repro.sim.fairshare import FairShareServer
from repro.tiers.base import DeviceModel

if TYPE_CHECKING:
    from repro.io.qos import QoSClass

__all__ = ["SSDSpec", "SSD", "intel_p4800x", "generic_nand_ssd"]


@dataclass(frozen=True)
class SSDSpec:
    """Static characteristics of an SSD model."""

    model: str
    capacity_bytes: int
    write_bandwidth: float  # sustained, bytes/s
    read_bandwidth: float
    per_command_cost: float  # controller serialisation per command, seconds
    flush_cost: float
    #: Media access latency per command. With the run-to-completion
    #: (queue-depth-1) submission style of microfs principle 1, an
    #: instance's throughput is capped at command_size/access_latency —
    #: the mechanism that makes tiny hugeblocks slow at low concurrency
    #: (Figure 7(d)) and large hugeblocks necessary to saturate.
    access_latency: float = cal.SSD_DEFAULT_ACCESS_LATENCY
    lba_size: int = 4096
    max_hw_queues: int = 32
    max_namespaces: int = 128
    ram_buffer_bytes: int = 0
    ram_write_bandwidth: float = 0.0
    arbitration_beta: float = cal.SSD_ARBITRATION_BETA

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise DeviceError(f"{self.model}: capacity must be positive")
        if self.write_bandwidth <= 0 or self.read_bandwidth <= 0:
            raise DeviceError(f"{self.model}: bandwidths must be positive")
        if self.ram_buffer_bytes > 0 and self.ram_write_bandwidth <= 0:
            raise DeviceError(f"{self.model}: RAM buffer needs ram_write_bandwidth")


def intel_p4800x() -> SSDSpec:
    """Intel Optane P4800X (the paper's device, §IV-A).

    Numbers (and their provenance) live in ``repro.bench.calibration``'s
    ``P4800X_*`` block — this factory only carries them into a spec.
    """
    return SSDSpec(
        model="Intel Optane P4800X",
        capacity_bytes=cal.P4800X_CAPACITY_BYTES,
        write_bandwidth=cal.P4800X_WRITE_BANDWIDTH,
        read_bandwidth=cal.P4800X_READ_BANDWIDTH,
        per_command_cost=cal.P4800X_PER_COMMAND_COST,
        flush_cost=cal.P4800X_FLUSH_COST,
        access_latency=cal.P4800X_ACCESS_LATENCY,
        max_hw_queues=cal.P4800X_MAX_HW_QUEUES,
    )


def generic_nand_ssd() -> SSDSpec:
    """A NAND TLC datacenter SSD with a capacitor-backed DRAM write buffer.

    BurstFS's node-local SSDs use this spec, so the ``sysmatrix`` and
    ``ext-burstbuffer`` tables depend on it; tests also use it for the
    RAM-buffer burst/drain and power-loss capacitance paths that the
    Optane spec (no RAM) never reaches. Numbers live in
    ``repro.bench.calibration``'s ``NAND_SSD_*`` block.
    """
    return SSDSpec(
        model="Generic NAND DC SSD",
        capacity_bytes=cal.NAND_SSD_CAPACITY_BYTES,
        write_bandwidth=cal.NAND_SSD_WRITE_BANDWIDTH,
        read_bandwidth=cal.NAND_SSD_READ_BANDWIDTH,
        per_command_cost=cal.NAND_SSD_PER_COMMAND_COST,
        flush_cost=cal.NAND_SSD_FLUSH_COST,
        access_latency=cal.NAND_SSD_ACCESS_LATENCY,
        ram_buffer_bytes=cal.NAND_SSD_RAM_BUFFER_BYTES,
        ram_write_bandwidth=cal.NAND_SSD_RAM_WRITE_BANDWIDTH,
    )


class SSD(DeviceModel):  # reproflow: ignore[FLOW103] (deliberate: runtime sanitizer watches SSDs)
    """A live simulated SSD attached to a simulation environment.

    Implements the tier-neutral :class:`~repro.tiers.base.DeviceModel`
    surface so tier clients can treat the NVMe fleet as one tier among
    several; the namespace/command paths below remain the byte-accurate
    primary interface.
    """

    def __init__(
        self,
        env: Environment,
        spec: SSDSpec,
        name: str,
        rng: Optional[np.random.Generator] = None,
    ):
        self.env = env
        self.spec = spec
        self.name = name
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._write_server = FairShareServer(
            env, capacity=self._ingest_bandwidth(), name=f"{name}.write"
        )
        self._read_server = FairShareServer(
            env, capacity=spec.read_bandwidth, name=f"{name}.read"
        )
        # The controller serialises command processing: an aggregate
        # ceiling of 1/per_command_cost commands/second across all
        # queues. A batch completes when both its data transfer and its
        # command processing are done — small commands make the command
        # stream the binding constraint (the Figure 7(a) small-block
        # penalty), at any concurrency.
        self._cmd_server = FairShareServer(
            env, capacity=1.0 / spec.per_command_cost, name=f"{name}.cmds"
        )
        self._namespaces: Dict[int, Namespace] = {}
        self._nsids = itertools.count(1)
        self._queues_allocated = 0
        self.powered = True
        self._power_epoch = 0
        # RAM write-buffer token bucket (lazy refill at flash rate).
        self._tokens = float(spec.ram_buffer_bytes)
        self._tokens_at = env.now
        self.counters = Counter()
        #: Optional front-end QoS arbiter (see
        #: :class:`repro.nvme.queues.WrrArbiter`). ``None`` — the default
        #: — keeps the admission path yield-free and the pinned-seed
        #: timelines bit-identical.
        self.arbiter = None

    def _ingest_bandwidth(self) -> float:
        if self.spec.ram_buffer_bytes > 0:
            return self.spec.ram_write_bandwidth
        return self.spec.write_bandwidth

    # -- namespace management ---------------------------------------------------

    def create_namespace(self, nbytes: int, owner_job: Optional[str] = None) -> Namespace:
        """Carve a new namespace from unused capacity (§III-F security model)."""
        if len(self._namespaces) >= self.spec.max_namespaces:
            raise DeviceError(f"{self.name}: namespace limit reached")
        if nbytes > self.free_bytes():
            raise OutOfSpace(
                f"{self.name}: need {nbytes} bytes, only {self.free_bytes()} free"
            )
        ns = Namespace(next(self._nsids), nbytes, owner_job=owner_job)
        self._namespaces[ns.nsid] = ns
        monitor = self.env.monitor
        if monitor is not None:
            # SSDs deliberately declare no _san_tiebreak: same-timestamp
            # namespace churn from distinct actors has no ordering rule.
            monitor.note_mutation(self, "create_namespace")
            monitor.note_namespace(self, ns, created=True)
        return ns

    def delete_namespace(self, nsid: int) -> None:
        if nsid not in self._namespaces:
            raise DeviceError(f"{self.name}: no namespace {nsid}")
        ns = self._namespaces[nsid]
        del self._namespaces[nsid]
        monitor = self.env.monitor
        if monitor is not None:
            monitor.note_mutation(self, "delete_namespace")
            monitor.note_namespace(self, ns, created=False)

    def namespace(self, nsid: int) -> Namespace:
        try:
            return self._namespaces[nsid]
        except KeyError:
            raise DeviceError(f"{self.name}: no namespace {nsid}") from None

    def namespaces(self) -> List[Namespace]:
        return list(self._namespaces.values())

    def free_bytes(self) -> int:
        used = sum(ns.nbytes for ns in self._namespaces.values())
        return self.spec.capacity_bytes - used

    # -- hardware queue bookkeeping -----------------------------------------------

    def allocate_queue(self) -> int:
        """Assign a hardware queue id; beyond ``max_hw_queues`` ids wrap.

        The paper gives each microfs instance its own queue but also
        recommends 56-112 processes per SSD, exceeding the P4800X's 32
        queues — so, like real deployments, queue ids are virtualised
        (shared) past the hardware limit.
        """
        qid = self._queues_allocated % self.spec.max_hw_queues
        self._queues_allocated += 1
        return qid

    @property
    def queues_shared(self) -> bool:
        return self._queues_allocated > self.spec.max_hw_queues

    # -- power ---------------------------------------------------------------------

    def power_fail(self) -> None:
        """Drop power: in-flight commands are lost, committed data survives.

        Device capacitance flushes the RAM buffer (already modelled as
        committed-on-completion), matching enhanced power-loss data
        protection [38].
        """
        if not self.powered:
            return
        self.powered = False
        self._power_epoch += 1
        self.counters.add("power_failures")

    def power_restore(self) -> None:
        self.powered = True

    # -- token bucket (RAM buffer) ----------------------------------------------------

    def _take_tokens(self, nbytes: float) -> float:
        """Consume RAM-buffer credit; returns extra delay for the deficit."""
        if self.spec.ram_buffer_bytes == 0:
            return 0.0
        now = self.env.now
        refill = (now - self._tokens_at) * self.spec.write_bandwidth
        self._tokens = min(self.spec.ram_buffer_bytes, self._tokens + refill)
        self._tokens_at = now
        if self._tokens >= nbytes:
            self._tokens -= nbytes
            return 0.0
        deficit = nbytes - self._tokens
        self._tokens = 0.0
        return deficit / self.spec.write_bandwidth

    # -- IO -------------------------------------------------------------------------

    def write(
        self,
        nsid: int,
        offset: int,
        payload: Payload,
        command_size: int,
        rate_cap: Optional[float] = None,
        qos: Optional["QoSClass"] = None,
    ) -> Event:
        """Batch write: ``payload`` at byte ``offset``, split into
        ``command_size``-byte commands. Returns a completion event whose
        value is a :class:`CommandResult`.

        ``rate_cap`` lets the fabric layer impose the network link limit;
        ``qos`` is the submitting IO's traffic class, consulted by the
        optional front-end arbiter.
        """
        self._check_io(nsid, offset, payload.nbytes, command_size)
        # Claim the caller's handoff parent here, while still inside the
        # caller's synchronous frame (the command starts later).
        tr = tracer_of(self.env)
        span = None if tr is None else tr.begin(
            "nvme.write", cat="device", track=self.name,
            parent=tr.take_handoff(), nsid=nsid, bytes=payload.nbytes)
        return _Command(self, True, payload.nbytes, command_size, rate_cap,
                        nsid, offset, payload, qos, span).done

    def read(
        self,
        nsid: int,
        offset: int,
        nbytes: int,
        command_size: int,
        rate_cap: Optional[float] = None,
        qos: Optional["QoSClass"] = None,
    ) -> Event:
        """Batch read; the event's value is a :class:`CommandResult` whose
        ``extra['extents']`` holds the overlapping stored extents."""
        self._check_io(nsid, offset, nbytes, command_size)
        tr = tracer_of(self.env)
        span = None if tr is None else tr.begin(
            "nvme.read", cat="device", track=self.name,
            parent=tr.take_handoff(), nsid=nsid, bytes=nbytes)
        return _Command(self, False, nbytes, command_size, rate_cap,
                        nsid, offset, None, qos, span).done

    def flush(self, nsid: int) -> Event:
        """FLUSH: cheap — committed data is already capacitor-protected."""
        if not self.powered:
            raise DevicePoweredOff(f"{self.name} is powered off")
        self.namespace(nsid)  # validates nsid
        self.counters.add("flushes")
        tr = tracer_of(self.env)
        span = None if tr is None else tr.begin(
            "nvme.flush", cat="device", track=self.name,
            parent=tr.take_handoff(), nsid=nsid)
        return self.env.process(self._do_flush(nsid, span))

    def _do_flush(self, nsid: int, span=None) -> Generator[Event, Any, CommandResult]:
        started = self.env.now
        yield self.env.timeout(self.spec.flush_cost)
        if span is not None:
            tr = tracer_of(self.env)
            if tr is not None:
                tr.end(span)
        return CommandResult(
            Command(Opcode.FLUSH, nsid), latency=self.env.now - started
        )

    def submit(self, command: Command, rate_cap: Optional[float] = None) -> Event:
        """Run one NVMe command: an LBA-addressed READ or WRITE, a FLUSH
        or an IDENTIFY. The completion value is a :class:`CommandResult`."""
        nbytes = command.nblocks * self.spec.lba_size
        offset = command.slba * self.spec.lba_size
        if command.opcode is Opcode.WRITE:
            payload = command.payload
            if payload.nbytes > nbytes:
                raise InvalidCommand(
                    f"payload {payload.nbytes}B exceeds LBA range {nbytes}B"
                )
            return self.write(
                command.nsid, offset, payload, max(nbytes, 1), rate_cap,
                qos=command.qos,
            )
        if command.opcode is Opcode.READ:
            return self.read(
                command.nsid, offset, nbytes, max(nbytes, 1), rate_cap,
                qos=command.qos,
            )
        if command.opcode is Opcode.FLUSH:
            return self.flush(command.nsid)
        if command.opcode is Opcode.IDENTIFY:
            event = self.env.event()
            event.succeed(CommandResult(command, latency=0.0, extra={"spec": self.spec}))
            return event
        raise InvalidCommand(f"unsupported opcode {command.opcode}")

    # -- DeviceModel tier surface --------------------------------------------------

    def capacity_bytes(self) -> int:
        return self.spec.capacity_bytes

    def write_bandwidth(self) -> float:
        return self.spec.write_bandwidth

    def read_bandwidth(self) -> float:
        return self.spec.read_bandwidth

    def tier_write(self, nbytes: int) -> Event:
        """Tier-seam bulk write: the full service-time core at the
        default hugeblock command size, without extent bookkeeping or
        front-end arbitration. The event's value is ``nbytes``."""
        return _Command(self, True, nbytes, cal.DEFAULT_HUGEBLOCK).done

    def tier_read(self, nbytes: int) -> Event:
        return _Command(self, False, nbytes, cal.DEFAULT_HUGEBLOCK).done

    def tier_sync(self) -> Event:
        return self.env.process(self._tier_sync())

    def _tier_sync(self) -> Generator[Event, Any, None]:
        yield self.env.timeout(self.spec.flush_cost)

    def _arbitration_jitter(self, command_size: int, server: FairShareServer) -> float:
        """Admission wait behind whole commands from other active queues."""
        active = server.active_flows
        if active == 0 or self.spec.arbitration_beta == 0.0:
            return 0.0
        mean = self.spec.arbitration_beta * active * command_size / server.capacity
        return float(self.rng.exponential(mean))

    def _qd1_cap(self, command_size: int, extern_cap: Optional[float]) -> Optional[float]:
        """Queue-depth-1 ceiling: one command in flight pays the media
        access latency per command."""
        if self.spec.access_latency <= 0:
            return extern_cap
        cap = command_size / self.spec.access_latency
        if extern_cap is not None:
            cap = min(cap, extern_cap)
        return cap

    def _check_io(self, nsid: int, offset: int, nbytes: int, command_size: int) -> None:
        if not self.powered:
            raise DevicePoweredOff(f"{self.name} is powered off")
        if command_size <= 0:
            raise InvalidCommand(f"command_size must be positive, got {command_size}")
        # Byte-granular addressing is allowed: sub-LBA writes model the
        # controller's internal read-modify-write; costs are still charged
        # per command_size-sized command.
        self.namespace(nsid).check_range(offset, nbytes)

    def _check_power(self, epoch: int) -> None:
        if not self.powered or epoch != self._power_epoch:
            raise DevicePoweredOff(f"{self.name}: power lost during command")


class _Command:
    """One read, write or tier command on an :class:`SSD`, driven by
    callbacks; ``done`` is its completion event.

    A tier command has no namespace (``nsid`` is ``None``): it skips the
    namespace re-check, the arbiter, the extent store and the spans, and
    its completion value is ``nbytes``.
    """

    __slots__ = ("ssd", "is_write", "nbytes", "command_size", "n_cmds",
                 "rate_cap", "nsid", "offset", "payload", "qos", "span", "tr",
                 "done", "ns", "epoch", "started", "arbiter", "pending",
                 "wait", "media", "cmdrate")

    def __init__(
        self,
        ssd: SSD,
        is_write: bool,
        nbytes: int,
        command_size: int,
        rate_cap: Optional[float] = None,
        nsid: Optional[int] = None,
        offset: int = 0,
        payload: Optional[Payload] = None,
        qos: Optional["QoSClass"] = None,
        span=None,
    ):
        env = ssd.env
        self.ssd = ssd
        self.is_write = is_write
        self.nbytes = nbytes
        self.command_size = command_size
        self.n_cmds = max(1, math.ceil(nbytes / command_size))
        self.rate_cap = rate_cap
        self.nsid = nsid
        self.offset = offset
        self.payload = payload
        self.qos = qos
        self.span = span
        self.tr = tracer_of(env) if span is not None else None
        self.done = env.event()
        self.ns: Optional[Namespace] = None
        self.epoch = 0
        self.started = 0.0
        #: The arbiter whose slot this command holds, until released.
        self.arbiter = None
        self.pending = 2  # flows still running: media and command rate
        self.wait = self.media = self.cmdrate = None
        start = env.event()
        start.callbacks.append(self._start)
        start.succeed()

    def _start(self, _event: Event) -> None:
        """Re-check the namespace, read the power epoch, take a slot."""
        ssd = self.ssd
        try:
            if self.nsid is not None:
                ssd._check_io(self.nsid, self.offset, self.nbytes, self.command_size)
                self.ns = ssd._namespaces[self.nsid]
            self.epoch = ssd._power_epoch
            self.started = ssd.env.now
            # QoS arbitration happens before the jitter draw so that with
            # no arbiter (or an uncontended one) the rng sequence is
            # untouched.
            arbiter = ssd.arbiter if self.nsid is not None else None
            if arbiter is not None:
                grant = arbiter.acquire(self.qos)
                self.arbiter = arbiter
                if grant is not None:
                    grant.callbacks.append(self._granted)
                    return
            self._admitted()
        except Exception as exc:  # noqa: BLE001 - fails the command
            self._fail(exc)

    def _granted(self, _event: Event) -> None:
        try:
            self._admitted()
        except Exception as exc:  # noqa: BLE001 - fails the command
            self._fail(exc)

    def _admitted(self) -> None:
        """Draw the arbitration jitter and the RAM-bucket delay; wait."""
        ssd = self.ssd
        if self.is_write:
            jitter = ssd._arbitration_jitter(self.command_size, ssd._write_server)
            bucket_delay = ssd._take_tokens(self.nbytes)
        else:
            # No RAM bucket on the read path.
            jitter = ssd._arbitration_jitter(self.command_size, ssd._read_server)
            bucket_delay = 0.0
        delay = jitter + bucket_delay
        if delay > 0:
            tr = self.tr
            if tr is not None:
                if self.is_write:
                    self.wait = tr.begin(
                        "nvme.wait", cat="device", track=ssd.name, parent=self.span,
                        jitter_s=jitter, ram_bucket_s=bucket_delay)
                else:
                    self.wait = tr.begin(
                        "nvme.wait", cat="device", track=ssd.name, parent=self.span,
                        jitter_s=jitter)
            ssd.env.timeout(delay).callbacks.append(self._waited)
        else:
            self._transfer()

    def _waited(self, _event: Event) -> None:
        try:
            if self.wait is not None:
                self.tr.end(self.wait)
            self._transfer()
        except Exception as exc:  # noqa: BLE001 - fails the command
            self._fail(exc)

    def _transfer(self) -> None:
        """Start the media and command-rate flows."""
        ssd = self.ssd
        ssd._check_power(self.epoch)
        cap = ssd._qd1_cap(self.command_size, self.rate_cap)
        tr = self.tr
        if tr is not None:
            self.media = tr.begin("nvme.media", cat="device", track=ssd.name,
                                  parent=self.span, bytes=self.nbytes)
            self.cmdrate = tr.begin("nvme.cmdrate", cat="device", track=ssd.name,
                                    parent=self.span, cmds=self.n_cmds)
        server = ssd._write_server if self.is_write else ssd._read_server
        server.start(self.nbytes, cap, self._media_done)
        ssd._cmd_server.start(self.n_cmds, None, self._cmdrate_done)

    def _media_done(self, _elapsed: float) -> None:
        if self.media is not None:
            self.tr.end(self.media)
        self.pending -= 1
        if not self.pending:
            self._finish()

    def _cmdrate_done(self, _elapsed: float) -> None:
        if self.cmdrate is not None:
            self.tr.end(self.cmdrate)
        self.pending -= 1
        if not self.pending:
            self._finish()

    def _finish(self) -> None:
        """Both flows are done: release the slot, commit, complete."""
        ssd = self.ssd
        try:
            ssd._check_power(self.epoch)
            self._release()
            ns = self.ns
            if ns is None:
                ssd.counters.add(
                    "tier_bytes_written" if self.is_write else "tier_bytes_read",
                    self.nbytes)
                self.done.succeed(self.nbytes)
                return
            if self.is_write:
                ns.store.write(self.offset, self.payload)
                ssd.counters.add("bytes_written", self.nbytes)
                ssd.counters.add("write_commands", self.n_cmds)
                extra: Dict[str, Any] = {}
            else:
                extents: List[Extent] = ns.store.read(self.offset, self.nbytes)
                ssd.counters.add("bytes_read", self.nbytes)
                ssd.counters.add("read_commands", self.n_cmds)
                extra = {"extents": extents}
            latency = ssd.env.now - self.started
            if self.tr is not None:
                self.tr.end(self.span)
            ctx = ssd.env.obs
            if ctx is not None:
                ctx.metrics.histogram(
                    "nvme.write_latency_s" if self.is_write else "nvme.read_latency_s"
                ).observe(latency)
            self.done.succeed(CommandResult(None, latency=latency, extra=extra))
        except Exception as exc:  # noqa: BLE001 - fails the command
            self._fail(exc)

    def _release(self) -> None:
        arbiter = self.arbiter
        if arbiter is not None:
            self.arbiter = None
            arbiter.release()

    def _fail(self, exc: BaseException) -> None:
        """Release the slot first, end the span, fail ``done``: a failure
        nobody awaits aborts the run, as a failed process does."""
        self._release()
        if self.tr is not None:
            self.tr.end(self.span, error=type(exc).__name__)
        self.ssd.env.fail(self.done, exc)
