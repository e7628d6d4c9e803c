"""SPDK-style NVMe-over-Fabrics target and initiator.

One :class:`NVMfTarget` daemon runs per storage node and is multi-tenant
(the reason the paper picks SPDK, §III-D). An :class:`NVMfInitiator` is
embedded in each NVMe-CR runtime instance; ``connect`` yields an
:class:`NVMfSession` bound to one target — the paper's "each runtime
instance directly accesses its own remote SSD partition via NVMf".

Cost model per batched submission: one fabric round trip (submissions
within a batch are pipelined, completions polled), per-message initiator
CPU, a per-command target-side SPDK cost folded into the rate cap, and
the device's own service — with the QP's line rate as an upper bound on
the data stream.

A session ``read`` or ``write`` is one callback-driven :class:`_SessionIO`
that takes the hops a process would, without one: a start event pushed
at submission (the round trip, its metrics and the ``nvmf.rtt`` span),
the rtt + CPU timeout, the device submit, and on the device's
completion the counters, metrics and span end before the session's
completion event.
A failure ends the ``nvmf.*`` span with ``error`` and fails that event
through :meth:`~repro.sim.engine.Environment.fail`. Doorbell batches
(``write_batch``) and ``flush`` stay processes.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.errors import FabricError
from repro.fabric.rdma import RdmaFabric
from repro.io.qos import QoSClass
from repro.nvme.commands import CommandResult, Payload
from repro.nvme.device import SSD
from repro.obs.context import tracer_of
from repro.obs.metrics import Counter
from repro.sim.engine import Environment, Event
from repro.units import us

__all__ = ["NVMfTarget", "NVMfInitiator", "NVMfSession"]

# SPDK target-side processing per command: "negligible software
# overhead" (§III-D) but not zero — one sub-microsecond poll-mode pass.
_TARGET_PER_COMMAND = us(0.4)


def merge_adjacent_extents(
    chunks: List[Tuple[int, Payload]]
) -> List[Tuple[int, Payload]]:
    """Coalesce device-adjacent real-data chunks into single extents.

    Only consecutive entries whose device ranges abut are merged, and
    only when both carry real bytes — synthetic (fingerprinted) payloads
    keep their identity tags so read-back verification still holds; they
    share the batch's single fabric round trip without being fused.
    """
    merged: List[Tuple[int, Payload]] = []
    for offset, payload in chunks:
        if merged:
            prev_off, prev = merged[-1]
            if (
                prev_off + prev.nbytes == offset
                and not prev.is_synthetic
                and not payload.is_synthetic
            ):
                merged[-1] = (prev_off, Payload.of_bytes(prev.data + payload.data))
                continue
        merged.append((offset, payload))
    return merged


class NVMfTarget:
    """SPDK NVMf target daemon exporting one SSD's namespaces."""

    def __init__(self, env: Environment, node_name: str, ssd: SSD):
        self.env = env
        self.node_name = node_name
        self.ssd = ssd
        self.sessions = 0
        self.alive = True
        self.counters = Counter()

    def subsystem_nqn(self) -> str:
        """NVMe Qualified Name for discovery."""
        return f"nqn.2021-01.repro:{self.node_name}:{self.ssd.name}"

    def kill(self) -> None:
        """Target daemon dies (fault injection): every session breaks.

        Device data is untouched — this is a software failure; initiators
        reconnect once a replacement daemon is up (:meth:`revive`).
        """
        self.alive = False
        self.counters.add("deaths")
        ctx = self.env.obs
        if ctx is not None:
            ctx.metrics.counter("nvmf.target.deaths").add(1)

    def revive(self) -> None:
        self.alive = True


class NVMfSession:  # reproflow: ignore[FLOW103] (counters owned by the session's client)
    """One initiator's connection (QP) to a target."""

    def __init__(
        self,
        env: Environment,
        fabric: RdmaFabric,
        initiator_node: str,
        target: NVMfTarget,
    ):
        self.env = env
        self.fabric = fabric
        self.initiator_node = initiator_node
        self.target = target
        self.connected = True
        self.qid = target.ssd.allocate_queue()
        target.sessions += 1
        self.counters = Counter()

    @property
    def is_local(self) -> bool:
        return self.initiator_node == self.target.node_name

    def _require_connected(self) -> None:
        if not self.connected:
            raise FabricError(
                f"session to {self.target.subsystem_nqn()} is disconnected"
            )
        if not self.target.alive:
            # The daemon died under us: the QP is torn down too.
            self.disconnect()
            raise FabricError(
                f"target {self.target.subsystem_nqn()} is dead (daemon fault)"
            )

    def disconnect(self) -> None:
        if self.connected:
            self.connected = False
            self.target.sessions -= 1

    # -- IO ----------------------------------------------------------------------

    def _track(self) -> str:
        return f"nvmf.{self.initiator_node}>{self.target.node_name}"

    def write(
        self,
        nsid: int,
        offset: int,
        payload: Payload,
        command_size: int,
        qos: Optional[QoSClass] = None,
    ) -> Event:
        """Batched remote write; event value is the device CommandResult."""
        self._require_connected()
        tr = tracer_of(self.env)
        span = None if tr is None else tr.begin(
            "nvmf.write", cat="fabric", track=self._track(),
            parent=tr.take_handoff(), bytes=payload.nbytes,
            local=self.is_local)
        return _SessionIO(
            self,
            lambda cap: self.target.ssd.write(
                nsid, offset, payload, command_size, rate_cap=cap, qos=qos
            ),
            payload.nbytes,
            command_size,
            span,
            qos,
        ).done

    def read(
        self,
        nsid: int,
        offset: int,
        nbytes: int,
        command_size: int,
        qos: Optional[QoSClass] = None,
    ) -> Event:
        self._require_connected()
        tr = tracer_of(self.env)
        span = None if tr is None else tr.begin(
            "nvmf.read", cat="fabric", track=self._track(),
            parent=tr.take_handoff(), bytes=nbytes, local=self.is_local)
        return _SessionIO(
            self,
            lambda cap: self.target.ssd.read(
                nsid, offset, nbytes, command_size, rate_cap=cap, qos=qos
            ),
            nbytes,
            command_size,
            span,
            qos,
        ).done

    def write_batch(
        self,
        nsid: int,
        chunks: List[Tuple[int, Payload]],
        command_size: int,
        qos: Optional[QoSClass] = None,
    ) -> Event:
        """Doorbell-batched write: coalesce adjacent extents, ring once.

        The whole batch shares a *single* fabric round trip (one
        ``nvmf.rtt`` span) and the per-command QD-1 round-trip cap is
        lifted — pipelined submissions keep the wire full, which is the
        point of batching. Event value is the list of device
        CommandResults, one per (possibly merged) extent.
        """
        self._require_connected()
        merged = merge_adjacent_extents(list(chunks))
        total = sum(p.nbytes for _off, p in merged)
        tr = tracer_of(self.env)
        span = None if tr is None else tr.begin(
            "nvmf.write", cat="fabric", track=self._track(),
            parent=tr.take_handoff(), bytes=total, batch=len(merged),
            local=self.is_local)
        return self.env.process(self._io_batch(nsid, merged, command_size, span, qos))

    def flush(self, nsid: int, qos: Optional[QoSClass] = None) -> Event:
        self._require_connected()
        # Claim the handoff here (synchronously) so a stale parent never
        # leaks to an unrelated later span.
        tr = tracer_of(self.env)
        span = None if tr is None else tr.begin(
            "nvmf.flush", cat="fabric", track=self._track(),
            parent=tr.take_handoff(), local=self.is_local)
        return self.env.process(self._flush(nsid, span, qos))

    def _io_batch(
        self,
        nsid: int,
        merged: List[Tuple[int, Payload]],
        command_size: int,
        span=None,
        qos: Optional[QoSClass] = None,
    ) -> Generator[Event, Any, List[CommandResult]]:
        tr = tracer_of(self.env) if span is not None else None
        total = sum(p.nbytes for _off, p in merged)
        n_cmds = sum(
            max(1, -(-p.nbytes // command_size)) for _off, p in merged
        )
        rtt = self.fabric.round_trip(
            self.initiator_node, self.target.node_name, qos=qos)
        cpu = self.fabric.spec.per_message_cpu + n_cmds * _TARGET_PER_COMMAND
        if rtt + cpu > 0:
            hop = None if tr is None else tr.begin(
                "nvmf.rtt", cat="fabric", track=self._track(), parent=span,
                rtt_s=rtt, cpu_s=cpu, batch=len(merged),
                hops=0 if self.is_local else self.fabric.topo.hop_count(
                    self.initiator_node, self.target.node_name))
            yield self.env.timeout(rtt + cpu)
            if hop is not None:
                tr.end(hop)
        if self.is_local:
            cap = None
        else:
            # Doorbell batching pipelines submissions behind one ring:
            # the per-command command_size/rtt QD-1 ceiling of _io does
            # not apply; only the (possibly degraded) line rate does.
            cap = self.fabric.payload_cap(self.initiator_node, self.target.node_name)
        events = []
        for offset, payload in merged:
            if tr is not None:
                tr.handoff(span)
            events.append(
                self.target.ssd.write(
                    nsid, offset, payload, command_size, rate_cap=cap, qos=qos
                )
            )
        yield self.env.all_of(events)
        results = [ev.value for ev in events]
        self.counters.add("bytes", total)
        self.counters.add("commands", n_cmds)
        self.counters.add("batches")
        self.target.counters.add("bytes", total)
        ctx = self.env.obs
        if ctx is not None:
            m = ctx.metrics
            m.counter("nvmf.bytes", unit="B").add(total)
            m.counter("nvmf.commands").add(n_cmds)
            m.counter("nvmf.batches").add(1)
            m.counter("nvmf.target.bytes", unit="B").add(total)
            if not self.is_local:
                m.counter("nvmf.remote_bytes", unit="B").add(total)
                m.counter("nvmf.fabric_wait_s", unit="s").add(rtt + cpu)
        if tr is not None:
            tr.end(span)
        return results

    def _flush(
        self, nsid: int, span=None, qos: Optional[QoSClass] = None
    ) -> Generator[Event, Any, None]:
        tr = tracer_of(self.env) if span is not None else None
        rtt = self.fabric.round_trip(
            self.initiator_node, self.target.node_name, qos=qos)
        if rtt > 0:
            yield self.env.timeout(rtt)
            ctx = self.env.obs
            if ctx is not None and not self.is_local:
                ctx.metrics.counter("nvmf.fabric_wait_s", unit="s").add(rtt)
        if tr is not None:
            tr.handoff(span)
        yield self.target.ssd.flush(nsid)
        if tr is not None:
            tr.end(span)


class _SessionIO:
    """One :meth:`NVMfSession.read` or ``write``, driven by callbacks (see
    the module docstring); ``done`` is its completion event, whose value
    is the device's :class:`CommandResult`."""

    __slots__ = ("session", "submit", "nbytes", "command_size", "n_cmds",
                 "qos", "span", "tr", "done", "rtt", "cpu", "hop")

    def __init__(self, session: NVMfSession, submit, nbytes: int,
                 command_size: int, span=None, qos: Optional[QoSClass] = None):
        env = session.env
        self.session = session
        self.submit = submit
        self.nbytes = nbytes
        self.command_size = command_size
        self.n_cmds = max(1, -(-nbytes // command_size))
        self.qos = qos
        self.span = span
        self.tr = tracer_of(env) if span is not None else None
        self.done = env.event()
        self.rtt = self.cpu = 0.0
        self.hop = None
        start = env.event()
        start.callbacks.append(self._start)
        start.succeed()

    def _start(self, _event: Event) -> None:
        """Charge the round trip and the initiator/target CPU."""
        session = self.session
        try:
            fabric = session.fabric
            rtt = self.rtt = fabric.round_trip(
                session.initiator_node, session.target.node_name, qos=self.qos)
            cpu = self.cpu = (fabric.spec.per_message_cpu
                              + self.n_cmds * _TARGET_PER_COMMAND)
            if rtt + cpu > 0:
                if self.tr is not None:
                    self.hop = self.tr.begin(
                        "nvmf.rtt", cat="fabric", track=session._track(),
                        parent=self.span, rtt_s=rtt, cpu_s=cpu,
                        hops=0 if session.is_local else fabric.topo.hop_count(
                            session.initiator_node, session.target.node_name))
                session.env.timeout(rtt + cpu).callbacks.append(self._submit)
            else:
                self._submit(None)
        except Exception as exc:  # noqa: BLE001 - fails the IO
            self._fail(exc)

    def _submit(self, _event: Optional[Event]) -> None:
        """Hand the command to the target's device."""
        session = self.session
        try:
            tr = self.tr
            if self.hop is not None:
                tr.end(self.hop)
            if session.is_local:
                cap = None
            else:
                # Run-to-completion over the fabric: each in-flight command
                # pays the round trip, so a session's stream is capped at
                # command_size/rtt on top of the (possibly degraded) line rate.
                cap = session.fabric.payload_cap(
                    session.initiator_node, session.target.node_name)
                if self.rtt > 0:
                    cap = min(cap, self.command_size / self.rtt)
            if tr is not None:
                tr.handoff(self.span)
            self.submit(cap).callbacks.append(self._completed)
        except Exception as exc:  # noqa: BLE001 - fails the IO
            self._fail(exc)

    def _completed(self, event: Event) -> None:
        """The device finished: account, end the span, complete."""
        if event._exc is not None:
            self._fail(event._exc)
            return
        session = self.session
        nbytes = self.nbytes
        try:
            session.counters.add("bytes", nbytes)
            session.counters.add("commands", self.n_cmds)
            session.target.counters.add("bytes", nbytes)
            ctx = session.env.obs
            if ctx is not None:
                m = ctx.metrics
                m.counter("nvmf.bytes", unit="B").add(nbytes)
                m.counter("nvmf.commands").add(self.n_cmds)
                m.counter("nvmf.target.bytes", unit="B").add(nbytes)
                if not session.is_local:
                    m.counter("nvmf.remote_bytes", unit="B").add(nbytes)
                    m.counter("nvmf.fabric_wait_s", unit="s").add(self.rtt + self.cpu)
            if self.tr is not None:
                self.tr.end(self.span)
            self.done.succeed(event._value)
        except Exception as exc:  # noqa: BLE001 - fails the IO
            self._fail(exc)

    def _fail(self, exc: BaseException) -> None:
        """End the span at the failure and fail ``done``: a failure
        nobody awaits aborts the run, as a failed process does."""
        if self.tr is not None:
            self.tr.end(self.span, error=type(exc).__name__)
        self.session.env.fail(self.done, exc)


class NVMfInitiator:
    """Per-runtime-instance NVMf client; connects to target daemons."""

    def __init__(self, env: Environment, node_name: str, fabric: RdmaFabric):
        self.env = env
        self.node_name = node_name
        self.fabric = fabric
        self._sessions: Dict[str, NVMfSession] = {}

    def connect(self, target: NVMfTarget) -> NVMfSession:
        """Open (or reuse) a session to a target."""
        if not target.alive:
            raise FabricError(
                f"cannot connect: target {target.subsystem_nqn()} is dead"
            )
        nqn = target.subsystem_nqn()
        session = self._sessions.get(nqn)
        if session is None or not session.connected:
            session = NVMfSession(self.env, self.fabric, self.node_name, target)
            self._sessions[nqn] = session
        return session

    def disconnect_all(self) -> None:
        for session in self._sessions.values():
            session.disconnect()
        self._sessions.clear()
