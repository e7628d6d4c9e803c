"""Reference SSD command path for the device's property tests.

A verbatim copy of the command path of :class:`repro.nvme.device.SSD`
before it became callback-driven: each read, write and tier command is
a generator process that admits through ``WrrArbiter.admit``, draws its
jitter, waits, and joins its media and command-rate transfers with an
``AllOf``.  ``tests/nvme/test_device_reference.py`` drives it and the
live device through the same closed-loop clients and compares them.
Do not edit it to follow the device.
"""

from __future__ import annotations

import math
from typing import Any, Generator, List, Optional

from repro.bench import calibration as cal
from repro.nvme.commands import Command, CommandResult, Opcode, Payload
from repro.nvme.device import SSD
from repro.nvme.extents import Extent
from repro.obs.context import tracer_of
from repro.sim.engine import Event

__all__ = ["ReferenceSSD"]


class ReferenceSSD(SSD):
    """An :class:`SSD` whose commands run as generator processes."""

    def write(
        self,
        nsid: int,
        offset: int,
        payload: Payload,
        command_size: int,
        rate_cap: Optional[float] = None,
        qos=None,
    ) -> Event:
        self._check_io(nsid, offset, payload.nbytes, command_size)
        # Claim the caller's handoff parent here, while still inside the
        # caller's synchronous frame (the generator body runs later).
        tr = tracer_of(self.env)
        span = None if tr is None else tr.begin(
            "nvme.write", cat="device", track=self.name,
            parent=tr.take_handoff(), nsid=nsid, bytes=payload.nbytes)
        return self.env.process(
            self._do_write(nsid, offset, payload, command_size, rate_cap, span, qos))

    def _do_write(
        self,
        nsid: int,
        offset: int,
        payload: Payload,
        command_size: int,
        rate_cap: Optional[float],
        span=None,
        qos=None,
    ) -> Generator[Event, Any, CommandResult]:
        self._check_io(nsid, offset, payload.nbytes, command_size)
        ns = self._namespaces[nsid]
        epoch = self._power_epoch
        started = self.env.now
        tr = tracer_of(self.env) if span is not None else None
        n_cmds = max(1, math.ceil(payload.nbytes / command_size))
        # QoS arbitration happens before the jitter draw so that with no
        # arbiter (or an uncontended one) the rng sequence is untouched.
        if self.arbiter is not None:
            yield from self.arbiter.admit(qos)
        try:
            yield from self._service_write(
                payload.nbytes, n_cmds, command_size, rate_cap, epoch, tr, span)
        finally:
            if self.arbiter is not None:
                self.arbiter.release()
        ns.store.write(offset, payload)
        self.counters.add("bytes_written", payload.nbytes)
        self.counters.add("write_commands", n_cmds)
        cmd = Command(
            Opcode.WRITE, nsid, slba=offset // self.spec.lba_size,
            nblocks=max(1, payload.nbytes // self.spec.lba_size), payload=payload,
            qos=qos,
        )
        latency = self.env.now - started
        if tr is not None:
            tr.end(span)
        ctx = self.env.obs
        if ctx is not None:
            ctx.metrics.histogram("nvme.write_latency_s").observe(latency)
        return CommandResult(cmd, latency=latency)

    def read(
        self,
        nsid: int,
        offset: int,
        nbytes: int,
        command_size: int,
        rate_cap: Optional[float] = None,
        qos=None,
    ) -> Event:
        self._check_io(nsid, offset, nbytes, command_size)
        tr = tracer_of(self.env)
        span = None if tr is None else tr.begin(
            "nvme.read", cat="device", track=self.name,
            parent=tr.take_handoff(), nsid=nsid, bytes=nbytes)
        return self.env.process(
            self._do_read(nsid, offset, nbytes, command_size, rate_cap, span, qos))

    def _do_read(
        self,
        nsid: int,
        offset: int,
        nbytes: int,
        command_size: int,
        rate_cap: Optional[float],
        span=None,
        qos=None,
    ) -> Generator[Event, Any, CommandResult]:
        self._check_io(nsid, offset, nbytes, command_size)
        ns = self._namespaces[nsid]
        epoch = self._power_epoch
        started = self.env.now
        tr = tracer_of(self.env) if span is not None else None
        n_cmds = max(1, math.ceil(nbytes / command_size))
        if self.arbiter is not None:
            yield from self.arbiter.admit(qos)
        try:
            yield from self._service_read(
                nbytes, n_cmds, command_size, rate_cap, epoch, tr, span)
        finally:
            if self.arbiter is not None:
                self.arbiter.release()
        extents: List[Extent] = ns.store.read(offset, nbytes)
        self.counters.add("bytes_read", nbytes)
        self.counters.add("read_commands", n_cmds)
        cmd = Command(
            Opcode.READ, nsid, slba=offset // self.spec.lba_size,
            nblocks=max(1, nbytes // self.spec.lba_size),
            qos=qos,
        )
        latency = self.env.now - started
        if tr is not None:
            tr.end(span)
        ctx = self.env.obs
        if ctx is not None:
            ctx.metrics.histogram("nvme.read_latency_s").observe(latency)
        return CommandResult(cmd, latency=latency, extra={"extents": extents})

    def _service_write(
        self, nbytes: int, n_cmds: int, command_size: int,
        rate_cap: Optional[float], epoch: int, tr=None, span=None,
    ) -> Generator[Event, Any, None]:
        jitter = self._arbitration_jitter(command_size, self._write_server)
        bucket_delay = self._take_tokens(nbytes)
        delay = jitter + bucket_delay
        if delay > 0:
            wait = None if tr is None else tr.begin(
                "nvme.wait", cat="device", track=self.name, parent=span,
                jitter_s=jitter, ram_bucket_s=bucket_delay)
            yield self.env.timeout(delay)
            if wait is not None:
                tr.end(wait)
        self._check_power(epoch)
        cap = self._qd1_cap(command_size, rate_cap)
        media_ev = self._write_server.transfer(nbytes, cap=cap)
        cmd_ev = self._cmd_server.transfer(n_cmds)
        if tr is not None:
            media = tr.begin("nvme.media", cat="device", track=self.name,
                             parent=span, bytes=nbytes)
            cmdrate = tr.begin("nvme.cmdrate", cat="device", track=self.name,
                               parent=span, cmds=n_cmds)
            media_ev.callbacks.append(lambda _ev: tr.end(media))
            cmd_ev.callbacks.append(lambda _ev: tr.end(cmdrate))
        yield self.env.all_of([media_ev, cmd_ev])
        self._check_power(epoch)

    def _service_read(
        self, nbytes: int, n_cmds: int, command_size: int,
        rate_cap: Optional[float], epoch: int, tr=None, span=None,
    ) -> Generator[Event, Any, None]:
        jitter = self._arbitration_jitter(command_size, self._read_server)
        if jitter > 0:
            wait = None if tr is None else tr.begin(
                "nvme.wait", cat="device", track=self.name, parent=span,
                jitter_s=jitter)
            yield self.env.timeout(jitter)
            if wait is not None:
                tr.end(wait)
        self._check_power(epoch)
        cap = self._qd1_cap(command_size, rate_cap)
        media_ev = self._read_server.transfer(nbytes, cap=cap)
        cmd_ev = self._cmd_server.transfer(n_cmds)
        if tr is not None:
            media = tr.begin("nvme.media", cat="device", track=self.name,
                             parent=span, bytes=nbytes)
            cmdrate = tr.begin("nvme.cmdrate", cat="device", track=self.name,
                               parent=span, cmds=n_cmds)
            media_ev.callbacks.append(lambda _ev: tr.end(media))
            cmd_ev.callbacks.append(lambda _ev: tr.end(cmdrate))
        yield self.env.all_of([media_ev, cmd_ev])
        self._check_power(epoch)

    def tier_write(self, nbytes: int) -> Event:
        return self.env.process(self._tier_write(nbytes))

    def _tier_write(self, nbytes: int) -> Generator[Event, Any, int]:
        command_size = cal.DEFAULT_HUGEBLOCK
        n_cmds = max(1, math.ceil(max(nbytes, 1) / command_size))
        yield from self._service_write(
            nbytes, n_cmds, command_size, None, self._power_epoch)
        self.counters.add("tier_bytes_written", nbytes)
        return nbytes

    def tier_read(self, nbytes: int) -> Event:
        return self.env.process(self._tier_read(nbytes))

    def _tier_read(self, nbytes: int) -> Generator[Event, Any, int]:
        command_size = cal.DEFAULT_HUGEBLOCK
        n_cmds = max(1, math.ceil(max(nbytes, 1) / command_size))
        yield from self._service_read(
            nbytes, n_cmds, command_size, None, self._power_epoch)
        self.counters.add("tier_bytes_read", nbytes)
        return nbytes
