"""Uniform transport interface over local-PCIe and NVMf access.

The microfs data plane does not care whether its SSD partition is local
(Figure 7(c)'s local experiments) or remote over NVMf (everything else);
both are exposed through :class:`Transport`. Every operation accepts the
IO's QoS class, and :meth:`Transport.write_batch` is the
doorbell-batched submission the data plane uses when
``RuntimeConfig.batching`` is on.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Tuple

from repro.fabric.nvmf import NVMfSession
from repro.io.qos import QoSClass
from repro.nvme.commands import Payload
from repro.nvme.device import SSD
from repro.sim.engine import Environment, Event

__all__ = ["Transport", "LocalPCIeTransport", "FabricTransport"]


class Transport(abc.ABC):
    """Byte-addressed IO to one namespace of one SSD."""

    @abc.abstractmethod
    def write(
        self,
        nsid: int,
        offset: int,
        payload: Payload,
        command_size: int,
        qos: Optional[QoSClass] = None,
    ) -> Event:
        """Batched write; completion event yields a CommandResult."""

    @abc.abstractmethod
    def write_batch(
        self,
        nsid: int,
        chunks: List[Tuple[int, Payload]],
        command_size: int,
        qos: Optional[QoSClass] = None,
    ) -> Event:
        """Doorbell-batched write of many extents; the event yields the
        list of CommandResults. On the fabric this costs one round trip
        for the whole batch."""

    @abc.abstractmethod
    def read(
        self,
        nsid: int,
        offset: int,
        nbytes: int,
        command_size: int,
        qos: Optional[QoSClass] = None,
    ) -> Event:
        """Batched read; result's ``extra['extents']`` holds stored data."""

    @abc.abstractmethod
    def flush(self, nsid: int, qos: Optional[QoSClass] = None) -> Event:
        """Durability barrier."""

    @property
    @abc.abstractmethod
    def description(self) -> str:
        """Human-readable label for logs and tables."""


class LocalPCIeTransport(Transport):
    """Direct userspace access to a node-local SSD (SPDK, no fabric)."""

    def __init__(self, env: Environment, ssd: SSD):
        self.env = env
        self.ssd = ssd

    def write(
        self,
        nsid: int,
        offset: int,
        payload: Payload,
        command_size: int,
        qos: Optional[QoSClass] = None,
    ) -> Event:
        return self.ssd.write(nsid, offset, payload, command_size, qos=qos)

    def write_batch(
        self,
        nsid: int,
        chunks: List[Tuple[int, Payload]],
        command_size: int,
        qos: Optional[QoSClass] = None,
    ) -> Event:
        # No fabric round trip to amortise locally: issue all extents
        # concurrently and complete when the last one does.
        events = [
            self.ssd.write(nsid, offset, payload, command_size, qos=qos)
            for offset, payload in chunks
        ]
        return self.env.all_of(events)

    def read(
        self,
        nsid: int,
        offset: int,
        nbytes: int,
        command_size: int,
        qos: Optional[QoSClass] = None,
    ) -> Event:
        return self.ssd.read(nsid, offset, nbytes, command_size, qos=qos)

    def flush(self, nsid: int, qos: Optional[QoSClass] = None) -> Event:
        return self.ssd.flush(nsid)

    @property
    def description(self) -> str:
        return f"local-pcie:{self.ssd.name}"


class FabricTransport(Transport):
    """Remote access through an NVMf session."""

    def __init__(self, session: NVMfSession):
        self.session = session

    def write(
        self,
        nsid: int,
        offset: int,
        payload: Payload,
        command_size: int,
        qos: Optional[QoSClass] = None,
    ) -> Event:
        return self.session.write(nsid, offset, payload, command_size, qos=qos)

    def write_batch(
        self,
        nsid: int,
        chunks: List[Tuple[int, Payload]],
        command_size: int,
        qos: Optional[QoSClass] = None,
    ) -> Event:
        return self.session.write_batch(nsid, chunks, command_size, qos=qos)

    def read(
        self,
        nsid: int,
        offset: int,
        nbytes: int,
        command_size: int,
        qos: Optional[QoSClass] = None,
    ) -> Event:
        return self.session.read(nsid, offset, nbytes, command_size, qos=qos)

    def flush(self, nsid: int, qos: Optional[QoSClass] = None) -> Event:
        return self.session.flush(nsid, qos=qos)

    @property
    def description(self) -> str:
        return (
            f"nvmf:{self.session.initiator_node}->"
            f"{self.session.target.subsystem_nqn()}"
        )
