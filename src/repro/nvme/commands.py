"""NVMe command set and payload representation.

Payloads are real for small data (log records, directory files, internal
state checkpoints — anything recovery must replay byte-for-byte) and
*fingerprinted* for bulk checkpoint data: a :class:`Payload` in synthetic
mode records length + a content tag, and read-back verifies the tag.
Storing 700 GB of checkpoint bytes in host memory would be pointless;
storing their identity is what the correctness checks need.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import InvalidCommand
from repro.io.qos import QoSClass

__all__ = ["Opcode", "Payload", "Command", "CommandResult"]


class Opcode(enum.Enum):
    """Subset of the NVMe command set the runtime uses."""

    READ = "read"
    WRITE = "write"
    FLUSH = "flush"
    IDENTIFY = "identify"


class Payload:
    """Data carried by a WRITE or returned by a READ.

    Exactly one representation is active:

    * ``data``: real bytes (metadata, logs) — sliceable, replayable.
    * ``tag`` + ``nbytes``: synthetic bulk data — identity-checked only.
    """

    __slots__ = ("data", "tag", "nbytes")

    def __init__(
        self,
        data: Optional[bytes] = None,
        tag: Optional[str] = None,
        nbytes: Optional[int] = None,
    ):
        if data is not None:
            if tag is not None or nbytes is not None:
                raise InvalidCommand("real payload takes no tag/nbytes")
            self.data = bytes(data)
            self.tag = None
            self.nbytes = len(self.data)
        else:
            if tag is None or nbytes is None or nbytes < 0:
                raise InvalidCommand("synthetic payload needs tag and nbytes >= 0")
            self.data = None
            self.tag = tag
            self.nbytes = int(nbytes)

    @classmethod
    def of_bytes(cls, data: bytes) -> "Payload":
        return cls(data=data)

    @classmethod
    def synthetic(cls, tag: str, nbytes: int) -> "Payload":
        return cls(tag=tag, nbytes=nbytes)

    @property
    def is_synthetic(self) -> bool:
        return self.data is None

    def slice(self, offset: int, length: int) -> "Payload":
        """A sub-payload for partial reads/overwrite trimming.

        Synthetic slices keep the parent tag with an offset annotation so
        reads after partial overwrites remain identity-checkable.
        """
        if offset < 0 or length < 0 or offset + length > self.nbytes:
            raise InvalidCommand(
                f"slice [{offset}, {offset + length}) outside payload of "
                f"{self.nbytes} bytes"
            )
        if self.data is not None:
            return Payload(data=self.data[offset : offset + length])
        if offset == 0 and length == self.nbytes:
            return self
        return Payload(tag=f"{self.tag}+{offset}", nbytes=length)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Payload):
            return NotImplemented
        return (
            self.nbytes == other.nbytes
            and self.tag == other.tag
            and self.data == other.data
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.data is not None:
            return f"Payload(bytes[{self.nbytes}])"
        return f"Payload(synthetic {self.tag!r}, {self.nbytes}B)"


@dataclass(frozen=True)
class Command:
    """One NVMe command addressed to a namespace."""

    opcode: Opcode
    nsid: int
    slba: int = 0  # starting logical block address (namespace-relative)
    nblocks: int = 0
    payload: Optional[Payload] = None
    qid: int = 0  # submitting hardware queue
    qos: Optional[QoSClass] = None  # traffic class of the submitting IO

    def __post_init__(self) -> None:
        if self.slba < 0 or self.nblocks < 0:
            raise InvalidCommand(f"negative LBA range: slba={self.slba} n={self.nblocks}")
        if self.opcode is Opcode.WRITE and self.payload is None:
            raise InvalidCommand("WRITE requires a payload")
        if self.opcode in (Opcode.READ, Opcode.WRITE) and self.nblocks == 0:
            raise InvalidCommand(f"{self.opcode.value} of zero blocks")


@dataclass
class CommandResult:
    """Completion record returned for a command.

    ``command`` is the command this completes, where there is one.  The
    SSD sets it for FLUSH and IDENTIFY.  A read or write, from
    ``SSD.write``, ``SSD.read`` or ``SSD.submit``, is a batch that may
    span many commands and leaves it ``None``.
    """

    command: Optional[Command]
    latency: float
    payload: Optional[Payload] = None  # populated for READ
    extra: dict = field(default_factory=dict)
