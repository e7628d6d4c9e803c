"""Tier clients: the ``write_file``/``read_file`` checkpoint surface.

:class:`~repro.core.multilevel.MultiLevelCheckpointer` drives every
tier beyond the intercepted-POSIX level through the same two-method
surface :class:`repro.baselines.lustre.LustreCluster` established.
This module provides that surface over any :class:`DeviceModel`
(:class:`TierClient`) and over an intercepted-POSIX shim
(:class:`PosixTierAdapter`).

This module is on DetLint's hot-module list: every class declares
``__slots__``.
"""

from __future__ import annotations

from typing import Any, Dict, Generator

from repro.errors import FileNotFound, OutOfSpace
from repro.sim.engine import Event
from repro.tiers.base import DeviceModel

__all__ = ["PosixTierAdapter", "TierClient"]


class TierClient:
    """File-shaped checkpoint I/O over one tier device.

    Checkpoint files are written whole and re-read whole, so the client
    keeps each path's size and counts the bytes it has placed against
    the device's capacity; rewriting a file with no more bytes than it
    last held takes no new space.
    """

    __slots__ = ("device", "name", "files", "_used")

    def __init__(self, device: DeviceModel, name: str = "tier"):
        self.device = device
        self.name = name
        self.files: Dict[str, int] = {}
        self._used = 0

    @property
    def env(self):
        return self.device.env

    def write_file(self, path: str, nbytes: int) -> Generator[Event, Any, None]:
        size = self.files.get(path)
        if size is None or size < nbytes:
            if self._used + nbytes > self.device.capacity_bytes():
                raise OutOfSpace(
                    f"{self.name}: {nbytes} bytes of checkpoint exceed tier capacity"
                )
            self._used += nbytes
        yield self.device.tier_write(nbytes)
        self.files[path] = nbytes

    def read_file(self, path: str) -> Generator[Event, Any, int]:
        nbytes = self.files.get(path)
        if nbytes is None:
            raise FileNotFound(path)
        yield self.device.tier_read(nbytes)
        return nbytes

    def lose_data(self) -> None:
        """Fault hook: the tier's contents are gone (node/domain loss)."""
        self.files.clear()


class PosixTierAdapter:
    """``write_file``/``read_file`` over an intercepted-POSIX shim.

    Lets the NVMe-CR runtime path (a :class:`PosixShim` over the NVMf
    partner domain) sit in a tier list next to device-backed clients.
    """

    __slots__ = ("shim", "files", "_dir_made", "directory")

    def __init__(self, shim: Any, directory: str = "/ckpt"):
        self.shim = shim
        self.directory = directory
        self.files: Dict[str, int] = {}
        self._dir_made = False

    @property
    def env(self):
        runtime = getattr(self.shim, "runtime", None)
        if runtime is not None:
            return runtime.env
        return self.shim.env

    def write_file(self, path: str, nbytes: int) -> Generator[Event, Any, None]:
        if not self._dir_made:
            from repro.errors import FileExists

            try:
                yield from self.shim.mkdir(self.directory)
            except FileExists:
                pass
            self._dir_made = True
        fd = yield from self.shim.open(path, "w")
        yield from self.shim.write(fd, nbytes)
        yield from self.shim.fsync(fd)
        yield from self.shim.close(fd)
        self.files[path] = nbytes

    def read_file(self, path: str) -> Generator[Event, Any, int]:
        nbytes = self.files.get(path)
        if nbytes is None:
            raise FileNotFound(path)
        fd = yield from self.shim.open(path, "r")
        yield from self.shim.read(fd, nbytes)
        yield from self.shim.close(fd)
        return nbytes

    def lose_data(self) -> None:
        self.files.clear()

