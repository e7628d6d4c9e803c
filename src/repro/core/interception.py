"""POSIX symbol interception (§III-C, "Application Obliviousness").

The real system uses GNU ld symbol interposition to redirect libc IO
calls into the runtime; here :class:`PosixShim` plays that role for
simulated applications: it exposes the libc *names and conventions*
(integer fds, mode strings, ``MPI_Init``/``MPI_Finalize`` wrappers) so
application models run unmodified against either NVMe-CR or a baseline
filesystem client that implements the same duck-typed surface.

All methods are simulation sub-generators (``yield from shim.open(...)``),
mirroring that every intercepted call costs time.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Union

from repro.core.microfs.fs import FileHandle
from repro.core.runtime import NVMeCRRuntime
from repro.errors import BadFileDescriptor, InvalidArgument
from repro.io.qos import QoSClass
from repro.nvme.commands import Payload
from repro.obs.tracer import NULL_CONTEXT
from repro.sim.engine import Event

__all__ = ["PosixShim"]

_MODES = {
    "r": dict(create=False, truncate=False),
    "w": dict(create=True, truncate=True),
    "x": dict(create=True, excl=True),
    "a": dict(create=True, truncate=False),
}


class PosixShim:
    """The intercepted libc surface for one process."""

    def __init__(self, runtime: NVMeCRRuntime):
        self.runtime = runtime
        self._fds: Dict[int, FileHandle] = {}

    @property
    def env(self):
        """The simulation clock behind this process's runtime."""
        return self.runtime.env

    # -- MPI wrappers (runtime lifecycle) ---------------------------------------------

    def MPI_Init(self) -> Generator[Event, Any, None]:  # noqa: N802 - libc name
        yield from self.runtime.init()

    def MPI_Finalize(self) -> Generator[Event, Any, None]:  # noqa: N802
        yield from self.runtime.finalize()

    # -- intercepted IO calls --------------------------------------------------------------

    @property
    def _fs(self):
        return self.runtime.microfs

    def _obs(self, name: str, **attrs):
        """(ObsContext, span context-manager) for one intercepted call.

        The disabled path returns shared singletons — no allocation per
        syscall when observability is off.
        """
        ctx = self.env.obs
        if ctx is None:
            return None, NULL_CONTEXT
        ctx.metrics.counter("fs.syscalls").add(1)
        tr = ctx.tracer
        if not tr.enabled:
            return ctx, NULL_CONTEXT
        return ctx, tr.span(name, cat="fs", track=self._fs.instance_name, **attrs)

    def open(self, path: str, mode: str = "r") -> Generator[Event, Any, int]:
        """``open(2)``-flavoured; returns an integer fd."""
        flags = _MODES.get(mode)
        if flags is None:
            raise InvalidArgument(f"unsupported open mode {mode!r}")
        ctx, cm = self._obs("fs.open", path=path, mode=mode)
        t0 = self.env.now
        with cm:
            handle = yield from self._fs.open(path, **flags)
        if ctx is not None:
            ctx.metrics.histogram("fs.open_latency_s").observe(self.env.now - t0)
        if mode == "a":
            handle.pos = self._fs.inodes[handle.ino].size
        handle.writable = mode != "r"
        self._fds[handle.fd] = handle
        return handle.fd

    def creat(self, path: str, mode: int = 0o644) -> Generator[Event, Any, int]:
        """``creat(2)``: create-or-truncate; returns an integer fd."""
        ctx, cm = self._obs("fs.creat", path=path)
        t0 = self.env.now
        with cm:
            handle = yield from self._fs.open(path, create=True, truncate=True, mode=mode)
        if ctx is not None:
            ctx.metrics.histogram("fs.open_latency_s").observe(self.env.now - t0)
        self._fds[handle.fd] = handle
        return handle.fd

    def _handle(self, fd: int) -> FileHandle:
        handle = self._fds.get(fd)
        if handle is None:
            raise BadFileDescriptor(f"fd {fd}")
        return handle

    def write(
        self, fd: int, data: Union[bytes, int, Payload],
        qos: QoSClass = QoSClass.CKPT_DATA,
    ) -> Generator[Event, Any, int]:
        """``write(2)`` at the fd position; int data means synthetic bulk bytes."""
        ctx, cm = self._obs("fs.write")
        t0 = self.env.now
        with cm:
            written = yield from self._fs.write(self._handle(fd), data, qos=qos)
        if ctx is not None:
            ctx.metrics.histogram("fs.write_latency_s").observe(self.env.now - t0)
        return written

    def pwrite(
        self, fd: int, data, offset: int,
        qos: QoSClass = QoSClass.CKPT_DATA,
    ) -> Generator[Event, Any, int]:
        """``pwrite(2)``: positional write, fd position unchanged."""
        ctx, cm = self._obs("fs.pwrite")
        t0 = self.env.now
        with cm:
            written = yield from self._fs.pwrite(self._handle(fd), data, offset, qos=qos)
        if ctx is not None:
            ctx.metrics.histogram("fs.write_latency_s").observe(self.env.now - t0)
        return written

    def read(
        self, fd: int, nbytes: int,
        qos: QoSClass = QoSClass.RECOVERY,
    ) -> Generator[Event, Any, List[Payload]]:
        """``read(2)`` at the fd position; returns stored payload pieces."""
        ctx, cm = self._obs("fs.read")
        t0 = self.env.now
        with cm:
            pieces = yield from self._fs.read(self._handle(fd), nbytes, qos=qos)
        if ctx is not None:
            ctx.metrics.histogram("fs.read_latency_s").observe(self.env.now - t0)
        return pieces

    def pread(
        self, fd: int, nbytes: int, offset: int,
        qos: QoSClass = QoSClass.RECOVERY,
    ) -> Generator[Event, Any, List[Payload]]:
        """``pread(2)``: positional read, fd position unchanged."""
        ctx, cm = self._obs("fs.pread")
        t0 = self.env.now
        with cm:
            pieces = yield from self._fs.pread(self._handle(fd), nbytes, offset, qos=qos)
        if ctx is not None:
            ctx.metrics.histogram("fs.read_latency_s").observe(self.env.now - t0)
        return pieces

    def lseek(self, fd: int, offset: int) -> int:
        """``lseek(2)`` (SEEK_SET only): move the fd position."""
        handle = self._handle(fd)
        if offset < 0:
            raise InvalidArgument(f"negative seek offset {offset}")
        handle.pos = offset
        return offset

    def fsync(self, fd: int) -> Generator[Event, Any, None]:
        """``fsync(2)``: device flush (data is already unbuffered)."""
        _ctx, cm = self._obs("fs.fsync")
        with cm:
            yield from self._fs.fsync(self._handle(fd))

    def close(self, fd: int) -> Generator[Event, Any, None]:
        """``close(2)``: release the descriptor."""
        handle = self._handle(fd)
        _ctx, cm = self._obs("fs.close")
        with cm:
            yield from self._fs.close(handle)
        del self._fds[fd]

    def mkdir(self, path: str, mode: int = 0o755) -> Generator[Event, Any, None]:
        """``mkdir(2)`` in the private namespace."""
        _ctx, cm = self._obs("fs.mkdir", path=path)
        with cm:
            yield from self._fs.mkdir(path, mode)

    def unlink(self, path: str) -> Generator[Event, Any, None]:
        """``unlink(2)``: remove a file or empty directory."""
        _ctx, cm = self._obs("fs.unlink", path=path)
        with cm:
            yield from self._fs.unlink(path)

    def rename(self, old: str, new: str) -> Generator[Event, Any, None]:
        """``rename(2)`` within the private namespace (journaled)."""
        _ctx, cm = self._obs("fs.rename", old=old, new=new)
        with cm:
            yield from self._fs.rename(old, new)

    def truncate(self, path: str, size: int) -> Generator[Event, Any, None]:
        """``truncate(2)``: shrink a file, freeing tail hugeblocks."""
        _ctx, cm = self._obs("fs.truncate", path=path)
        with cm:
            yield from self._fs.truncate(path, size)

    def stat(self, path: str):
        """``stat(2)``: the path's inode."""
        return self._fs.stat(path)

    def listdir(self, path: str) -> List[str]:
        """``readdir(3)``: sorted entry names."""
        return self._fs.readdir(path)

    @property
    def open_fds(self) -> int:
        """Number of descriptors this process holds open."""
        return len(self._fds)
