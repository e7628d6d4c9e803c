"""Shared machinery for the baseline storage systems.

A baseline *cluster* owns one :class:`StorageServer` per storage node —
a namespace on that node's SSD, a bump allocator over it, and an IO
service resource modelling the server's software stack throughput
ceiling ("these storage systems overlay multiple software layers over
POSIX filesystems which decrease the peak attainable bandwidth", §I-A).

A baseline *client* (one per rank) is a :class:`BaselineClient`: the
one fd table and POSIX contract every baseline shares, the same
intercepted-POSIX surface as :class:`~repro.core.interception.PosixShim`,
so workloads are system-agnostic. Each system's module keeps only its
file record and its costs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.errors import BadFileDescriptor, FileExists, FileNotFound, InvalidArgument, OutOfSpace
from repro.io.qos import QoSClass
from repro.nvme.commands import Payload
from repro.nvme.device import SSD
from repro.nvme.namespace import Namespace
from repro.bench import calibration as cal
from repro.sim.engine import Environment, Event
from repro.sim.resources import Resource
from repro.obs.metrics import Counter

__all__ = ["bump_allocate", "StorageServer", "BaselineFile", "BaselineClient"]


def bump_allocate(used: int, nbytes: int, limit: int, full: str) -> Tuple[int, int]:
    """Take ``nbytes``, rounded up to whole 4 KiB pages, from a
    ``limit``-byte space whose first ``used`` bytes are taken.

    Returns ``(offset, used)``: where the piece starts and the space's
    new cursor. The baselines never free device space, so a cursor is
    the whole allocator. Raises :class:`~repro.errors.OutOfSpace` with
    message ``full`` when the piece does not fit.
    """
    end = used + -(-nbytes // 4096) * 4096
    if end > limit:
        raise OutOfSpace(full)
    return used, end


class StorageServer:  # reproflow: ignore[FLOW103] (one server coroutine per instance)
    """One storage node of a distributed baseline filesystem."""

    def __init__(
        self,
        env: Environment,
        node_name: str,
        ssd: SSD,
        namespace: Namespace,
        io_service_time: float,
        io_chunk_bytes: int,
        io_parallelism: int = 1,
    ):
        self.env = env
        self.node_name = node_name
        self.ssd = ssd
        self.namespace = namespace
        self.io_service_time = io_service_time
        self.io_chunk_bytes = io_chunk_bytes
        self.io_resource = Resource(env, capacity=io_parallelism)
        self._cursor = 0
        self.counters = Counter()

    def _allocate(self, nbytes: int) -> int:
        offset, self._cursor = bump_allocate(
            self._cursor, nbytes, self.namespace.nbytes,
            f"{self.node_name}: baseline namespace full")
        return offset

    def write_chunk(
        self,
        payload: Payload,
        command_size: Optional[int] = None,
        qos: QoSClass = QoSClass.CKPT_DATA,
    ) -> Generator[Event, Any, int]:
        """Serve one chunk through the server stack, then hit the device.

        The service resource is held for the software time only; device
        transfers from different requests overlap (the device itself is
        the shared fair-share resource). Returns the device offset.
        Baselines speak the data plane's traffic classes too, so the qos
        experiment's per-class accounting covers every system.
        """
        n_chunks = max(1, -(-payload.nbytes // self.io_chunk_bytes))
        yield from self.io_resource.serve(n_chunks * self.io_service_time)
        offset = self._allocate(payload.nbytes)
        yield self.ssd.write(
            self.namespace.nsid, offset, payload,
            command_size or self.io_chunk_bytes, qos=qos,
        )
        self.counters.add("bytes", payload.nbytes)
        return offset

    def read_chunk(
        self,
        offset: int,
        nbytes: int,
        command_size: Optional[int] = None,
        qos: QoSClass = QoSClass.BEST_EFFORT,
    ) -> Generator[Event, Any, None]:
        n_chunks = max(1, -(-nbytes // self.io_chunk_bytes))
        yield from self.io_resource.serve(n_chunks * self.io_service_time)
        yield self.ssd.read(
            self.namespace.nsid, offset, nbytes,
            command_size or self.io_chunk_bytes, qos=qos,
        )


@dataclass
class BaselineFile:
    """Server-side file record of a baseline filesystem. A system whose
    records carry more (an extent, a home node) subclasses it and names
    the subclass in its client's ``file_type``."""

    path: str
    size: int = 0
    # Bytes written but not yet written back (page-cache systems).
    dirty: int = 0
    # (server_index, device_offset, nbytes) pieces in file order.
    placement: List[tuple] = field(default_factory=list)
    # Lazily-created per-file write lock (shared-namespace POSIX
    # semantics: concurrent writers serialise — the N-1 pattern tax).
    lock: Optional[Resource] = None
    writers: set = field(default_factory=set)


@dataclass
class _FD:
    file: BaselineFile
    writable: bool
    pos: int = 0


class BaselineClient:
    """One rank's intercepted-POSIX view of a baseline filesystem.

    This is the one fd table and POSIX contract of :mod:`repro.baselines`:
    ``r``/``w``/``a``/``x`` modes, ``O_CREAT`` name reservation,
    truncation on ``w``, positional IO that leaves the offset alone, and
    the errors :class:`~repro.core.interception.PosixShim` raises. A
    system supplies only its file record (``file_type``) and its costs:

    * ``_enter(op)`` — paid by ``open``, ``mkdir`` and ``unlink`` before
      the namespace is consulted (a kernel trap, an MDS round trip);
    * ``_do_create``, ``_do_write``, ``_do_read``, ``_do_fsync``,
      ``_do_close``, ``_do_mkdir``, ``_do_unlink`` — paid on success.

    Ordering rule: entry costs come before the namespace is consulted
    and success costs after it, so a call that raises has already paid
    its system's entry cost (a second ext4 ``mkdir`` pays its trap, then
    raises :class:`FileExists`). A system must not move a cost across an
    existence check: the pinned tables depend on that order, and the
    drivers that ``mkdir`` a shared directory catch ``FileExists``.
    """

    file_type = BaselineFile

    def __init__(self, env: Environment, name: str, files: Dict[str, BaselineFile], dirs: set):
        self.env = env
        self.name = name
        self.files = files  # the system's namespace, shared by its clients
        self.dirs = dirs
        self.counters = Counter()
        self._fds: Dict[int, _FD] = {}
        self._fd_counter = itertools.count(3)

    # -- shim surface ---------------------------------------------------------------

    def open(self, path: str, mode: str = "r") -> Generator[Event, Any, int]:
        if mode not in ("r", "w", "a", "x"):
            raise InvalidArgument(f"unsupported mode {mode!r}")
        yield from self._enter("open")
        file = self.files.get(path)
        if mode == "r":
            if file is None:
                raise FileNotFound(path)
        elif mode == "x" and file is not None:
            raise FileExists(path)
        elif file is None:
            # Reserve the name *before* the create's simulated time
            # elapses: O_CREAT is atomic, so concurrent creators of the
            # same path must converge on one file object.
            file = self.file_type(path=path)
            self.files[path] = file
            yield from self._do_create(file)
            self.counters.add("creates")
        elif mode == "w":
            file.size = 0  # truncate; no create cost
            file.dirty = 0
        fd = next(self._fd_counter)
        self._fds[fd] = _FD(file, writable=mode != "r", pos=file.size if mode == "a" else 0)
        self.counters.add("opens")
        return fd

    def _fd(self, fd: int) -> _FD:
        entry = self._fds.get(fd)
        if entry is None:
            raise BadFileDescriptor(f"fd {fd}")
        return entry

    def _file_lock(self, file: BaselineFile, nbytes: int) -> Generator[Event, Any, None]:
        """POSIX shared-file range locking (see SHARED_FILE_LOCK_SERVICE).

        Only files with more than one writer pay: the first writer of a
        fresh file proceeds lock-free (N-N is unaffected); once a second
        writer appears, every 1 MiB lock unit serialises on the file's
        lock — the N-1 collapse. Systems whose writes take the lock call
        this first thing in ``_do_write``."""
        file.writers.add(self.name)
        if len(file.writers) < 2:
            return
        if file.lock is None:
            file.lock = Resource(self.env, capacity=1)
        units = max(1, -(-nbytes // cal.SHARED_FILE_LOCK_UNIT))
        yield from file.lock.serve(units * cal.SHARED_FILE_LOCK_SERVICE)

    def write(self, fd: int, data) -> Generator[Event, Any, int]:
        entry = self._fd(fd)
        written = yield from self._write_at(entry, data, entry.pos)
        entry.pos += written
        return written

    def pwrite(self, fd: int, data, offset: int) -> Generator[Event, Any, int]:
        return (yield from self._write_at(self._fd(fd), data, offset))

    def read(self, fd: int, nbytes: int) -> Generator[Event, Any, List[Payload]]:
        entry = self._fd(fd)
        pieces = yield from self._read_at(entry.file, nbytes, entry.pos)
        entry.pos += sum(p.nbytes for p in pieces)
        return pieces

    def pread(self, fd: int, nbytes: int, offset: int) -> Generator[Event, Any, List[Payload]]:
        return (yield from self._read_at(self._fd(fd).file, nbytes, offset))

    def fsync(self, fd: int) -> Generator[Event, Any, None]:
        yield from self._do_fsync(self._fd(fd).file)

    def close(self, fd: int) -> Generator[Event, Any, None]:
        entry = self._fd(fd)
        del self._fds[fd]
        yield from self._do_close(entry.file)

    def mkdir(self, path: str, mode: int = 0o755) -> Generator[Event, Any, None]:
        yield from self._enter("mkdir")
        if path in self.dirs:
            raise FileExists(path)
        yield from self._do_mkdir(path)
        self.dirs.add(path)

    def unlink(self, path: str) -> Generator[Event, Any, None]:
        yield from self._enter("unlink")
        file = self.files.get(path)
        if file is None:
            raise FileNotFound(path)
        yield from self._do_unlink(file)
        del self.files[path]

    def stat(self, path: str) -> BaselineFile:
        file = self.files.get(path)
        if file is None:
            raise FileNotFound(path)
        return file

    def listdir(self, path: str) -> List[str]:
        prefix = path.rstrip("/") + "/"
        return sorted(
            p[len(prefix):] for p in self.files if p.startswith(prefix) and "/" not in p[len(prefix):]
        )

    # -- helpers -------------------------------------------------------------------------

    def _write_at(self, entry: _FD, data, offset: int) -> Generator[Event, Any, int]:
        if not entry.writable:
            raise BadFileDescriptor(f"{entry.file.path} is open read-only")
        payload = self._payload(data, entry.file, offset)
        written = yield from self._do_write(entry.file, offset, payload)
        entry.file.size = max(entry.file.size, offset + written)
        self.counters.add("app_bytes_written", written)
        return written

    def _read_at(
        self, file: BaselineFile, nbytes: int, offset: int
    ) -> Generator[Event, Any, List[Payload]]:
        nbytes = max(0, min(nbytes, file.size - offset))
        if not nbytes:
            return []
        yield from self._do_read(file, offset, nbytes)
        self.counters.add("app_bytes_read", nbytes)
        return [Payload.synthetic(f"{file.path}@{offset}", nbytes)]

    def _payload(self, data, file: BaselineFile, offset: int) -> Payload:
        if isinstance(data, Payload):
            return data
        if isinstance(data, bytes):
            return Payload.of_bytes(data)
        if isinstance(data, int):
            return Payload.synthetic(f"{self.name}:{file.path}:{offset}", data)
        raise InvalidArgument(f"unsupported write data {type(data)!r}")

    # -- system hooks ----------------------------------------------------------------------

    def _enter(self, op: str) -> Generator[Event, Any, None]:
        """Charge entering ``open``/``mkdir``/``unlink`` (``op``), before
        the namespace is consulted — so a call that raises pays it too."""
        yield from ()

    def _do_create(self, file: BaselineFile) -> Generator[Event, Any, None]:
        """Charge the create cost (``open`` has already reserved ``file``)."""
        yield from ()

    def _do_write(self, file: BaselineFile, offset: int, payload: Payload) -> Generator[Event, Any, int]:
        raise NotImplementedError

    def _do_read(self, file: BaselineFile, offset: int, nbytes: int) -> Generator[Event, Any, None]:
        raise NotImplementedError

    def _do_fsync(self, file: BaselineFile) -> Generator[Event, Any, None]:
        yield self.env.timeout(0)

    def _do_close(self, file: BaselineFile) -> Generator[Event, Any, None]:
        yield self.env.timeout(0)

    def _do_mkdir(self, path: str) -> Generator[Event, Any, None]:
        yield from ()

    def _do_unlink(self, file: BaselineFile) -> Generator[Event, Any, None]:
        yield from ()
