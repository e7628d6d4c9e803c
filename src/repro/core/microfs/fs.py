"""MicroFS: one process's private, coordination-free filesystem (§III).

A MicroFS instance owns one partition of a remote SSD namespace and
implements the POSIX-shaped operations NVMe-CR intercepts. Everything
namespace-related is private — no other instance can observe or contend
with this one (microfs principle 3); the only shared object is the SSD
itself, which the partition arithmetic keeps conflict-free (principle 2).

Partition layout (offsets relative to the partition base)::

    [0, 4K)                superblock: internal-state commit record
    [4K, 4K+log)           operation-log region
    [.., +state)           internal-state checkpoint slots A/B
    [.., end)              data region, managed by the hugeblock pool

Durability protocol per §III-E: the operation log is flushed *before*
the data of the triggering operation is written ("The log is flushed
before a subsequent operation is processed"), writes go straight to the
device (no buffering), and the background checkpointer bounds the log.
"""

from __future__ import annotations

import itertools
import pickle
import struct
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Tuple, Union

from repro.bench import calibration as cal
from repro.core.config import RuntimeConfig
from repro.core.control_plane import GlobalNamespaceService, MetadataFootprint
from repro.core.data_plane import DataPlane
from repro.core.microfs.blockpool import BlockPool, Run
from repro.core.microfs.btree import BPlusTree
from repro.core.microfs.inode import DirEntry, FileType, Inode
from repro.core.microfs.oplog import LogOp, OperationLog
from repro.errors import (
    BadFileDescriptor,
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    PermissionDenied,
)
from repro.io.qos import QoSClass
from repro.nvme.commands import Payload
from repro.nvme.namespace import Partition
from repro.obs.context import tracer_of
from repro.obs.metrics import Counter
from repro.sim.engine import Environment, Event

__all__ = ["MicroFS", "FileHandle", "normalize_path", "split_path"]

_SUPERBLOCK_BYTES = 4096
# slot u8 | pad u8 x3 | state_len u64 | state_lsn u64 | log_epoch u32 | magic u32
_SB = struct.Struct("<B3xQQII")
_SB_MAGIC = 0x6D465300  # "mFS\0"

WriteData = Union[bytes, int, Payload]


def normalize_path(path: str) -> str:
    """Canonical absolute path: leading slash, no trailing slash, no ``//``."""
    if not path or not path.startswith("/"):
        raise InvalidArgument(f"path must be absolute, got {path!r}")
    parts = [p for p in path.split("/") if p]
    if any(p in (".", "..") for p in parts):
        raise InvalidArgument(f"path may not contain '.' or '..': {path!r}")
    return "/" + "/".join(parts)


def split_path(path: str) -> Tuple[str, str]:
    """(parent, base) of a normalized non-root path."""
    path = normalize_path(path)
    if path == "/":
        raise InvalidArgument("root has no parent")
    parent, _slash, base = path.rpartition("/")
    return (parent or "/", base)


@dataclass
class FileHandle:
    """An open file descriptor within one MicroFS instance."""

    fd: int
    ino: int
    pos: int = 0
    readable: bool = True
    writable: bool = True
    open_: bool = True


class MicroFS:  # reproflow: ignore[FLOW103] (ops apply atomically between yield points)
    """The per-process micro filesystem."""

    ROOT_INO = 1

    def __init__(
        self,
        env: Environment,
        config: RuntimeConfig,
        data_plane: DataPlane,
        partition: Partition,
        instance_name: str = "microfs",
        uid: int = 0,
        global_namespace: Optional[GlobalNamespaceService] = None,
        counters: Optional[Counter] = None,
    ):
        self.env = env
        self.config = config
        self.data_plane = data_plane
        self.partition = partition
        self.instance_name = instance_name
        # Data-plane spans share this instance's track so they nest
        # under the intercepted syscall that issued them.
        data_plane.obs_track = instance_name
        self.uid = uid
        self.global_namespace = global_namespace if not config.private_namespace else None
        self.counters = counters if counters is not None else Counter()

        # -- partition layout ------------------------------------------------
        block = config.effective_block_bytes
        self._sb_offset = partition.absolute(0)
        self._log_offset = partition.absolute(_SUPERBLOCK_BYTES)
        self._state_offset = partition.absolute(_SUPERBLOCK_BYTES + config.log_region_bytes)
        data_start_rel = _SUPERBLOCK_BYTES + config.log_region_bytes + config.state_region_bytes
        data_start_rel = -(-data_start_rel // block) * block  # align up
        self._data_offset = partition.absolute(data_start_rel)
        data_bytes = partition.nbytes - data_start_rel
        if data_bytes < block:
            raise InvalidArgument(
                f"partition of {partition.nbytes} bytes leaves no data region"
            )

        # -- in-DRAM state (the control plane) ---------------------------------
        self.pool = BlockPool(data_bytes, block)
        self.namespace_index = BPlusTree(order=64)
        self.inodes: Dict[int, Inode] = {}
        self._next_ino = self.ROOT_INO + 1
        self.oplog = OperationLog(
            config.log_region_bytes,
            coalescing=config.log_coalescing,
            physical_records=not config.metadata_provenance,
        )
        self._handles: Dict[int, FileHandle] = {}
        self._fd_counter = itertools.count(3)  # 0-2 are stdio, as tradition demands
        self._write_seq = itertools.count()
        self._state_slot = 0
        self.state_lsn = 0
        self.state_checkpoints = 0
        self._ckpt_signal: Optional[Event] = None
        self._mkroot()

    def _mkroot(self) -> None:
        root = Inode(ino=self.ROOT_INO, ftype=FileType.DIRECTORY, mode=0o755, uid=self.uid)
        self.inodes[self.ROOT_INO] = root
        self.namespace_index.insert("/", self.ROOT_INO)

    # ------------------------------------------------------------------------
    # lookups (pure)
    # ------------------------------------------------------------------------

    def _alloc_ino(self) -> int:
        ino = self._next_ino
        self._next_ino += 1
        return ino

    def _resolve(self, path: str) -> Inode:
        path = normalize_path(path)
        ino = self.namespace_index.get(path)
        if ino is None:
            raise FileNotFound(path)
        return self.inodes[ino]

    def _resolve_parent(self, path: str) -> Tuple[Inode, str]:
        parent_path, base = split_path(path)
        parent = self._resolve(parent_path)
        parent.require_dir()
        return parent, base

    def exists(self, path: str) -> bool:
        """True if ``path`` names a live file or directory."""
        return self.namespace_index.get(normalize_path(path)) is not None

    def stat(self, path: str) -> Inode:
        """The inode behind ``path`` (raises FileNotFound)."""
        return self._resolve(path)

    def readdir(self, path: str) -> List[str]:
        """Sorted entry names of the directory at ``path``."""
        return self._resolve(path).entry_names()

    @property
    def open_file_count(self) -> int:
        """Open descriptors — the background checkpointer's trigger input."""
        return len(self._handles)

    # ------------------------------------------------------------------------
    # cost charging helpers
    # ------------------------------------------------------------------------

    def _metadata_cost(self) -> float:
        cost = cal.METADATA_OP_CPU
        if not self.config.userspace_direct:
            cost += cal.SYSCALL_TRAP_COST + cal.KERNEL_IO_PATH_COST
            self.counters.add("kernel_time", cal.SYSCALL_TRAP_COST + cal.KERNEL_IO_PATH_COST)
        return cost

    def _charge_metadata(self) -> Event:
        self.counters.add("metadata_ops")
        return self.env.timeout(self._metadata_cost())

    def _global_ns_visit(self) -> Generator[Event, Any, None]:
        if self.global_namespace is not None:
            yield from self.global_namespace.execute()

    def _journal(self, op: LogOp, **fields) -> Generator[Event, Any, None]:
        """Append a log record and flush it to the SSD (WAL barrier)."""
        tr = tracer_of(self.env)
        span = None if tr is None else tr.begin(
            "microfs.journal", cat="fs", track=self.instance_name,
            parent=tr.current(self.instance_name), op=op.name)
        yield self.env.timeout(cal.LOG_APPEND_CPU)
        result = self.oplog.append(op, **fields)
        self.counters.add("log_records_coalesced" if result.coalesced else "log_records_new")
        ctx = self.env.obs
        if ctx is not None:
            ctx.metrics.counter("microfs.log_records").add(1)
        if span is not None:
            tr.handoff(span)
        yield from self.data_plane.write_log_page(
            self._log_offset + result.region_offset,
            result.page_bytes,
            result.wire_bytes,
        )
        if span is not None:
            tr.end(span, coalesced=result.coalesced)

    def _permission_check(self, inode: Inode, uid: int, write: bool) -> None:
        """§III-F: "The control plane performs access control checks for
        file IO so that POSIX permissions are respected"."""
        if uid == inode.uid:
            return
        needed = 0o002 if write else 0o004
        if not inode.mode & needed:
            raise PermissionDenied(
                f"uid {uid} denied {'write' if write else 'read'} on inode "
                f"{inode.ino} (mode {oct(inode.mode)}, owner {inode.uid})"
            )

    # ------------------------------------------------------------------------
    # block maps (shared with recovery replay)
    # ------------------------------------------------------------------------

    def _grow(self, inode: Inode, nblocks: int) -> None:
        """Extend ``inode``'s block map to ``nblocks`` blocks from the pool."""
        if nblocks > len(inode.blocks):
            inode.blocks.add_runs(self.pool.alloc_runs(nblocks - len(inode.blocks)))

    def _shrink(self, inode: Inode, nblocks: int) -> None:
        """Cut ``inode``'s block map to ``nblocks`` blocks, freeing the rest."""
        self.pool.free_runs(inode.blocks.truncate(nblocks))

    def _device_runs(self, inode: Inode, offset: int, nbytes: int) -> List[Tuple[int, int]]:
        """Split file bytes ``[offset, offset + nbytes)`` into
        device-contiguous ``(device offset, length)`` runs, in file order."""
        block = self.config.effective_block_bytes
        end = offset + nbytes
        runs: List[Tuple[int, int]] = []
        at = offset
        next_index = offset // block
        for first, count in inode.blocks.span(next_index, -(-end // block)):
            next_index += count
            stop = min(end, next_index * block)
            device_offset = self._data_offset + self.pool.offset_of(first) + at % block
            runs.append((device_offset, stop - at))
            at = stop
        return runs

    # ------------------------------------------------------------------------
    # directory-file maintenance
    # ------------------------------------------------------------------------

    def _ensure_dir_blocks(self, directory: Inode) -> None:
        """Give a directory file the blocks its entries need (at least one)."""
        block = self.config.effective_block_bytes
        self._grow(directory, max(1, -(-directory.dir_file_bytes() // block)))

    def _write_dir_file(self, directory: Inode) -> Generator[Event, Any, None]:
        """Rewrite the tail block of a directory's on-SSD directory file.

        "For each file create, a corresponding entry must be added to the
        directory file stored on the remote SSD" (§IV-G) — this write is
        what bounds create throughput by hardware, not software.
        """
        block = self.config.effective_block_bytes
        self._ensure_dir_blocks(directory)
        tail = directory.blocks[-1]
        payload = Payload.synthetic(
            f"{self.instance_name}:dirfile:{directory.ino}:{len(directory.entries)}",
            block,
        )
        # Directory files are metadata: they ride the journal class.
        yield from self.data_plane.write_runs(
            [(self._data_offset + self.pool.offset_of(tail), payload)],
            qos=QoSClass.JOURNAL,
        )

    # ------------------------------------------------------------------------
    # POSIX operations (simulation generators)
    # ------------------------------------------------------------------------

    def mkdir(self, path: str, mode: int = 0o755, uid: Optional[int] = None) -> Generator[Event, Any, Inode]:
        """Create a directory (journaled MKDIR + parent dir-file write)."""
        path = normalize_path(path)
        uid = self.uid if uid is None else uid
        yield self._charge_metadata()
        yield from self._global_ns_visit()
        if self.exists(path):
            raise FileExists(path)
        parent, base = self._resolve_parent(path)
        self._permission_check(parent, uid, write=True)
        ino = self._alloc_ino()
        yield from self._journal(
            LogOp.MKDIR, ino=ino, parent_ino=parent.ino, mode=mode, name=base
        )
        inode = Inode(ino=ino, ftype=FileType.DIRECTORY, mode=mode, uid=uid,
                      ctime=self.env.now, mtime=self.env.now)
        self.inodes[ino] = inode
        parent.add_entry(DirEntry(base, ino, FileType.DIRECTORY))
        self.namespace_index.insert(path, ino)
        yield from self._write_dir_file(parent)
        self.counters.add("mkdirs")
        return inode

    def open(
        self,
        path: str,
        create: bool = False,
        excl: bool = False,
        truncate: bool = False,
        mode: int = 0o644,
        uid: Optional[int] = None,
    ) -> Generator[Event, Any, FileHandle]:
        """``open(2)``: lookup or (journaled) create; returns a FileHandle."""
        path = normalize_path(path)
        uid = self.uid if uid is None else uid
        yield self._charge_metadata()
        yield from self._global_ns_visit()
        existing = self.namespace_index.get(path)
        if existing is not None:
            if excl and create:
                raise FileExists(path)
            inode = self.inodes[existing]
            if inode.ftype is FileType.DIRECTORY:
                raise IsADirectory(path)
            self._permission_check(inode, uid, write=truncate)
            if truncate and inode.size > 0:
                yield from self._truncate(inode)
        elif create:
            inode = yield from self._creat(path, mode, uid)
        else:
            raise FileNotFound(path)
        handle = FileHandle(fd=next(self._fd_counter), ino=inode.ino)
        self._handles[handle.fd] = handle
        self.counters.add("opens")
        return handle

    def _creat(self, path: str, mode: int, uid: int) -> Generator[Event, Any, Inode]:
        parent, base = self._resolve_parent(path)
        self._permission_check(parent, uid, write=True)
        ino = self._alloc_ino()
        yield from self._journal(
            LogOp.CREAT, ino=ino, parent_ino=parent.ino, mode=mode, name=base
        )
        inode = Inode(ino=ino, ftype=FileType.FILE, mode=mode, uid=uid,
                      ctime=self.env.now, mtime=self.env.now)
        self.inodes[ino] = inode
        parent.add_entry(DirEntry(base, ino, FileType.FILE))
        self.namespace_index.insert(path, ino)
        yield from self._write_dir_file(parent)
        self.counters.add("creates")
        return inode

    def _truncate(self, inode: Inode, size: int = 0) -> Generator[Event, Any, None]:
        yield from self._journal(LogOp.TRUNCATE, ino=inode.ino, a=size)
        self._shrink(inode, -(-size // self.config.effective_block_bytes))
        inode.size = min(inode.size, size)
        inode.mtime = self.env.now

    def truncate(self, path: str, size: int, uid: Optional[int] = None) -> Generator[Event, Any, None]:
        """``truncate(2)``: shrink a file to ``size`` bytes, freeing the
        tail blocks. Growing via truncate is not supported (checkpoint
        files never need it)."""
        path = normalize_path(path)
        uid = self.uid if uid is None else uid
        if size < 0:
            raise InvalidArgument(f"negative truncate size {size}")
        yield self._charge_metadata()
        yield from self._global_ns_visit()
        inode = self._resolve(path)
        inode.require_file()
        self._permission_check(inode, uid, write=True)
        if size > inode.size:
            raise InvalidArgument("truncate cannot grow a file")
        yield from self._truncate(inode, size)
        self.counters.add("truncates")

    def rename(self, old: str, new: str, uid: Optional[int] = None) -> Generator[Event, Any, None]:
        """``rename(2)`` within the private namespace. The destination
        must not exist (checkpoint renames are publish-style moves)."""
        old = normalize_path(old)
        new = normalize_path(new)
        uid = self.uid if uid is None else uid
        yield self._charge_metadata()
        yield from self._global_ns_visit()
        inode = self._resolve(old)
        if self.exists(new):
            raise FileExists(new)
        old_parent, old_base = self._resolve_parent(old)
        new_parent, new_base = self._resolve_parent(new)
        self._permission_check(old_parent, uid, write=True)
        self._permission_check(new_parent, uid, write=True)
        yield from self._journal(
            LogOp.RENAME, ino=inode.ino, parent_ino=old_parent.ino,
            a=new_parent.ino, name=f"{old_base}/{new_base}",
        )
        entry = old_parent.remove_entry(old_base)
        new_parent.add_entry(DirEntry(new_base, entry.ino, entry.ftype))
        self._rekey_namespace(old, new)
        yield from self._write_dir_file(old_parent)
        if new_parent.ino != old_parent.ino:
            yield from self._write_dir_file(new_parent)
        self.counters.add("renames")

    def _rekey_namespace(self, old_path: str, new_path: str) -> None:
        """Move a path (and, for directories, its subtree) in the B+Tree."""
        moves = [(old_path, self.namespace_index.get(old_path))]
        prefix = old_path + "/"
        moves.extend(self.namespace_index.keys_with_prefix(prefix))
        for key, ino in moves:
            self.namespace_index.delete(key)
            self.namespace_index.insert(new_path + key[len(old_path):], ino)

    def _handle(self, handle: FileHandle) -> Inode:
        if not handle.open_ or handle.fd not in self._handles:
            raise BadFileDescriptor(f"fd {handle.fd}")
        return self.inodes[handle.ino]

    def _as_payload(self, data: WriteData, ino: int, offset: int) -> Payload:
        if isinstance(data, Payload):
            return data
        if isinstance(data, bytes):
            return Payload.of_bytes(data)
        if isinstance(data, int):
            tag = f"{self.instance_name}:w:{ino}:{offset}:{next(self._write_seq)}"
            return Payload.synthetic(tag, data)
        raise InvalidArgument(f"unsupported write data {type(data)!r}")

    def write(
        self,
        handle: FileHandle,
        data: WriteData,
        qos: QoSClass = QoSClass.CKPT_DATA,
    ) -> Generator[Event, Any, int]:
        """Write at the handle's position (advances it). ``data`` may be
        real bytes, a Payload, or an int byte-count (synthetic bulk)."""
        inode = self._handle(handle)
        inode.require_file()
        payload = self._as_payload(data, inode.ino, handle.pos)
        written = yield from self.pwrite(handle, payload, handle.pos, qos=qos)
        handle.pos += written
        return written

    def pwrite(
        self,
        handle: FileHandle,
        data: WriteData,
        offset: int,
        qos: QoSClass = QoSClass.CKPT_DATA,
    ) -> Generator[Event, Any, int]:
        """Positional write: allocate blocks, journal (WAL), move the data."""
        inode = self._handle(handle)
        inode.require_file()
        if not handle.writable:
            raise BadFileDescriptor(f"fd {handle.fd} not writable")
        if offset < 0:
            raise InvalidArgument(f"negative write offset {offset}")
        payload = self._as_payload(data, inode.ino, offset)
        nbytes = payload.nbytes
        if nbytes == 0:
            return 0
        block = self.config.effective_block_bytes
        end = offset + nbytes
        needed = -(-end // block) - len(inode.blocks)
        if needed > 0:
            yield self.env.timeout(needed * cal.BLOCK_ALLOC_COST)
            inode.blocks.add_runs(self.pool.alloc_runs(needed))
        # In a global namespace, the inode size/mtime update is a shared
        # metadata operation and must take the distributed lock ("other
        # systems must use distributed locking algorithms for each
        # metadata operation", SIII-E) — private namespaces skip this.
        yield from self._global_ns_visit()
        # WAL: journal the operation, flush, then move the data. Under
        # physical logging every few blocks ship a full journal record.
        weight = max(1, -(-max(needed, 0) // cal.PHYSICAL_LOG_BLOCKS_PER_RECORD))
        yield from self._journal(
            LogOp.WRITE, ino=inode.ino, a=offset, b=nbytes, physical_weight=weight
        )
        runs = []
        consumed = 0
        for device_offset, length in self._device_runs(inode, offset, nbytes):
            runs.append((device_offset, payload.slice(consumed, length)))
            consumed += length
        yield from self.data_plane.write_runs(runs, qos=qos)
        inode.size = max(inode.size, end)
        inode.mtime = self.env.now
        self.counters.add("app_bytes_written", nbytes)
        return nbytes

    def read(
        self,
        handle: FileHandle,
        nbytes: int,
        qos: QoSClass = QoSClass.RECOVERY,
    ) -> Generator[Event, Any, List[Payload]]:
        """Read from the handle position; returns stored payload pieces."""
        pieces = yield from self.pread(handle, nbytes, handle.pos, qos=qos)
        handle.pos += sum(p.nbytes for p in pieces)
        return pieces

    def pread(
        self,
        handle: FileHandle,
        nbytes: int,
        offset: int,
        qos: QoSClass = QoSClass.RECOVERY,
    ) -> Generator[Event, Any, List[Payload]]:
        """Positional read of stored payload pieces (clipped at EOF)."""
        inode = self._handle(handle)
        inode.require_file()
        if not handle.readable:
            raise BadFileDescriptor(f"fd {handle.fd} not readable")
        if offset < 0:
            raise InvalidArgument(f"negative read offset {offset}")
        nbytes = max(0, min(nbytes, inode.size - offset))
        if nbytes == 0:
            return []
        runs = self._device_runs(inode, offset, nbytes)
        extents = yield from self.data_plane.read_runs(runs, qos=qos)
        self.counters.add("app_bytes_read", nbytes)
        return [e.payload for e in extents]

    def fsync(self, handle: FileHandle) -> Generator[Event, Any, None]:
        """Data is unbuffered and the log is flushed per-op, so fsync is
        just a device FLUSH — the stronger-than-POSIX durability of §III-E."""
        self._handle(handle)
        tr = tracer_of(self.env)
        if tr is not None:
            tr.handoff(tr.current(self.instance_name))
        yield self.data_plane.transport.flush(self.data_plane.nsid)
        self.counters.add("fsyncs")

    def close(self, handle: FileHandle) -> Generator[Event, Any, None]:
        """Release the descriptor; may wake the background checkpointer."""
        self._handle(handle)
        yield self._charge_metadata()
        del self._handles[handle.fd]
        handle.open_ = False
        self.counters.add("closes")
        self._signal_checkpointer()

    def unlink(self, path: str, uid: Optional[int] = None) -> Generator[Event, Any, None]:
        """Remove a file or empty directory (journaled; blocks recycled)."""
        path = normalize_path(path)
        uid = self.uid if uid is None else uid
        yield self._charge_metadata()
        yield from self._global_ns_visit()
        inode = self._resolve(path)
        parent, base = self._resolve_parent(path)
        self._permission_check(parent, uid, write=True)
        if inode.ftype is FileType.DIRECTORY:
            if inode.entries:
                raise DirectoryNotEmpty(path)
        yield from self._journal(
            LogOp.UNLINK, ino=inode.ino, parent_ino=parent.ino, name=base
        )
        parent.remove_entry(base)
        self.namespace_index.delete(path)
        self._shrink(inode, 0)
        del self.inodes[inode.ino]
        yield from self._write_dir_file(parent)
        self.counters.add("unlinks")

    # ------------------------------------------------------------------------
    # internal-state checkpointing (§III-E) and the background thread
    # ------------------------------------------------------------------------

    def needs_state_checkpoint(self) -> bool:
        """§III-E trigger: no open files and low free log space."""
        return (
            self.open_file_count == 0
            and self.oplog.free_fraction < self.config.log_free_threshold
        )

    def serialize_state(self) -> bytes:
        """Pickle the DRAM state (inodes, pool, namespace) for a checkpoint slot."""
        state = {
            "next_ino": self._next_ino,
            "state_lsn": self.oplog.next_lsn - 1,
            "log_epoch": self.oplog.epoch + 1,
            "inodes": {ino: inode.snapshot() for ino, inode in self.inodes.items()},
            "pool": self.pool.snapshot(),
            "namespace": list(self.namespace_index.items()),
            "uid": self.uid,
            "state_slot": self._state_slot,
        }
        return pickle.dumps(state, protocol=4)

    def checkpoint_state(self) -> Generator[Event, Any, int]:
        """Atomically checkpoint internal DRAM state to the reserved region.

        Sequence: state blob to the inactive slot -> superblock commit ->
        log reset. "Log records are only discarded once the checkpoint is
        complete. A failure during checkpoint will not affect the
        durability and consistency of data."
        """
        blob = self.serialize_state()
        slot_bytes = self.config.state_region_bytes // 2
        if len(blob) > slot_bytes:
            raise InvalidArgument(
                f"state blob of {len(blob)} bytes exceeds slot of {slot_bytes}"
            )
        # The background checkpointer interleaves with app ops, so its
        # spans live on a dedicated track (no shared span stack).
        tr = tracer_of(self.env)
        span = None if tr is None else tr.begin(
            "microfs.state_ckpt", cat="fs",
            track=f"{self.instance_name}.ckpt", bytes=len(blob))
        slot = self._state_slot ^ 1
        slot_offset = self._state_offset + slot * slot_bytes
        if tr is not None:
            tr.handoff(span)
        yield from self.data_plane.write_state(slot_offset, blob)
        state_lsn = self.oplog.next_lsn - 1
        superblock = _SB.pack(slot, len(blob), state_lsn, self.oplog.epoch + 1, _SB_MAGIC)
        if tr is not None:
            tr.handoff(span)
        yield from self.data_plane.write_log_page(
            self._sb_offset, superblock.ljust(_SUPERBLOCK_BYTES, b"\x00"), _SUPERBLOCK_BYTES
        )
        self.oplog.reset()
        self._state_slot = slot
        self.state_lsn = state_lsn
        self.state_checkpoints += 1
        self.counters.add("state_checkpoints")
        if span is not None:
            tr.end(span)
        ctx = self.env.obs
        if ctx is not None:
            ctx.metrics.counter("microfs.state_checkpoints").add(1)
        return len(blob)

    def _signal_checkpointer(self) -> None:
        """Wake the background thread if its trigger condition holds.

        "The background thread can exactly determine when the application
        checkpoint process is complete by monitoring the number of open
        files" — modelled as an event the fs raises on the transitions
        that can satisfy the condition (last close, log fill), instead of
        busy-polling simulated time.
        """
        if self._ckpt_signal is not None and not self._ckpt_signal.triggered:
            if self.needs_state_checkpoint():
                self._ckpt_signal.succeed()

    def background_checkpointer(
        self, poll_interval: float = 0.25, stop_event: Optional[Event] = None
    ) -> Generator[Event, Any, None]:
        """The dedicated checkpoint thread (§III-E), overlapped with the
        application compute phase. Run it via ``env.process``; trigger
        ``stop_event`` to retire it at finalize. ``poll_interval`` is a
        slow fallback re-check; the fast path is the fs signalling the
        thread when the trigger condition can hold."""
        while stop_event is None or not stop_event.triggered:
            self._ckpt_signal = self.env.event()
            poll = self.env.timeout(poll_interval)
            waits = [self._ckpt_signal, poll]
            if stop_event is not None:
                waits.append(stop_event)
            yield self.env.any_of(waits)
            poll.cancel()
            if self.needs_state_checkpoint():
                yield from self.checkpoint_state()
        self._ckpt_signal = None

    # ------------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------------

    def footprint(self) -> MetadataFootprint:
        """DRAM + on-SSD metadata accounting for Table I."""
        dir_bytes = sum(
            inode.dir_file_bytes()
            for inode in self.inodes.values()
            if inode.ftype is FileType.DIRECTORY
        )
        return MetadataFootprint(
            inode_count=len(self.inodes),
            btree_nodes=self.namespace_index.node_count,
            blockpool_bytes=self.pool.footprint_bytes(),
            log_region_bytes=self.config.log_region_bytes,
            state_region_bytes=self.config.state_region_bytes,
            dir_file_bytes=dir_bytes,
        )

    def check_consistency(self) -> None:
        """fsck: assert cross-structure invariants; raises AssertionError.

        * every namespace-index path maps to a live inode,
        * every directory entry matches the index and the child inode,
        * every inode is reachable from the root exactly once,
        * the blocks inodes hold are exactly the pool's allocated blocks
          (no leaks, no double use, none the pool would hand out again),
        * file sizes fit their block lists.
        """
        # Index <-> inode table.
        seen_inos = set()
        for path, ino in self.namespace_index.items():
            inode = self.inodes.get(ino)
            assert inode is not None, f"index path {path} -> dead inode {ino}"
            assert ino not in seen_inos, f"inode {ino} indexed twice"
            seen_inos.add(ino)
        assert seen_inos == set(self.inodes), (
            f"unindexed inodes: {set(self.inodes) - seen_inos}"
        )
        # Directory entries <-> index.
        for path, ino in self.namespace_index.items():
            inode = self.inodes[ino]
            if inode.ftype is FileType.DIRECTORY:
                for name, entry in inode.entries.items():
                    child_path = ("" if path == "/" else path) + "/" + name
                    assert self.namespace_index.get(child_path) == entry.ino, (
                        f"dir entry {child_path} disagrees with index"
                    )
                    child = self.inodes.get(entry.ino)
                    assert child is not None and child.ftype is entry.ftype
        # Reachability from the root.
        reachable = {self.ROOT_INO}
        stack = [self.inodes[self.ROOT_INO]]
        while stack:
            node = stack.pop()
            if node.ftype is FileType.DIRECTORY:
                for entry in node.entries.values():
                    assert entry.ino not in reachable, f"inode {entry.ino} linked twice"
                    reachable.add(entry.ino)
                    stack.append(self.inodes[entry.ino])
        assert reachable == set(self.inodes), (
            f"orphan inodes: {set(self.inodes) - reachable}"
        )
        # Block accounting, over runs: the blocks inodes hold, merged in
        # device order, must be disjoint and be exactly the pool's.
        held: List[Run] = []
        for first, count in sorted(
            run for inode in self.inodes.values() for run in inode.blocks.runs
        ):
            last_first, last_count = held[-1] if held else (first, 0)
            assert last_first + last_count <= first, f"block double-use at block {first}"
            if held and last_first + last_count == first:
                held[-1] = (last_first, last_count + count)
            else:
                held.append((first, count))
        held_blocks = sum(count for _first, count in held)
        assert held_blocks == self.pool.used_blocks, (
            f"pool says {self.pool.used_blocks} used, inodes hold {held_blocks}"
        )
        assert held == self.pool.allocated_runs(), (
            "inodes hold blocks the pool counts as free"
        )
        # Sizes fit block lists.
        block = self.config.effective_block_bytes
        for inode in self.inodes.values():
            if inode.ftype is FileType.FILE:
                assert inode.size <= len(inode.blocks) * block, (
                    f"inode {inode.ino}: size {inode.size} exceeds blocks"
                )

    # superblock decoding shared with recovery
    @staticmethod
    def decode_superblock(raw: bytes) -> Optional[dict]:
        """Parse a superblock page; None when absent/unrecognisable."""
        if len(raw) < _SB.size or raw[: _SB.size] == b"\x00" * _SB.size:
            return None
        slot, state_len, state_lsn, log_epoch, magic = _SB.unpack_from(raw, 0)
        if magic != _SB_MAGIC:
            return None
        return {
            "slot": slot,
            "state_len": state_len,
            "state_lsn": state_lsn,
            "log_epoch": log_epoch,
        }
