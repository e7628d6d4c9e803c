"""Crash recovery: state-checkpoint load + operation-log replay (§III-E).

"During recovery in the event of a crash, the runtime reconstructs
metadata by replaying operations recorded in the log."

Replay needs no block addresses in the log: the circular block pool is
restored to its checkpointed state and re-allocates deterministically in
lsn order, so every replayed WRITE lands on exactly the blocks the
original write used. That determinism is what lets the log records stay
compact (metadata provenance) — and it is asserted by the recovery
tests.

Log record coalescing pays off here: Table II's recovery numbers drop
from 4 s to "near-instantaneous" runtime recovery because replay length
shrinks by the coalescing factor.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Generator, Optional

from repro.core.config import RuntimeConfig
from repro.core.control_plane import GlobalNamespaceService
from repro.core.data_plane import DataPlane
from repro.core.microfs.blockpool import BlockPool
from repro.core.microfs.fs import _SUPERBLOCK_BYTES, MicroFS
from repro.core.microfs.inode import DirEntry, FileType, Inode
from repro.core.microfs.oplog import LogOp, LogRecord, OperationLog
from repro.errors import RecoveryError
from repro.nvme.namespace import Partition
from repro.obs.context import tracer_of
from repro.sim.engine import Environment, Event
from repro.obs.metrics import Counter

__all__ = ["RecoveryReport", "recover"]


@dataclass
class RecoveryReport:
    """What recovery did, for assertions and Table II."""

    state_loaded: bool
    state_lsn: int
    records_scanned: int
    records_replayed: int
    duration: float
    files_recovered: int


def recover(
    env: Environment,
    config: RuntimeConfig,
    data_plane: DataPlane,
    partition: Partition,
    instance_name: str = "microfs",
    uid: int = 0,
    global_namespace: Optional[GlobalNamespaceService] = None,
    counters: Optional[Counter] = None,
) -> Generator[Event, Any, tuple]:
    """Rebuild a MicroFS instance from its partition after a crash.

    Returns ``(fs, report)``. A simulation sub-generator: reading the
    superblock, state blob, and log region all cost real device time.
    """
    t0 = env.now
    fs = MicroFS(
        env, config, data_plane, partition,
        instance_name=instance_name, uid=uid,
        global_namespace=global_namespace, counters=counters,
    )
    tr = tracer_of(env)
    span = None if tr is None else tr.begin(
        "microfs.recover", cat="fs", track=instance_name,
        parent=tr.take_handoff())
    # 1. Superblock -> latest committed internal-state checkpoint.
    if tr is not None:
        tr.handoff(span)
    raw_sb = yield from data_plane.read_bytes(fs._sb_offset, _SUPERBLOCK_BYTES)
    superblock = MicroFS.decode_superblock(raw_sb)
    state_loaded = False
    state_lsn = 0
    expect_epoch = 1
    if superblock is not None:
        slot_bytes = config.state_region_bytes // 2
        slot_offset = fs._state_offset + superblock["slot"] * slot_bytes
        if tr is not None:
            tr.handoff(span)
        blob = yield from data_plane.read_bytes(slot_offset, superblock["state_len"])
        _load_state(fs, blob)
        state_loaded = True
        state_lsn = superblock["state_lsn"]
        expect_epoch = superblock["log_epoch"]
    # 2. Log region -> replayable records.
    if tr is not None:
        tr.handoff(span)
    region_bytes = yield from data_plane.read_bytes(
        fs._log_offset, config.log_region_bytes
    )
    all_records = LogRecord.decode_stream(region_bytes)
    records = OperationLog.replayable(region_bytes, expect_epoch, state_lsn)
    # 3. Replay.
    for record in records:
        _apply(fs, record)
    # Restore log bookkeeping so the instance can continue journaling.
    fs.oplog.epoch = expect_epoch
    fs.oplog._next_lsn = (records[-1].lsn + 1) if records else state_lsn + 1
    fs.state_lsn = state_lsn
    report = RecoveryReport(
        state_loaded=state_loaded,
        state_lsn=state_lsn,
        records_scanned=len(all_records),
        records_replayed=len(records),
        duration=env.now - t0,
        files_recovered=sum(
            1 for i in fs.inodes.values() if i.ftype is FileType.FILE
        ),
    )
    if tr is not None:
        tr.end(span, records_replayed=report.records_replayed,
               records_scanned=report.records_scanned,
               state_loaded=state_loaded)
    return fs, report


def _load_state(fs: MicroFS, blob: bytes) -> None:
    try:
        state = pickle.loads(blob)
    except Exception as exc:  # noqa: BLE001 - corrupt blob is a recovery error
        raise RecoveryError(f"corrupt state checkpoint: {exc}") from exc
    fs._next_ino = state["next_ino"]
    fs.uid = state["uid"]
    fs.pool = BlockPool.restore(state["pool"])
    fs.inodes = {
        ino: Inode.restore(snap) for ino, snap in state["inodes"].items()
    }
    # Rebuild the B+Tree from the persisted path->ino mapping ("The state
    # of the B+Tree can also be reconstructed upon recovery").
    fs.namespace_index = type(fs.namespace_index)(order=64)
    for path, ino in state["namespace"]:
        fs.namespace_index.insert(path, ino)
    fs._state_slot = state["state_slot"] ^ 1  # the slot we loaded is now active


def _path_of(fs: MicroFS, parent_ino: int, name: str) -> str:
    """Reverse-map an inode to its path via the namespace index."""
    if parent_ino == MicroFS.ROOT_INO:
        return f"/{name}"
    for path, ino in fs.namespace_index.items():
        if ino == parent_ino:
            return f"{path}/{name}"
    raise RecoveryError(f"replay references unknown parent inode {parent_ino}")


def _apply(fs: MicroFS, record: LogRecord) -> None:
    """Re-execute one journaled operation against in-memory state only."""
    block = fs.config.effective_block_bytes
    if record.op in (LogOp.MKDIR, LogOp.CREAT):
        ftype = FileType.DIRECTORY if record.op is LogOp.MKDIR else FileType.FILE
        parent = fs.inodes.get(record.parent_ino)
        if parent is None:
            raise RecoveryError(f"replay {record}: missing parent")
        inode = Inode(ino=record.ino, ftype=ftype, mode=record.mode, uid=fs.uid)
        fs.inodes[record.ino] = inode
        parent.add_entry(DirEntry(record.name, record.ino, ftype))
        fs.namespace_index.insert(_path_of(fs, record.parent_ino, record.name), record.ino)
        fs._next_ino = max(fs._next_ino, record.ino + 1)
        # Mirror the dir-file allocation the original op performed.
        fs._ensure_dir_blocks(parent)
    elif record.op is LogOp.WRITE:
        inode = fs.inodes.get(record.ino)
        if inode is None:
            raise RecoveryError(f"replay WRITE to unknown inode {record.ino}")
        end = record.a + record.b
        fs._grow(inode, -(-end // block))
        inode.size = max(inode.size, end)
    elif record.op is LogOp.TRUNCATE:
        inode = fs.inodes.get(record.ino)
        if inode is None:
            raise RecoveryError(f"replay TRUNCATE of unknown inode {record.ino}")
        fs._shrink(inode, -(-record.a // block))
        inode.size = min(inode.size, record.a)
    elif record.op is LogOp.RENAME:
        inode = fs.inodes.get(record.ino)
        old_parent = fs.inodes.get(record.parent_ino)
        new_parent = fs.inodes.get(record.a)
        if inode is None or old_parent is None or new_parent is None:
            raise RecoveryError(f"replay RENAME with missing inode(s): {record}")
        old_base, _slash, new_base = record.name.partition("/")
        old_path = _path_of(fs, record.parent_ino, old_base)
        entry = old_parent.remove_entry(old_base)
        new_parent.add_entry(DirEntry(new_base, entry.ino, entry.ftype))
        new_path = _path_of(fs, record.a, new_base)
        fs._rekey_namespace(old_path, new_path)
        fs._ensure_dir_blocks(new_parent)
    elif record.op is LogOp.UNLINK:
        inode = fs.inodes.get(record.ino)
        parent = fs.inodes.get(record.parent_ino)
        if inode is None or parent is None:
            raise RecoveryError(f"replay UNLINK of unknown inode {record.ino}")
        path = _path_of(fs, record.parent_ino, record.name)
        parent.remove_entry(record.name)
        fs.namespace_index.delete(path)
        fs._shrink(inode, 0)
        del fs.inodes[record.ino]
    elif record.op is LogOp.CLOSE:
        pass  # informational
    else:  # pragma: no cover - enum is closed
        raise RecoveryError(f"unknown log op {record.op}")
