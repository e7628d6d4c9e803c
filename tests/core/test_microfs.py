"""Integration tests for MicroFS POSIX semantics over the simulated SSD."""

import pytest

from repro.core.config import RuntimeConfig
from repro.errors import (
    BadFileDescriptor,
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    PermissionDenied,
)
from repro.units import KiB, MiB

from tests.conftest import MicroFSRig


def test_create_write_read_roundtrip(rig):
    def scenario():
        fd = yield from rig.fs.open("/ckpt.dat", create=True)
        yield from rig.fs.write(fd, b"hello microfs")
        yield from rig.fs.close(fd)
        fd = yield from rig.fs.open("/ckpt.dat")
        pieces = yield from rig.fs.read(fd, 13)
        yield from rig.fs.close(fd)
        return b"".join(p.data for p in pieces)

    assert rig.run(scenario()) == b"hello microfs"


def test_synthetic_bulk_write(rig):
    def scenario():
        fd = yield from rig.fs.open("/bulk.dat", create=True)
        written = yield from rig.fs.write(fd, MiB(8))
        yield from rig.fs.close(fd)
        return written

    assert rig.run(scenario()) == MiB(8)
    assert rig.fs.stat("/bulk.dat").size == MiB(8)


def test_open_missing_file_raises(rig):
    def scenario():
        yield from rig.fs.open("/nope")

    with pytest.raises(FileNotFound):
        rig.run(scenario())


def test_excl_create_of_existing_raises(rig):
    def scenario():
        fd = yield from rig.fs.open("/f", create=True)
        yield from rig.fs.close(fd)
        yield from rig.fs.open("/f", create=True, excl=True)

    with pytest.raises(FileExists):
        rig.run(scenario())


def test_mkdir_and_nested_files(rig):
    def scenario():
        yield from rig.fs.mkdir("/ckpt")
        yield from rig.fs.mkdir("/ckpt/step1")
        fd = yield from rig.fs.open("/ckpt/step1/rank0.dat", create=True)
        yield from rig.fs.write(fd, KiB(64))
        yield from rig.fs.close(fd)

    rig.run(scenario())
    assert rig.fs.readdir("/") == ["ckpt"]
    assert rig.fs.readdir("/ckpt") == ["step1"]
    assert rig.fs.readdir("/ckpt/step1") == ["rank0.dat"]


def test_mkdir_existing_raises(rig):
    def scenario():
        yield from rig.fs.mkdir("/d")
        yield from rig.fs.mkdir("/d")

    with pytest.raises(FileExists):
        rig.run(scenario())


def test_mkdir_without_parent_raises(rig):
    def scenario():
        yield from rig.fs.mkdir("/no/such/parent")

    with pytest.raises(FileNotFound):
        rig.run(scenario())


def test_open_directory_raises(rig):
    def scenario():
        yield from rig.fs.mkdir("/d")
        yield from rig.fs.open("/d")

    with pytest.raises(IsADirectory):
        rig.run(scenario())


def test_unlink_removes_and_frees_blocks(rig):
    def scenario():
        fd = yield from rig.fs.open("/f", create=True)
        yield from rig.fs.write(fd, MiB(1))
        yield from rig.fs.close(fd)
        used = rig.fs.pool.used_blocks
        yield from rig.fs.unlink("/f")
        return used

    used_before = rig.run(scenario())
    assert used_before > 0
    assert not rig.fs.exists("/f")
    # Only the root directory-file block remains.
    assert rig.fs.pool.used_blocks == 1


def test_unlink_nonempty_directory_raises(rig):
    def scenario():
        yield from rig.fs.mkdir("/d")
        fd = yield from rig.fs.open("/d/f", create=True)
        yield from rig.fs.close(fd)
        yield from rig.fs.unlink("/d")

    with pytest.raises(DirectoryNotEmpty):
        rig.run(scenario())


def test_unlink_empty_directory_ok(rig):
    def scenario():
        yield from rig.fs.mkdir("/d")
        yield from rig.fs.unlink("/d")

    rig.run(scenario())
    assert not rig.fs.exists("/d")


def test_truncate_on_reopen(rig):
    def scenario():
        fd = yield from rig.fs.open("/f", create=True)
        yield from rig.fs.write(fd, MiB(1))
        yield from rig.fs.close(fd)
        fd = yield from rig.fs.open("/f", create=True, truncate=True)
        yield from rig.fs.close(fd)

    rig.run(scenario())
    assert rig.fs.stat("/f").size == 0


def test_write_after_close_raises(rig):
    def scenario():
        fd = yield from rig.fs.open("/f", create=True)
        yield from rig.fs.close(fd)
        yield from rig.fs.write(fd, b"late")

    with pytest.raises(BadFileDescriptor):
        rig.run(scenario())


def test_pwrite_pread_at_offsets(rig):
    def scenario():
        fd = yield from rig.fs.open("/f", create=True)
        yield from rig.fs.pwrite(fd, b"AAAA", 0)
        yield from rig.fs.pwrite(fd, b"BBBB", 4)
        pieces = yield from rig.fs.pread(fd, 8, 0)
        yield from rig.fs.close(fd)
        return b"".join(p.data for p in pieces)

    assert rig.run(scenario()) == b"AAAABBBB"


def test_read_past_eof_clips(rig):
    def scenario():
        fd = yield from rig.fs.open("/f", create=True)
        yield from rig.fs.write(fd, b"12345")
        pieces = yield from rig.fs.pread(fd, 100, 3)
        yield from rig.fs.close(fd)
        return b"".join(p.data for p in pieces)

    assert rig.run(scenario()) == b"45"


def test_multiblock_write_allocates_contiguous(rig):
    def scenario():
        fd = yield from rig.fs.open("/f", create=True)
        yield from rig.fs.write(fd, rig.config.hugeblock_bytes * 4)
        yield from rig.fs.close(fd)

    rig.run(scenario())
    blocks = rig.fs.stat("/f").blocks
    assert len(blocks) == 4
    assert blocks == list(range(blocks[0], blocks[0] + 4))


def test_permission_check_denies_other_uid(rig):
    def scenario():
        fd = yield from rig.fs.open("/secret", create=True, mode=0o600)
        yield from rig.fs.write(fd, b"mine")
        yield from rig.fs.close(fd)
        # Another user truncating the file is a write access.
        yield from rig.fs.open("/secret", truncate=True, uid=42)

    with pytest.raises(PermissionDenied):
        rig.run(scenario())


def test_permission_allows_world_readable(rig):
    def scenario():
        fd = yield from rig.fs.open("/pub", create=True, mode=0o644)
        yield from rig.fs.close(fd)
        fd = yield from rig.fs.open("/pub", uid=42)  # read-only open
        yield from rig.fs.close(fd)

    rig.run(scenario())  # no exception


def test_relative_path_rejected(rig):
    def scenario():
        yield from rig.fs.open("ckpt.dat", create=True)

    with pytest.raises(InvalidArgument):
        rig.run(scenario())


def test_dotdot_rejected(rig):
    def scenario():
        yield from rig.fs.open("/a/../b", create=True)

    with pytest.raises(InvalidArgument):
        rig.run(scenario())


def test_negative_offsets_rejected_before_any_state_changes(rig):
    """pwrite/pread at offset < 0 raise InvalidArgument, like lseek; the
    write must not reach the operation log, whose encoder cannot hold a
    negative offset and would then fail every later journaled op."""
    def scenario():
        fd = yield from rig.fs.open("/f", create=True)
        yield from rig.fs.write(fd, KiB(64))
        records = rig.fs.oplog.record_count
        with pytest.raises(InvalidArgument):
            yield from rig.fs.pwrite(fd, b"B" * 10, -KiB(32))
        with pytest.raises(InvalidArgument):
            yield from rig.fs.pread(fd, 16, -KiB(32))
        assert rig.fs.oplog.record_count == records
        yield from rig.fs.mkdir("/d")  # the journal still works
        yield from rig.fs.close(fd)

    rig.run(scenario())
    assert rig.fs.stat("/f").size == KiB(64)
    assert rig.fs.exists("/d")


def test_open_file_count_tracks_handles(rig):
    def scenario():
        assert rig.fs.open_file_count == 0
        fd1 = yield from rig.fs.open("/a", create=True)
        fd2 = yield from rig.fs.open("/b", create=True)
        assert rig.fs.open_file_count == 2
        yield from rig.fs.close(fd1)
        yield from rig.fs.close(fd2)
        assert rig.fs.open_file_count == 0

    rig.run(scenario())


def test_write_time_tracks_device_bandwidth(rig):
    """A 64 MiB write should take roughly nbytes/bandwidth sim time."""
    def scenario():
        fd = yield from rig.fs.open("/big", create=True)
        t0 = rig.env.now
        yield from rig.fs.write(fd, MiB(64))
        elapsed = rig.env.now - t0
        yield from rig.fs.close(fd)
        return elapsed

    elapsed = rig.run(scenario())
    floor = MiB(64) / rig.ssd.spec.write_bandwidth
    assert floor < elapsed < 1.3 * floor


def test_wal_ordering_log_before_data(rig):
    """The op log record for a write must be durable before its data:
    after any write completes, the log already contains the record."""
    def scenario():
        fd = yield from rig.fs.open("/f", create=True)
        yield from rig.fs.write(fd, KiB(32))
        yield from rig.fs.close(fd)

    rig.run(scenario())
    from repro.core.microfs.oplog import LogOp, LogRecord

    region = rig.fs.oplog.encode_region()
    ops = [r.op for r in LogRecord.decode_stream(region)]
    assert LogOp.CREAT in ops and LogOp.WRITE in ops


def test_counters_populated(rig):
    def scenario():
        fd = yield from rig.fs.open("/f", create=True)
        yield from rig.fs.write(fd, KiB(64))
        yield from rig.fs.fsync(fd)
        yield from rig.fs.close(fd)

    rig.run(scenario())
    assert rig.fs.counters.get("creates") == 1
    assert rig.fs.counters.get("app_bytes_written") == KiB(64)
    assert rig.fs.counters.get("fsyncs") == 1
    assert rig.fs.counters.get("log_records_new") >= 2


def test_metadata_footprint_accounting(rig):
    def scenario():
        yield from rig.fs.mkdir("/d")
        for i in range(10):
            fd = yield from rig.fs.open(f"/d/f{i}", create=True)
            yield from rig.fs.close(fd)

    rig.run(scenario())
    fp = rig.fs.footprint()
    assert fp.inode_count == 12  # root + /d + 10 files
    assert fp.btree_nodes >= 1
    assert fp.dram_bytes() > 0
    assert fp.ssd_bytes() >= rig.config.log_region_bytes


def test_hugeblocks_reduce_inode_block_list(rig):
    """8x fewer tracked blocks with 32K vs 4K (the §IV-D claim)."""
    huge_rig = MicroFSRig()
    small_rig = MicroFSRig(
        config=RuntimeConfig(
            hugeblocks=False, log_region_bytes=MiB(1), state_region_bytes=MiB(16)
        )
    )

    def scenario(r):
        def inner():
            fd = yield from r.fs.open("/f", create=True)
            yield from r.fs.write(fd, MiB(8))
            yield from r.fs.close(fd)
        r.run(inner())

    scenario(huge_rig)
    scenario(small_rig)
    assert len(small_rig.fs.stat("/f").blocks) == 8 * len(huge_rig.fs.stat("/f").blocks)
