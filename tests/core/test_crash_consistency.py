"""Crash-consistency property tests: power fails at a *random* instant
mid-workload; recovery must always yield a consistent filesystem, and no
fully-written checkpoint may be lost or corrupted (§III-E's guarantee).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import RuntimeConfig
from repro.core.data_plane import DataPlane
from repro.core.microfs.recovery import recover
from repro.errors import DevicePoweredOff, FSError
from repro.units import KiB, MiB

from tests.conftest import MicroFSRig


def crash_workload(rig, completed):
    """Write checkpoints forever, recording each completed file."""
    fs = rig.fs
    step = 0
    try:
        while True:
            path = f"/ckpt{step:03d}.dat"
            fd = yield from fs.open(path, create=True)
            for _chunk in range(4):
                yield from fs.write(fd, KiB(256))
            yield from fs.fsync(fd)
            yield from fs.close(fd)
            completed.append(path)
            if step % 3 == 2 and fs.needs_state_checkpoint():
                yield from fs.checkpoint_state()
            step += 1
    except (DevicePoweredOff, FSError):
        return  # the crash; anything in flight is fair game


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cut_at=st.floats(min_value=0.001, max_value=0.25))
def test_power_cut_at_random_instant_recovers_consistently(cut_at):
    rig = MicroFSRig(
        config=RuntimeConfig(
            log_region_bytes=KiB(8), state_region_bytes=MiB(8),
            log_free_threshold=0.5,
        ),
        partition_bytes=MiB(512),
    )
    completed = []

    def killer():
        yield rig.env.timeout(cut_at)
        rig.ssd.power_fail()

    rig.env.process(crash_workload(rig, completed))
    rig.env.process(killer())
    rig.env.run()

    rig.ssd.power_restore()
    data_plane = DataPlane(rig.env, rig.transport, rig.namespace.nsid, rig.config)

    def do_recover():
        return (yield from recover(rig.env, rig.config, data_plane, rig.partition))

    recovered, _report = rig.run(do_recover())
    # Invariant 1: the recovered filesystem is internally consistent.
    recovered.check_consistency()
    # Invariant 2: every checkpoint that completed (close returned before
    # the cut) exists with its full size — "a completely written
    # checkpoint file will never hold corrupted data".
    for path in completed:
        assert recovered.exists(path), f"completed checkpoint {path} lost"
        assert recovered.stat(path).size == 4 * KiB(256)
    # Invariant 3: the recovered instance is writable (log continues).
    def continue_writing():
        fd = yield from recovered.open("/after.dat", create=True)
        yield from recovered.write(fd, KiB(32))
        yield from recovered.close(fd)

    rig.run(continue_writing())
    assert recovered.stat("/after.dat").size == KiB(32)
    recovered.check_consistency()


def test_live_fs_passes_fsck(rig):
    def workload():
        yield from rig.fs.mkdir("/d")
        for i in range(5):
            fd = yield from rig.fs.open(f"/d/f{i}", create=True)
            yield from rig.fs.write(fd, KiB(96))
            yield from rig.fs.close(fd)
        yield from rig.fs.unlink("/d/f2")
        yield from rig.fs.rename("/d/f3", "/promoted")
        yield from rig.fs.truncate("/promoted", KiB(32))

    rig.run(workload())
    rig.fs.check_consistency()


def test_fsck_detects_block_double_use(rig):
    def workload():
        fd = yield from rig.fs.open("/f", create=True)
        yield from rig.fs.write(fd, KiB(64))
        yield from rig.fs.close(fd)

    rig.run(workload())
    # Sabotage: duplicate a block reference.
    inode = rig.fs.stat("/f")
    inode.blocks.append(inode.blocks[0])
    import pytest

    with pytest.raises(AssertionError):
        rig.fs.check_consistency()


def test_fsck_detects_block_held_while_free(rig):
    """Counts alone miss this: /f keeps a block the pool freed, and the
    pool hands out another one, so the used-block totals still agree."""
    def workload():
        fd = yield from rig.fs.open("/f", create=True)
        yield from rig.fs.write(fd, KiB(64))
        yield from rig.fs.close(fd)

    rig.run(workload())
    held = rig.fs.stat("/f").blocks[1]
    rig.fs.pool.free_runs([(held, 1)])
    [(other, _count)] = rig.fs.pool.alloc_runs(1)
    assert other != held
    import pytest

    with pytest.raises(AssertionError, match="pool counts as free"):
        rig.fs.check_consistency()
