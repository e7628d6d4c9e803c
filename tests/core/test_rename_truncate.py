"""Tests for rename and partial truncate, including crash recovery."""

import pytest

from repro.core.data_plane import DataPlane
from repro.core.microfs.recovery import recover
from repro.errors import FileExists, FileNotFound, InvalidArgument
from repro.units import KiB, MiB



def fresh_recovery(rig):
    data_plane = DataPlane(rig.env, rig.transport, rig.namespace.nsid, rig.config)

    def scenario():
        return (yield from recover(rig.env, rig.config, data_plane, rig.partition))

    return rig.run(scenario())


def test_rename_file(rig):
    def scenario():
        fd = yield from rig.fs.open("/tmp.dat", create=True)
        yield from rig.fs.write(fd, b"publish me")
        yield from rig.fs.close(fd)
        yield from rig.fs.rename("/tmp.dat", "/final.dat")

    rig.run(scenario())
    assert not rig.fs.exists("/tmp.dat")
    assert rig.fs.stat("/final.dat").size == 10


def test_rename_preserves_content(rig):
    def scenario():
        fd = yield from rig.fs.open("/a", create=True)
        yield from rig.fs.write(fd, b"content!")
        yield from rig.fs.close(fd)
        yield from rig.fs.rename("/a", "/b")
        fd = yield from rig.fs.open("/b")
        pieces = yield from rig.fs.read(fd, 8)
        yield from rig.fs.close(fd)
        return b"".join(p.data for p in pieces)

    assert rig.run(scenario()) == b"content!"


def test_rename_across_directories(rig):
    def scenario():
        yield from rig.fs.mkdir("/src")
        yield from rig.fs.mkdir("/dst")
        fd = yield from rig.fs.open("/src/f", create=True)
        yield from rig.fs.close(fd)
        yield from rig.fs.rename("/src/f", "/dst/g")

    rig.run(scenario())
    assert rig.fs.readdir("/src") == []
    assert rig.fs.readdir("/dst") == ["g"]


def test_rename_directory_rekeys_subtree(rig):
    def scenario():
        yield from rig.fs.mkdir("/old")
        fd = yield from rig.fs.open("/old/child", create=True)
        yield from rig.fs.close(fd)
        yield from rig.fs.rename("/old", "/new")

    rig.run(scenario())
    assert rig.fs.exists("/new/child")
    assert not rig.fs.exists("/old/child")


def test_rename_to_existing_raises(rig):
    def scenario():
        for name in ("/a", "/b"):
            fd = yield from rig.fs.open(name, create=True)
            yield from rig.fs.close(fd)
        yield from rig.fs.rename("/a", "/b")

    with pytest.raises(FileExists):
        rig.run(scenario())


def test_rename_missing_source_raises(rig):
    def scenario():
        yield from rig.fs.rename("/ghost", "/x")

    with pytest.raises(FileNotFound):
        rig.run(scenario())


def test_rename_survives_recovery(rig):
    def scenario():
        fd = yield from rig.fs.open("/a", create=True)
        yield from rig.fs.write(fd, MiB(1))
        yield from rig.fs.close(fd)
        yield from rig.fs.rename("/a", "/b")

    rig.run(scenario())
    recovered, _report = fresh_recovery(rig)
    assert not recovered.exists("/a")
    assert recovered.stat("/b").size == MiB(1)
    assert recovered.stat("/b").blocks == rig.fs.stat("/b").blocks


def test_rename_growing_a_directory_file_survives_recovery(rig):
    """The rename that adds a directory's 64th entry (a second dir-file
    block) must allocate that block on replay too, or every later
    replayed write lands one block off."""
    entries_per_block = rig.config.effective_block_bytes // 64

    def scenario():
        yield from rig.fs.mkdir("/d")
        for i in range(entries_per_block - 1):  # plus the header slot: full
            fd = yield from rig.fs.open(f"/d/f{i}", create=True)
            yield from rig.fs.close(fd)
        fd = yield from rig.fs.open("/x", create=True)
        yield from rig.fs.close(fd)
        yield from rig.fs.rename("/x", "/d/x")
        fd = yield from rig.fs.open("/d/f0")
        yield from rig.fs.write(fd, KiB(64))
        yield from rig.fs.close(fd)

    rig.run(scenario())
    assert len(rig.fs.stat("/d").blocks) == 2
    recovered, _ = fresh_recovery(rig)
    assert recovered.stat("/d").blocks == rig.fs.stat("/d").blocks
    assert recovered.stat("/d/f0").blocks == rig.fs.stat("/d/f0").blocks


def test_partial_truncate_frees_tail_blocks(rig):
    block = rig.config.effective_block_bytes

    def scenario():
        fd = yield from rig.fs.open("/f", create=True)
        yield from rig.fs.write(fd, 10 * block)
        yield from rig.fs.close(fd)
        yield from rig.fs.truncate("/f", 3 * block + 100)

    rig.run(scenario())
    inode = rig.fs.stat("/f")
    assert inode.size == 3 * block + 100
    assert len(inode.blocks) == 4  # ceil(size / block)


def test_truncate_grow_rejected(rig):
    def scenario():
        fd = yield from rig.fs.open("/f", create=True)
        yield from rig.fs.write(fd, KiB(32))
        yield from rig.fs.close(fd)
        yield from rig.fs.truncate("/f", MiB(1))

    with pytest.raises(InvalidArgument):
        rig.run(scenario())


def test_truncate_survives_recovery(rig):
    block = rig.config.effective_block_bytes

    def scenario():
        fd = yield from rig.fs.open("/f", create=True)
        yield from rig.fs.write(fd, 8 * block)
        yield from rig.fs.close(fd)
        yield from rig.fs.truncate("/f", 2 * block)
        # Reuse the freed blocks: allocation stays deterministic.
        fd = yield from rig.fs.open("/g", create=True)
        yield from rig.fs.write(fd, 4 * block)
        yield from rig.fs.close(fd)

    rig.run(scenario())
    recovered, _ = fresh_recovery(rig)
    assert recovered.stat("/f").size == 2 * block
    assert recovered.stat("/f").blocks == rig.fs.stat("/f").blocks
    assert recovered.stat("/g").blocks == rig.fs.stat("/g").blocks


def test_shim_rename_truncate():
    from repro.bench.fleet import MicroFSFleet

    fleet = MicroFSFleet(1, partition_bytes=MiB(256))
    shim = fleet.clients[0]

    def scenario():
        fd = yield from shim.open("/t", "w")
        yield from shim.write(fd, KiB(64))
        yield from shim.close(fd)
        yield from shim.rename("/t", "/u")
        yield from shim.truncate("/u", KiB(16))

    fleet.env.run_until_complete(fleet.env.process(scenario()))
    assert shim.stat("/u").size == KiB(16)
