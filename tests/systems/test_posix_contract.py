"""One POSIX contract over every registered backend.

Each check drives one rank of a freshly built system through
``handle.run_ranks``, so the NVMe-CR shim, standalone MicroFS and every
baseline client must answer the same calls the same way: positional
writes leave the offset alone, ``w`` truncates, ``x`` is exclusive, and
misuse raises the same errors.
"""

import pytest

from repro import systems
from repro.errors import BadFileDescriptor, FileExists, FileNotFound, InvalidArgument
from repro.units import KiB

from tests.systems.test_registry import BUILD_ARGS

BLOCK = KiB(4)


def raises(exc_type, call):
    """Drive ``call``; whether it raised ``exc_type``."""
    try:
        yield from call
    except exc_type:
        return True
    return False


def create(shim, path, nbytes):
    fd = yield from shim.open(path, "w")
    if nbytes:
        yield from shim.write(fd, nbytes)
    yield from shim.fsync(fd)
    yield from shim.close(fd)


def pwrite_leaves_the_offset(shim):
    fd = yield from shim.open("/p.dat", "w")
    yield from shim.write(fd, BLOCK)
    yield from shim.pwrite(fd, BLOCK, 4 * BLOCK)
    yield from shim.write(fd, BLOCK)  # lands at BLOCK, inside the file
    yield from shim.close(fd)
    return shim.stat("/p.dat").size


def w_truncates(shim):
    yield from create(shim, "/t.dat", 2 * BLOCK)
    fd = yield from shim.open("/t.dat", "w")
    yield from shim.close(fd)
    return shim.stat("/t.dat").size


def x_on_existing_raises(shim):
    yield from create(shim, "/x.dat", 0)
    return (yield from raises(FileExists, shim.open("/x.dat", "x")))


def bad_mode_raises(shim):
    return (yield from raises(InvalidArgument, shim.open("/m.dat", "rw")))


def unlink_missing_raises(shim):
    return (yield from raises(FileNotFound, shim.unlink("/missing.dat")))


def second_mkdir_raises(shim):
    yield from shim.mkdir("/d")
    return (yield from raises(FileExists, shim.mkdir("/d")))


def write_on_read_fd_raises(shim):
    yield from create(shim, "/r.dat", BLOCK)
    fd = yield from shim.open("/r.dat", "r")
    return (yield from raises(BadFileDescriptor, shim.write(fd, BLOCK)))


def empty_file_exists(shim):
    yield from create(shim, "/e.dat", 0)
    return shim.stat("/e.dat").size


def reads_advance_to_eof(shim):
    yield from create(shim, "/s.dat", 2 * BLOCK)
    fd = yield from shim.open("/s.dat", "r")
    got = []
    for _ in range(3):
        pieces = yield from shim.read(fd, BLOCK)
        got.append(sum(p.nbytes for p in pieces))
    yield from shim.close(fd)
    return got


#: check -> (scenario, what every backend must return)
CHECKS = {
    "pwrite_leaves_the_offset": (pwrite_leaves_the_offset, 5 * BLOCK),
    "w_truncates": (w_truncates, 0),
    "x_on_existing_raises": (x_on_existing_raises, True),
    "bad_mode_raises": (bad_mode_raises, True),
    "unlink_missing_raises": (unlink_missing_raises, True),
    "second_mkdir_raises": (second_mkdir_raises, True),
    "write_on_read_fd_raises": (write_on_read_fd_raises, True),
    "empty_file_exists": (empty_file_exists, 0),
    "reads_advance_to_eof": (reads_advance_to_eof, [BLOCK, BLOCK, 0]),
}


@pytest.mark.parametrize("check", sorted(CHECKS))
@pytest.mark.parametrize("name", sorted(BUILD_ARGS))
def test_posix_contract(name, check):
    scenario, expected = CHECKS[check]
    handle = systems.build(name, nprocs=1, seed=3, **BUILD_ARGS[name])
    [result] = handle.run_ranks(lambda shim, comm: scenario(shim))
    assert result == expected
