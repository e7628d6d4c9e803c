"""Run-based MicroFS block maps against per-block reference models.

* :class:`BlockPool` against :class:`ReferenceBlockPool`: same blocks,
  counts, snapshots and exception types under random allocs, frees and
  snapshot -> restore.
* :class:`ExtentMap` against a plain ``list[int]``.
* ``MicroFS._device_runs`` against the per-block split it replaced.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import RuntimeConfig
from repro.core.microfs.blockpool import BlockPool, expand, runs_of
from repro.core.microfs.inode import ExtentMap, FileType, Inode
from repro.units import KiB

from tests.conftest import MicroFSRig
from tests.core.reference_blockpool import ReferenceBlockPool


def outcome(fn, *args):
    """``fn(*args)``'s result, or the type of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type is the comparison
        return type(exc)


def assert_same(pool, ref):
    assert pool.free_blocks == ref.free_blocks
    assert pool.used_blocks == ref.used_blocks
    assert pool.snapshot() == ref.snapshot()
    assert pool.allocated_runs() == runs_of(sorted(ref.snapshot()["allocated"]))


_OPS = st.sampled_from(["alloc1", "alloc", "free1", "free_run", "free_runs", "restore"])


@settings(max_examples=200, deadline=None)
@given(nblocks=st.integers(min_value=1, max_value=40), data=st.data())
def test_pool_matches_per_block_reference(nblocks, data):
    pool = BlockPool(nblocks * 4096, 4096)
    ref = ReferenceBlockPool(nblocks * 4096, 4096)
    # Block numbers a free may name: live ones mostly, plus free and foreign.
    block = st.integers(min_value=-2, max_value=nblocks + 2)
    for op in data.draw(st.lists(_OPS, max_size=60)):
        live = sorted(ref.snapshot()["allocated"])
        pick = st.sampled_from(live) if live and data.draw(st.booleans()) else block
        if op == "alloc1":
            got = outcome(pool.alloc_runs, 1)
            want = outcome(ref.alloc)
            if isinstance(want, int):
                want = [want]
            assert (expand(got) if isinstance(got, list) else got) == want
        elif op == "alloc":
            count = data.draw(st.integers(min_value=-1, max_value=nblocks + 1))
            got = outcome(pool.alloc_runs, count)
            want = outcome(ref.alloc_many, count)
            assert (expand(got) if isinstance(got, list) else got) == want
        elif op == "free1":
            first = data.draw(pick)
            assert outcome(pool.free_runs, [(first, 1)]) == outcome(ref.free, first)
        elif op == "restore":
            pool = BlockPool.restore(pool.snapshot())
            ref = ReferenceBlockPool.restore(ref.snapshot())
        else:
            nruns = 1 if op == "free_run" else data.draw(st.integers(0, 4))
            runs = [(data.draw(pick), data.draw(st.integers(0, 5)))
                    for _ in range(nruns)]
            assert outcome(pool.free_runs, runs) == outcome(ref.free_many, expand(runs))
        assert_same(pool, ref)


_MAP_OPS = st.one_of(
    st.tuples(st.just("append"), st.integers(0, 60)),
    st.tuples(st.just("extend"), st.lists(st.integers(0, 60), max_size=12)),
    st.tuples(st.just("extend"), st.builds(lambda a, n: list(range(a, a + n)),
                                          st.integers(0, 60), st.integers(0, 12))),
    st.tuples(st.just("truncate"), st.integers(0, 40)),
)


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(_MAP_OPS, max_size=25), data=st.data())
def test_extent_map_matches_list(ops, data):
    extents = ExtentMap()
    model = []
    for op, arg in ops:
        if op == "append":
            extents.append(arg)
            model.append(arg)
        elif op == "extend":
            extents.extend(arg)
            model.extend(arg)
        else:
            removed = extents.truncate(arg)
            assert expand(removed) == model[arg:]
            del model[arg:]
        assert len(extents) == len(model)
        assert list(extents) == model
        assert extents == model
        assert extents == ExtentMap(model)
        assert extents.runs == runs_of(model)  # maximal runs, however built
        assert expand(extents.runs) == model
    for index in range(-len(model), len(model)):
        assert extents[index] == model[index]
    start = data.draw(st.integers(0, len(model)))
    stop = data.draw(st.integers(start, len(model)))
    assert expand(extents.span(start, stop)) == model[start:stop]


def per_block_runs(blocks, offset, nbytes, block, data_offset):
    """The per-block split ``pwrite``/``pread`` used before extent maps."""
    runs = []
    consumed = 0
    while consumed < nbytes:
        at = offset + consumed
        take = min(block - at % block, nbytes - consumed)
        device_offset = data_offset + blocks[at // block] * block + at % block
        if runs and runs[-1][0] + runs[-1][1] == device_offset:
            runs[-1] = (runs[-1][0], runs[-1][1] + take)
        else:
            runs.append((device_offset, take))
        consumed += take
    return runs


@settings(max_examples=100, deadline=None)
@given(blocks=st.lists(st.integers(0, 30), min_size=1, max_size=20), data=st.data())
def test_device_runs_match_per_block_split(blocks, data):
    rig = MicroFSRig(config=RuntimeConfig(log_region_bytes=KiB(64),
                                          state_region_bytes=KiB(256),
                                          hugeblock_bytes=KiB(4)),
                     partition_bytes=KiB(512))
    block = KiB(4)
    inode = Inode(ino=9, ftype=FileType.FILE, blocks=blocks)
    offset = data.draw(st.integers(0, len(blocks) * block - 1))
    nbytes = data.draw(st.integers(1, len(blocks) * block - offset))
    assert rig.fs._device_runs(inode, offset, nbytes) == per_block_runs(
        blocks, offset, nbytes, block, rig.fs._data_offset)
