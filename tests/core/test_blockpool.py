"""Unit + property tests for the circular block pool, through its run
API (``alloc_runs``/``free_runs``); ``alloc_one``/``free_one`` are its
one-block cases."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.microfs.blockpool import BlockPool, expand
from repro.errors import InvalidArgument, NoSpace
from repro.units import KiB, MiB


def alloc_one(pool):
    [(block, _count)] = pool.alloc_runs(1)
    return block


def free_one(pool, block):
    pool.free_runs([(block, 1)])


def test_alloc_sequential_blocks_are_contiguous():
    pool = BlockPool(MiB(1), KiB(32))
    blocks = expand(pool.alloc_runs(8))
    assert blocks == list(range(8))


def test_capacity():
    pool = BlockPool(MiB(1), KiB(32))
    assert pool.capacity_blocks == 32
    assert pool.free_blocks == 32


def test_exhaustion_raises():
    pool = BlockPool(KiB(64), KiB(32))
    pool.alloc_runs(2)
    with pytest.raises(NoSpace):
        alloc_one(pool)


def test_alloc_many_all_or_nothing():
    pool = BlockPool(KiB(96), KiB(32))
    with pytest.raises(NoSpace):
        pool.alloc_runs(4)
    assert pool.free_blocks == 3  # nothing consumed


def test_free_recycles_in_fifo_order():
    pool = BlockPool(KiB(96), KiB(32))
    a = expand(pool.alloc_runs(3))
    free_one(pool, a[1])
    free_one(pool, a[0])
    # Ring: freed blocks come back after any never-used ones (none left),
    # in free order.
    assert alloc_one(pool) == a[1]
    assert alloc_one(pool) == a[0]


def test_double_free_rejected():
    pool = BlockPool(KiB(64), KiB(32))
    block = alloc_one(pool)
    free_one(pool, block)
    with pytest.raises(InvalidArgument):
        free_one(pool, block)


def test_foreign_free_rejected():
    pool = BlockPool(KiB(64), KiB(32))
    with pytest.raises(InvalidArgument):
        free_one(pool, 99)


def test_offset_of():
    pool = BlockPool(MiB(1), KiB(32))
    assert pool.offset_of(0) == 0
    assert pool.offset_of(3) == 3 * KiB(32)
    with pytest.raises(InvalidArgument):
        pool.offset_of(1000)


def test_footprint_shrinks_8x_with_hugeblocks():
    """The paper's 8x metadata reduction from 4K -> 32K blocks."""
    small = BlockPool(MiB(64), 4096)
    huge = BlockPool(MiB(64), KiB(32))
    assert small.footprint_bytes() == 8 * huge.footprint_bytes()


def test_snapshot_restore_roundtrip():
    pool = BlockPool(MiB(1), KiB(32))
    allocated = expand(pool.alloc_runs(5))
    free_one(pool, allocated[2])
    restored = BlockPool.restore(pool.snapshot())
    assert restored.free_blocks == pool.free_blocks
    assert restored.used_blocks == pool.used_blocks
    # Deterministic continuation: both pools allocate identically.
    assert alloc_one(restored) == alloc_one(pool)
    assert alloc_one(restored) == alloc_one(pool)


def fragmented_pool():
    """20 blocks, all taken, then ``[3, 5)``, ``[9, 10)`` and ``[14, 17)``
    freed."""
    pool = BlockPool(20 * 4096, 4096)
    pool.alloc_runs(20)
    pool.free_runs([(3, 2), (9, 1), (14, 3)])
    return pool


def test_fragmented_pool_keeps_maximal_runs():
    pool = fragmented_pool()
    assert pool.allocated_runs() == [(0, 3), (5, 4), (10, 4), (17, 3)]
    assert pool.used_blocks == 14


def test_allocation_filling_a_gap_leaves_one_run():
    pool = BlockPool(10 * 4096, 4096)
    pool.alloc_runs(10)
    pool.free_runs([(3, 2)])
    assert pool.allocated_runs() == [(0, 3), (5, 5)]
    assert pool.alloc_runs(2) == [(3, 2)]
    assert pool.allocated_runs() == [(0, 10)]


def test_allocation_before_a_run_joins_it():
    pool = BlockPool(10 * 4096, 4096)
    pool.alloc_runs(10)
    pool.free_runs([(0, 3)])
    pool.alloc_runs(3)
    assert pool.allocated_runs() == [(0, 10)]


def test_freeing_the_middle_of_a_run_leaves_two_runs():
    pool = BlockPool(10 * 4096, 4096)
    pool.alloc_runs(10)
    pool.free_runs([(4, 2)])
    assert pool.allocated_runs() == [(0, 4), (6, 4)]
    assert pool.free_blocks == 2


def test_free_past_a_run_frees_its_prefix_then_raises_at_the_first_free_block():
    pool = BlockPool(10 * 4096, 4096)
    pool.alloc_runs(10)
    pool.free_runs([(2, 3)])
    with pytest.raises(InvalidArgument, match="block 2$"):
        pool.free_runs([(0, 4)])
    assert pool.allocated_runs() == [(5, 5)]
    assert pool.free_blocks == 5
    assert pool.snapshot()["free"] == [2, 3, 4, 0, 1]


def test_restore_of_a_fragmented_pool_keeps_its_runs():
    pool = fragmented_pool()
    restored = BlockPool.restore(pool.snapshot())
    assert restored.allocated_runs() == pool.allocated_runs()
    assert restored.snapshot() == pool.snapshot()
    assert restored.free_blocks == pool.free_blocks


def test_invalid_construction():
    with pytest.raises(InvalidArgument):
        BlockPool(0, KiB(32))
    with pytest.raises(InvalidArgument):
        BlockPool(MiB(1), 0)


@settings(max_examples=50, deadline=None)
@given(
    ops=st.lists(st.sampled_from(["alloc", "free"]), max_size=300),
    nblocks=st.integers(min_value=1, max_value=64),
)
def test_pool_invariants_under_random_ops(ops, nblocks):
    """Property: no block is ever double-allocated; free+used == capacity;
    restore(snapshot) continues identically."""
    pool = BlockPool(nblocks * 4096, 4096)
    live = []
    for op in ops:
        if op == "alloc" and pool.free_blocks > 0:
            block = alloc_one(pool)
            assert block not in live
            live.append(block)
        elif op == "free" and live:
            free_one(pool, live.pop(0))
        assert pool.free_blocks + pool.used_blocks == pool.capacity_blocks
    twin = BlockPool.restore(pool.snapshot())
    for _ in range(min(pool.free_blocks, 10)):
        assert alloc_one(twin) == alloc_one(pool)
