"""Circular hugeblock pool: O(1) allocation over a partition region.

§III-E, "Hugeblocks": "We use a circular block pool for O(1) hugeblock
allocation. The use of hugeblocks significantly lowers the amount of
information that must be kept to track file blocks."

The pool covers the data region of a rank's partition, divided into
fixed-size blocks. Allocation takes from the head of a circular free
ring; free appends at the tail. The ring holds *runs* of consecutive
blocks, ``(first block, block count)``, so handing out or taking back a
run of any length is one step per run, not per block; a freed run that
continues the tail run merges into it, which keeps the ring's block
order exactly that of a one-block-per-slot ring. Allocated blocks are
ascending maximal runs, searched by bisection for double-free checks.

``footprint_bytes`` reports the *modelled* DRAM cost, one 4-byte index
per block, by arithmetic: the 8x reduction the paper credits to 32 KiB
blocks vs 4 KiB. It does not measure the runs this host code keeps.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import Deque, Iterable, List, Tuple

from repro.errors import InvalidArgument, NoSpace

__all__ = ["BlockPool", "Run", "expand", "runs_of"]

#: ``(first block, block count)``: consecutive blocks.
Run = Tuple[int, int]


def runs_of(blocks: Iterable[int]) -> List[Run]:
    """Merge a block sequence into runs, keeping its order."""
    runs: List[Run] = []
    first = end = 0  # the pending run [first, end), empty so far
    for block in blocks:
        if block == end:
            end += 1
            continue
        if end > first:
            runs.append((first, end - first))
        first, end = block, block + 1
    if end > first:
        runs.append((first, end - first))
    return runs


def expand(runs: Iterable[Run]) -> List[int]:
    """The block sequence a list of runs stands for."""
    blocks: List[int] = []
    for first, n in runs:
        blocks.extend(range(first, first + n))
    return blocks


class BlockPool:  # reproflow: ignore[FLOW103] (writes serialized by MicroFS op order)
    """Fixed-size block allocator over ``[0, capacity_blocks)``."""

    def __init__(self, region_bytes: int, block_bytes: int):
        if block_bytes <= 0:
            raise InvalidArgument(f"block size must be positive, got {block_bytes}")
        if region_bytes < block_bytes:
            raise InvalidArgument(
                f"region of {region_bytes} bytes holds no {block_bytes}-byte block"
            )
        self.block_bytes = block_bytes
        self.capacity_blocks = region_bytes // block_bytes
        self._free: Deque[Run] = deque([(0, self.capacity_blocks)])
        # Allocated run i is [_starts[i], _ends[i]); runs ascend and never touch.
        self._starts: List[int] = []
        self._ends: List[int] = []
        self._used = 0

    # -- allocation ---------------------------------------------------------------

    def alloc_runs(self, count: int) -> List[Run]:
        """Take ``count`` blocks from the head of the ring; all-or-nothing.

        Returns them as runs in allocation order.
        """
        if count < 0:
            raise InvalidArgument(f"negative block count: {count}")
        if count > self.free_blocks:
            raise NoSpace(
                f"need {count} blocks, only {self.free_blocks} free of "
                f"{self.capacity_blocks}"
            )
        self._used += count
        taken: List[Run] = []
        while count:
            first, length = self._free[0]
            take = min(length, count)
            if take == length:
                self._free.popleft()
            else:
                self._free[0] = (first + take, length - take)
            self._mark(first, first + take)
            taken.append((first, take))
            count -= take
        return taken

    def free_runs(self, runs: Iterable[Run]) -> None:
        """Append runs to the tail of the ring, in order.

        Blocks are freed one after another: the first block that is not
        allocated raises ``InvalidArgument``, after the blocks before it
        went back to the ring.
        """
        for first, count in runs:
            end = first + count
            stop = self._unmark(first, end)
            if stop > first:
                self._used -= stop - first
                self._append_free(first, stop - first)
            if stop < end:
                raise InvalidArgument(f"double free or foreign block {stop}")

    def _mark(self, first: int, end: int) -> None:
        """Add the free blocks ``[first, end)`` to the allocated runs."""
        starts, ends = self._starts, self._ends
        i = bisect_right(starts, first)
        if i < len(starts) and starts[i] == end:  # join the run after
            end = ends[i]
            del starts[i], ends[i]
        if i > 0 and ends[i - 1] == first:  # join the run before
            ends[i - 1] = end
        else:
            starts.insert(i, first)
            ends.insert(i, end)

    def _unmark(self, first: int, end: int) -> int:
        """Take ``[first, stop)`` out of the allocated runs and return ``stop``,
        the first block of ``[first, end)`` that is not allocated, or ``end``."""
        starts, ends = self._starts, self._ends
        i = bisect_right(starts, first) - 1  # the run that holds first, if any
        if end <= first or i < 0 or ends[i] <= first:
            return first
        run_start, run_end = starts[i], ends[i]
        stop = min(end, run_end)
        if stop < run_end:  # keep the tail piece
            starts.insert(i + 1, stop)
            ends.insert(i + 1, run_end)
        if run_start < first:  # keep the head piece
            ends[i] = first
        else:
            del starts[i], ends[i]
        return stop

    def _append_free(self, first: int, count: int) -> None:
        if self._free:
            tail_first, tail_count = self._free[-1]
            if tail_first + tail_count == first:
                self._free[-1] = (tail_first, tail_count + count)
                return
        self._free.append((first, count))

    def allocated_runs(self) -> List[Run]:
        """Every allocated block, as ascending maximal runs."""
        return [(first, end - first) for first, end in zip(self._starts, self._ends)]

    # -- accounting ----------------------------------------------------------------

    @property
    def free_blocks(self) -> int:
        return self.capacity_blocks - self._used

    @property
    def used_blocks(self) -> int:
        return self._used

    def offset_of(self, block: int) -> int:
        """Byte offset of a block within the data region."""
        if not 0 <= block < self.capacity_blocks:
            raise InvalidArgument(f"block {block} outside pool")
        return block * self.block_bytes

    def footprint_bytes(self) -> int:
        """Modelled DRAM cost of tracking the pool: 4 bytes per block index."""
        return 4 * self.capacity_blocks

    # -- persistence (for internal-state checkpoints) --------------------------------

    def snapshot(self) -> dict:
        """Flat block lists, the format state checkpoints have always stored."""
        return {
            "block_bytes": self.block_bytes,
            "capacity_blocks": self.capacity_blocks,
            "free": expand(self._free),
            "allocated": expand(self.allocated_runs()),
        }

    @classmethod
    def restore(cls, snap: dict) -> "BlockPool":
        pool = cls.__new__(cls)
        pool.block_bytes = snap["block_bytes"]
        pool.capacity_blocks = snap["capacity_blocks"]
        pool._free = deque(runs_of(snap["free"]))
        allocated = runs_of(snap["allocated"])
        pool._starts = [first for first, _count in allocated]
        pool._ends = [first + count for first, count in allocated]
        pool._used = len(snap["allocated"])
        return pool
