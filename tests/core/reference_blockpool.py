"""Reference model for :class:`repro.core.microfs.blockpool.BlockPool`:
the one-block-per-slot circular pool (a deque of free block numbers and
a set of allocated ones) that the run-based pool must stay
indistinguishable from. Test-only; nothing under ``src/`` uses it.
"""

from collections import deque
from typing import Deque, Iterable, List, Set

from repro.errors import InvalidArgument, NoSpace


class ReferenceBlockPool:
    """Per-block circular pool over ``[0, capacity_blocks)``."""

    def __init__(self, region_bytes: int, block_bytes: int):
        if block_bytes <= 0:
            raise InvalidArgument(f"block size must be positive, got {block_bytes}")
        if region_bytes < block_bytes:
            raise InvalidArgument(
                f"region of {region_bytes} bytes holds no {block_bytes}-byte block"
            )
        self.block_bytes = block_bytes
        self.capacity_blocks = region_bytes // block_bytes
        self._free: Deque[int] = deque(range(self.capacity_blocks))
        self._allocated: Set[int] = set()

    def alloc(self) -> int:
        """Pop one free block index."""
        if not self._free:
            raise NoSpace(f"block pool exhausted ({self.capacity_blocks} blocks)")
        block = self._free.popleft()
        self._allocated.add(block)
        return block

    def alloc_many(self, count: int) -> List[int]:
        """Pop ``count`` blocks; all-or-nothing."""
        if count < 0:
            raise InvalidArgument(f"negative block count: {count}")
        if count > len(self._free):
            raise NoSpace(f"need {count} blocks, only {len(self._free)} free")
        return [self.alloc() for _ in range(count)]

    def free(self, block: int) -> None:
        """Return a block to the tail of the ring."""
        if block not in self._allocated:
            raise InvalidArgument(f"double free or foreign block {block}")
        self._allocated.remove(block)
        self._free.append(block)

    def free_many(self, blocks: Iterable[int]) -> None:
        for block in blocks:
            self.free(block)

    @property
    def free_blocks(self) -> int:
        return len(self._free)

    @property
    def used_blocks(self) -> int:
        return len(self._allocated)

    def snapshot(self) -> dict:
        return {
            "block_bytes": self.block_bytes,
            "capacity_blocks": self.capacity_blocks,
            "free": list(self._free),
            "allocated": sorted(self._allocated),
        }

    @classmethod
    def restore(cls, snap: dict) -> "ReferenceBlockPool":
        pool = cls.__new__(cls)
        pool.block_bytes = snap["block_bytes"]
        pool.capacity_blocks = snap["capacity_blocks"]
        pool._free = deque(snap["free"])
        pool._allocated = set(snap["allocated"])
        return pool
