"""Inodes and directory entries (§III-E, "POSIX Semantics").

"We borrow several conventional filesystem concepts and techniques, such
as inodes to store file metadata and directory files to store directory
entries."

An inode records type, size, permissions, and the hugeblocks backing
the file, in file order. The host keeps those as an :class:`ExtentMap`
of ``(device block, count)`` runs, so a file written into one stretch
of the pool costs one run however many blocks it spans; the modelled
per-block metadata cost stays in the pool's ``footprint_bytes``.
Directory inodes carry their entries in DRAM; each entry mutation is
durably captured by the operation log (and the directory *file* blocks
on the SSD are rewritten by the fs layer, which is where Figure 8(b)'s
create traffic comes from).
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional

from repro.core.microfs.blockpool import Run, expand, runs_of
from repro.errors import IsADirectory, NotADirectory

__all__ = ["FileType", "Inode", "DirEntry", "ExtentMap"]


class FileType(enum.Enum):
    FILE = "file"
    DIRECTORY = "dir"


@dataclass(frozen=True)
class DirEntry:
    """One name -> inode mapping inside a directory."""

    name: str
    ino: int
    ftype: FileType


class ExtentMap:  # reproflow: ignore[FLOW103] (writes serialized by MicroFS op order)
    """A file's device blocks in file order, stored as runs.

    It reads like the ``list[int]`` of block numbers it stands for
    (``len``, integer indexing, iteration, ``==`` against a list) but
    keeps one ``(device block, count)`` run per device-contiguous
    stretch, always merged, so two maps are equal exactly when their
    runs are. Growing, truncating and looking up a byte range cost
    O(runs), not O(blocks).
    """

    __slots__ = ("_runs", "_starts", "_len")

    def __init__(self, blocks: Iterable[int] = ()):
        self._runs: List[Run] = []
        #: File block index of each run's first block.
        self._starts: List[int] = []
        self._len = 0
        if blocks:
            self.extend(blocks)

    @property
    def runs(self) -> List[Run]:
        return list(self._runs)

    def add_runs(self, runs: Iterable[Run]) -> None:
        """Append device runs at the end of the file."""
        for first, count in runs:
            if count <= 0:
                continue
            if self._runs:
                last_first, last_count = self._runs[-1]
                if last_first + last_count == first:
                    self._runs[-1] = (last_first, last_count + count)
                    self._len += count
                    continue
            self._runs.append((first, count))
            self._starts.append(self._len)
            self._len += count

    def append(self, block: int) -> None:
        self.add_runs([(block, 1)])

    def extend(self, blocks: Iterable[int]) -> None:
        self.add_runs(runs_of(blocks))

    def truncate(self, keep: int) -> List[Run]:
        """Keep the first ``keep`` blocks; the cut runs, in file order."""
        if keep < 0:
            raise IndexError(f"cannot keep {keep} blocks")
        if keep >= self._len:
            return []
        i = bisect_right(self._starts, keep) - 1
        first, count = self._runs[i]
        cut = keep - self._starts[i]
        removed = self._runs[i:]
        del self._runs[i:], self._starts[i:]
        if cut:
            removed[0] = (first + cut, count - cut)
            self._runs.append((first, cut))
            self._starts.append(keep - cut)
        self._len = keep
        return removed

    def span(self, start: int, stop: int) -> List[Run]:
        """The device runs behind file blocks ``[start, stop)``."""
        if not 0 <= start <= stop <= self._len:
            raise IndexError(f"blocks [{start}, {stop}) outside a {self._len}-block map")
        out: List[Run] = []
        i = bisect_right(self._starts, start) - 1
        while start < stop:
            first, count = self._runs[i]
            skip = start - self._starts[i]
            take = min(count - skip, stop - start)
            out.append((first + skip, take))
            start += take
            i += 1
        return out

    def __getitem__(self, index: int) -> int:
        if index < 0:
            index += self._len
        if not 0 <= index < self._len:
            raise IndexError("block index out of range")
        i = bisect_right(self._starts, index) - 1
        return self._runs[i][0] + index - self._starts[i]

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[int]:
        return iter(self.tolist())

    def tolist(self) -> List[int]:
        return expand(self._runs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ExtentMap):
            return self._runs == other._runs
        if isinstance(other, list):
            return self.tolist() == other
        return NotImplemented

    __hash__ = None  # mutable, like list

    def __repr__(self) -> str:
        return f"ExtentMap(runs={self._runs!r})"


@dataclass
class Inode:  # reproflow: ignore[FLOW103] (writes serialized by MicroFS op order)
    """File or directory metadata. DRAM-resident; journaled via the oplog."""

    ino: int
    ftype: FileType
    mode: int = 0o644
    uid: int = 0
    size: int = 0
    nlink: int = 1
    ctime: float = 0.0
    mtime: float = 0.0
    blocks: ExtentMap = field(default_factory=ExtentMap)
    entries: Optional[Dict[str, DirEntry]] = None  # directories only

    def __post_init__(self) -> None:
        if not isinstance(self.blocks, ExtentMap):
            self.blocks = ExtentMap(self.blocks)
        if self.ftype is FileType.DIRECTORY and self.entries is None:
            self.entries = {}

    # -- type guards ---------------------------------------------------------------

    def require_file(self) -> None:
        if self.ftype is not FileType.FILE:
            raise IsADirectory(f"inode {self.ino} is a directory")

    def require_dir(self) -> None:
        if self.ftype is not FileType.DIRECTORY:
            raise NotADirectory(f"inode {self.ino} is not a directory")

    # -- directory ops -----------------------------------------------------------------

    def add_entry(self, entry: DirEntry) -> None:
        self.require_dir()
        self.entries[entry.name] = entry

    def remove_entry(self, name: str) -> DirEntry:
        self.require_dir()
        return self.entries.pop(name)

    def lookup(self, name: str) -> Optional[DirEntry]:
        self.require_dir()
        return self.entries.get(name)

    def entry_names(self) -> List[str]:
        self.require_dir()
        return sorted(self.entries)

    # -- accounting ----------------------------------------------------------------------

    def dir_file_bytes(self) -> int:
        """On-SSD size of this directory's *directory file*: 64-byte
        fixed entries (name, ino, type), one header slot."""
        self.require_dir()
        return 64 * (len(self.entries) + 1)

    # -- persistence -----------------------------------------------------------------------

    def snapshot(self) -> dict:
        snap = {
            "ino": self.ino,
            "ftype": self.ftype.value,
            "mode": self.mode,
            "uid": self.uid,
            "size": self.size,
            "nlink": self.nlink,
            "ctime": self.ctime,
            "mtime": self.mtime,
            "blocks": self.blocks.tolist(),  # flat, as state checkpoints store it
        }
        if self.ftype is FileType.DIRECTORY:
            snap["entries"] = {
                name: (e.ino, e.ftype.value) for name, e in self.entries.items()
            }
        return snap

    @classmethod
    def restore(cls, snap: dict) -> "Inode":
        ftype = FileType(snap["ftype"])
        inode = cls(
            ino=snap["ino"],
            ftype=ftype,
            mode=snap["mode"],
            uid=snap["uid"],
            size=snap["size"],
            nlink=snap["nlink"],
            ctime=snap["ctime"],
            mtime=snap["mtime"],
            blocks=ExtentMap(snap["blocks"]),
        )
        if ftype is FileType.DIRECTORY:
            for name, (ino, etype) in snap["entries"].items():
                inode.add_entry(DirEntry(name, ino, FileType(etype)))
        return inode
